"""Launcher for the daemons the served workloads start.

``python perfbench/daemon.py [--spans-out FILE] -- <repro arguments>``
calls ``repro.cli.main`` with the arguments after ``--``.  Untraced and
traced runs both start daemons this way; only with ``--spans-out`` does
the launcher install the layer wrappers and root each job at
``repro.service.scheduler.default_compile_fn``, then write the spans to
``FILE`` when the daemon exits.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main(argv) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    spans_out = opts[opts.index("--spans-out") + 1] \
        if "--spans-out" in opts else None
    common.use_source_tree()
    from repro import cli

    recorder = None
    if spans_out:
        import spans

        recorder = spans.Recorder()
        spans.install_layers(recorder)
        spans.install_job_root(recorder)
    try:
        return cli.main(cli_args)
    finally:
        if recorder is not None:
            recorder.write(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
