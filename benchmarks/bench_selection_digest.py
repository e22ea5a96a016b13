"""The 42 pairs' query keys and selections, gated byte for byte.

Compiles every paper kernel on both targets cold, in one process and in a
fixed order (hvx, then neon; kernels in ``repro.workloads.base.names()``
order), each against a fresh in-memory verdict cache, and records:

* the sha256 of every ``Oracle.query_key`` result, in call order;
* the sha256 of the selections, as
  ``[kernel, target, [[stage, selector, program_listing], ...]]`` per
  pair, every expression of every stage included;
* the per-stage query counts, summed over the pairs.

A change that only makes the search faster must leave all three
unchanged: the same queries asked in the same order and the same
programs selected.  They are counts and hashes, so they do not depend on
the runner, and the query keys and banks do not depend on
``PYTHONHASHSEED``.

``--write`` stores them in ``benchmarks/results/selection_digest.json``
under the result envelope.  The default ``--check`` (CI's
``batched-eval-smoke`` job) compares a fresh pass with that file, writes
nothing, and exits 1 on any difference.  A change that moves keys or
selections on purpose regenerates the file and says why.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import repro.workloads  # noqa: F401 - populate the registry
from repro.hvx import program_listing
from repro.pipeline import compile_pipeline
from repro.synthesis.engine import OracleCache
from repro.synthesis.oracle import Oracle
from repro.telemetry.results import write_result_json
from repro.workloads.base import get, names

RESULTS = Path(__file__).parent / "results" / "selection_digest.json"

TARGETS = ("hvx", "neon")

STAGES = ("lifting", "sketching", "swizzling", "verify")

#: the payload fields ``--check`` compares
FIELDS = ("pairs", "query_keys", "query_keys_sha256", "selections_sha256",
          "stage_queries")


def digest_pass() -> dict:
    """One cold pass over the 42 pairs; the fields of :data:`FIELDS`."""
    keys = hashlib.sha256()
    n_keys = 0
    real = Oracle.query_key

    def recording(self, spec, candidate, layout, tag="full"):
        nonlocal n_keys
        key = real(self, spec, candidate, layout, tag)
        keys.update(key.encode() + b"\n")
        n_keys += 1
        return key

    selections = []
    stage_queries = dict.fromkeys(STAGES, 0)
    Oracle.query_key = recording
    try:
        for target in TARGETS:
            for kernel in names():
                compiled = compile_pipeline(
                    get(kernel).build(), backend="rake", target=target,
                    cache=OracleCache())
                selections.append([kernel, target, [
                    [cs.name, ce.selector, program_listing(ce.program)]
                    for cs in compiled.stages for ce in cs.exprs]])
                for stage in STAGES:
                    entry = compiled.stats.stages.get(stage)
                    if entry is not None:
                        stage_queries[stage] += entry.queries
    finally:
        Oracle.query_key = real
    rendered = json.dumps(selections, separators=(",", ":")).encode()
    return {
        "pairs": len(selections),
        "query_keys": n_keys,
        "query_keys_sha256": keys.hexdigest(),
        "selections_sha256": hashlib.sha256(rendered).hexdigest(),
        "stage_queries": stage_queries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare a fresh pass with the committed file "
                           "and exit 1 on any difference (the default)")
    mode.add_argument("--write", action="store_true",
                      help="store a fresh pass in the results file")
    parser.add_argument("--json", default=str(RESULTS), metavar="PATH",
                        help="the results file to check or write")
    args = parser.parse_args(argv)

    got = digest_pass()
    print(json.dumps(got, indent=1))
    if args.write:
        write_result_json(args.json, "selection_digest", got)
        print(f"wrote {args.json}")
        return 0
    want = json.loads(Path(args.json).read_text())
    diffs = [name for name in FIELDS if got[name] != want.get(name)]
    for name in diffs:
        print(f"FAIL: {name} is {got[name]}, {args.json} has "
              f"{want.get(name)}", file=sys.stderr)
    if diffs:
        return 1
    print("selection digest OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
