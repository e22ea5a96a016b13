"""Offline rule mining: replay workloads and harvest their lowerings.

``repro mine-rules`` compiles the requested workloads through the normal
pipeline with a rule library attached.  The pipeline's feedback loop
(:func:`repro.pipeline.compile_pipeline` with ``rules=``) persists every
freshly synthesized selection as a rule, and specs the library already
covers complete through the fast path — so re-mining a grown library is
cheap, and mining against a warm verdict store (the same ``--cache-dir``
earlier compiles used) replays proofs from the JSONL store instead of
re-running CEGIS from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..synthesis.stats import SynthesisStats
from .library import RuleLibrary, rules_file


@dataclass
class MiningReport:
    """Per-target outcome of one mining run."""

    target: str
    path: str
    mined: int = 0
    rule_hits: int = 0
    library_size: int = 0
    workloads: list = field(default_factory=list)


def mine_rules(
    workloads=None,
    targets=("hvx", "neon"),
    cache_dir: str | None = None,
    rules_dir: str | None = None,
) -> list:
    """Mine rule libraries for ``targets``; returns a list of
    :class:`MiningReport`.

    ``workloads`` defaults to the full registered suite.  ``rules_dir``
    places the per-target libraries (default: the cache directory, so the
    rules live next to the verdict store they were proven against).
    """
    import repro.workloads  # noqa: F401 - populate the registry
    from ..pipeline import compile_pipeline
    from ..workloads.base import get, names

    selected = list(workloads) if workloads else list(names())
    reports = []
    for target in targets:
        path = rules_file(rules_dir or cache_dir, target)
        library = RuleLibrary(path, target=target)
        report = MiningReport(target=target, path=str(path))
        for name in selected:
            stats = SynthesisStats()
            compile_pipeline(
                get(name).build(),
                backend="rake",
                target=target,
                cache_dir=cache_dir,
                stats=stats,
                rules=library,
            )
            report.mined += stats.rules_mined
            report.rule_hits += stats.rule_hits
            report.workloads.append(name)
        library.flush()
        report.library_size = len(library)
        reports.append(report)
    return reports
