"""Per-stage instrumentation for Table 1 of the paper.

Every synthesis query (one candidate equivalence check) is counted against
the active stage — ``lifting``, ``sketching``, ``swizzling`` or the
pipeline's final ``verify`` pass — together with wall-clock time, so the
benchmark harness can reproduce the paper's compilation-statistics table.

The memoization engine (:mod:`repro.synthesis.engine`) extends each stage
with structured cache metrics: verdict-cache hits and misses and the number
of full checks refuted by a bank valuation, which is how cold/warm
compilation runs are compared.

Every counter is declared once, in :data:`COUNTERS`.  The per-stage
attributes of :class:`StageStats`, ``SynthesisStats.count(name)`` and
``total(name)``, the ``as_dict()`` totals, the telemetry record's totals
and the service's ``/metrics`` counters all follow from that table.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, make_dataclass

STAGES = ("lifting", "sketching", "swizzling", "verify")


@dataclass(frozen=True)
class Counter:
    """One synthesis counter: its stats field, whether it is kept per
    stage (on :class:`StageStats`) or per run (on
    :class:`SynthesisStats`), and its service ``/metrics`` counter
    (``metric=None``: not exported there)."""

    name: str
    per_stage: bool = True
    metric: str | None = None
    help: str = ""


#: Every synthesis counter, declared once.  ``as_dict()`` totals, the
#: telemetry record's ``totals`` and the service's ``/metrics`` counters
#: are all derived from this table, in this order.
COUNTERS = (
    Counter("queries", metric="repro_oracle_queries_total",
            help="equivalence queries issued by finished jobs"),
    Counter("cache_hits", metric="repro_oracle_cache_hits_total",
            help="queries answered from the two-level verdict cache"),
    Counter("cache_misses", metric="repro_oracle_cache_misses_total",
            help="queries that required a full differential pass"),
    Counter("counterexamples", metric="repro_oracle_counterexamples_total",
            help="full checks refuted by a valuation-bank mismatch"),
    Counter("batched_evals"),
    Counter("fallback_evals"),
    # Always 0; kept only because perfbench/run.py reads its total.
    Counter("fingerprint_hits"),
    Counter("pruned_grammar_hits", metric="repro_pruned_grammar_hits_total",
            help="placeholder enumerations served by a precomputed pruned "
                 "grammar"),
    # Sketches Algorithm 2 rejected by the cost bound before any query.
    Counter("budget_pruned"),
    Counter("rule_hits", per_stage=False, metric="repro_rule_hits_total",
            help="specs answered by the rewrite-rule pattern-match fast "
                 "path"),
    Counter("rule_misses", per_stage=False, metric="repro_rule_misses_total",
            help="specs the rule library could not answer (fell through "
                 "to CEGIS)"),
    Counter("rules_mined", per_stage=False, metric="repro_rules_mined_total",
            help="fresh syntheses generalized into persisted rewrite rules"),
    Counter("rule_recheck_failures", per_stage=False,
            metric="repro_rule_recheck_failures_total",
            help="instantiated rule candidates refuted by the full-bank "
                 "re-check"),
)

#: counters kept per stage, one :class:`StageStats` attribute each
_STAGE_COUNTERS = tuple(c.name for c in COUNTERS if c.per_stage)

#: counters kept per run, one :class:`SynthesisStats` attribute each (a
#: rule hit answers a whole spec before any stage starts)
_RUN_COUNTERS = tuple(c.name for c in COUNTERS if not c.per_stage)

#: One stage's wall time and one ``int`` attribute per per-stage counter.
StageStats = make_dataclass(
    "StageStats",
    [("time_s", float, 0.0)]
    + [(name, int, 0) for name in _STAGE_COUNTERS],
    namespace={"__module__": __name__},
)


@dataclass
class SynthesisStats:
    """Query counts, cache metrics and times per synthesis stage."""

    stages: dict = field(
        default_factory=lambda: {name: StageStats() for name in STAGES}
    )
    expressions: int = 0
    #: rewrite-rule fast path (repro.rules): specs answered by a matched
    #: rule, specs that fell through to CEGIS, rules persisted from fresh
    #: syntheses, and instantiated candidates refuted by the full-bank
    #: re-check (each of which also counts as a miss)
    rule_hits: int = 0
    rule_misses: int = 0
    rules_mined: int = 0
    rule_recheck_failures: int = 0
    _active: list = field(default_factory=list)

    @contextmanager
    def stage(self, name: str):
        """Attribute queries and time inside the block to ``name``."""
        if name not in self.stages:
            raise ValueError(f"unknown synthesis stage: {name}")
        self._active.append(name)
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.stages[name].time_s += time.perf_counter() - start
            self._active.pop()

    def count(self, name: str) -> None:
        """Add one to counter ``name``: a per-stage counter counts against
        the innermost active stage (outside every stage it is dropped), a
        run counter against the run."""
        if name in _STAGE_COUNTERS:
            if not self._active:
                return
            owner = self.stages[self._active[-1]]
        elif name in _RUN_COUNTERS:
            owner = self
        else:
            raise ValueError(f"unknown synthesis counter: {name}")
        setattr(owner, name, getattr(owner, name) + 1)

    def total(self, name: str):
        """Counter ``name`` summed over the stages (a run counter's value
        as it stands); ``"time_s"`` gives the stages' summed time."""
        if name in _RUN_COUNTERS:
            return getattr(self, name)
        if name not in _STAGE_COUNTERS and name != "time_s":
            raise ValueError(f"unknown synthesis counter: {name}")
        return sum(getattr(s, name) for s in self.stages.values())

    def summary(self) -> dict:
        return {
            "expressions": self.expressions,
            **{
                f"{name}_queries": self.stages[name].queries
                for name in STAGES
            },
            **{
                f"{name}_time_s": round(self.stages[name].time_s, 3)
                for name in STAGES
            },
        }

    def as_dict(self) -> dict:
        """Fully structured metrics for ``--stats-json`` and reporting."""
        return {
            "expressions": self.expressions,
            "stages": {
                name: {
                    "time_s": round(s.time_s, 6),
                    **{f: getattr(s, f) for f in _STAGE_COUNTERS},
                }
                for name, s in self.stages.items()
            },
            "totals": {
                "time_s": round(self.total("time_s"), 6),
                **{c.name: self.total(c.name) for c in COUNTERS},
            },
        }
