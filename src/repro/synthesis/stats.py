"""Per-stage instrumentation for Table 1 of the paper.

Every synthesis query (one candidate equivalence check) is counted against
the active stage — ``lifting``, ``sketching``, ``swizzling`` or the
pipeline's final ``verify`` pass — together with wall-clock time, so the
benchmark harness can reproduce the paper's compilation-statistics table.

The memoization engine (:mod:`repro.synthesis.engine`) extends each stage
with structured cache metrics: verdict-cache hits and misses and the number
of new counterexamples discovered, which is how cold/warm compilation runs
are compared.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

STAGES = ("lifting", "sketching", "swizzling", "verify")


@dataclass
class StageStats:
    queries: int = 0
    time_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    counterexamples: int = 0
    batched_evals: int = 0
    fallback_evals: int = 0
    #: observational-equivalence metrics (repro.synthesis.fingerprints):
    #: queries answered by an equivalence class instead of the oracle,
    #: classes formed, classes invalidated by a distinguishing valuation,
    #: oracle queries avoided, and placeholder lookups served by a
    #: precomputed pruned grammar
    fingerprint_hits: int = 0
    classes_formed: int = 0
    class_splits: int = 0
    queries_saved: int = 0
    pruned_grammar_hits: int = 0


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
            help="new refuting valuations discovered"),
    Counter("batched_evals"),
    Counter("fallback_evals"),
    Counter("fingerprint_hits", metric="repro_fingerprint_hits_total",
            help="queries answered from an observational-equivalence "
                 "class"),
    Counter("classes_formed", metric="repro_classes_formed_total",
            help="denotation-fingerprint equivalence classes formed"),
    Counter("class_splits", metric="repro_class_splits_total",
            help="class invalidations after a distinguishing valuation "
                 "extended the fingerprint set"),
    Counter("queries_saved", metric="repro_queries_saved_total",
            help="oracle queries avoided by equivalence-class dedup"),
    Counter("pruned_grammar_hits", metric="repro_pruned_grammar_hits_total",
            help="placeholder enumerations served by a precomputed pruned "
                 "grammar"),
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

#: StageStats counter fields summed by merged_with / totals / as_dict
_COUNTER_FIELDS = tuple(c.name for c in COUNTERS if c.per_stage)

#: SynthesisStats-level counters (not per stage: a rule hit answers a
#: whole spec before any stage starts)
_RUN_FIELDS = tuple(c.name for c in COUNTERS if not c.per_stage)


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

    def _innermost(self) -> StageStats | None:
        if self._active:
            return self.stages[self._active[-1]]
        return None

    def count_query(self) -> None:
        """Record one synthesis query against the innermost active stage."""
        stage = self._innermost()
        if stage is not None:
            stage.queries += 1

    def count_cache_hit(self) -> None:
        """Record one verdict answered from the memoization cache."""
        stage = self._innermost()
        if stage is not None:
            stage.cache_hits += 1

    def count_cache_miss(self) -> None:
        """Record one verdict that required a full differential pass."""
        stage = self._innermost()
        if stage is not None:
            stage.cache_misses += 1

    def count_counterexample(self) -> None:
        """Record one newly discovered refuting valuation."""
        stage = self._innermost()
        if stage is not None:
            stage.counterexamples += 1

    def count_rule_hit(self) -> None:
        """Record one spec whose selection came from the rewrite-rule
        library's pattern-match fast path (no sketch/swizzle search)."""
        self.rule_hits += 1

    def count_rule_miss(self) -> None:
        """Record one spec the rule library could not answer (no pattern
        matched, or every instantiation failed its re-check) — the spec
        fell through to full CEGIS synthesis."""
        self.rule_misses += 1

    def count_rule_mined(self) -> None:
        """Record one freshly synthesized selection generalized into a
        rule and persisted to the library."""
        self.rules_mined += 1

    def count_rule_recheck_failure(self) -> None:
        """Record one instantiated rule candidate refuted by the full
        valuation-bank re-check (an over-general rule; soundness holds
        because the re-check gates every rule hit)."""
        self.rule_recheck_failures += 1

    def count_batched_eval(self) -> None:
        """Record one full check answered by a pure batched plan."""
        stage = self._innermost()
        if stage is not None:
            stage.batched_evals += 1

    def count_fallback_eval(self) -> None:
        """Record one full check that ran (at least partly) on the scalar
        interpreters: a non-batchable candidate, a plan with per-node
        fallbacks, or a disabled/unavailable batched engine."""
        stage = self._innermost()
        if stage is not None:
            stage.fallback_evals += 1

    def count_fingerprint_hit(self) -> None:
        """Record one query answered from an observational-equivalence
        class (denotation fingerprints) without consulting the oracle."""
        stage = self._innermost()
        if stage is not None:
            stage.fingerprint_hits += 1

    def count_class_formed(self) -> None:
        """Record one new equivalence class keyed by its fingerprint."""
        stage = self._innermost()
        if stage is not None:
            stage.classes_formed += 1

    def count_class_split(self) -> None:
        """Record one class invalidation: a distinguishing valuation
        outside the fingerprint set extended it, splitting stale classes."""
        stage = self._innermost()
        if stage is not None:
            stage.class_splits += 1

    def count_query_saved(self) -> None:
        """Record one oracle query avoided by equivalence-class dedup."""
        stage = self._innermost()
        if stage is not None:
            stage.queries_saved += 1

    def count_pruned_grammar_hit(self) -> None:
        """Record one placeholder whose realizations came from a
        precomputed pruned grammar instead of full enumeration."""
        stage = self._innermost()
        if stage is not None:
            stage.pruned_grammar_hits += 1

    @property
    def total_queries(self) -> int:
        return sum(s.queries for s in self.stages.values())

    @property
    def total_time_s(self) -> float:
        return sum(s.time_s for s in self.stages.values())

    @property
    def total_cache_hits(self) -> int:
        return sum(s.cache_hits for s in self.stages.values())

    @property
    def total_cache_misses(self) -> int:
        return sum(s.cache_misses for s in self.stages.values())

    @property
    def total_counterexamples(self) -> int:
        return sum(s.counterexamples for s in self.stages.values())

    @property
    def total_batched_evals(self) -> int:
        return sum(s.batched_evals for s in self.stages.values())

    @property
    def total_fallback_evals(self) -> int:
        return sum(s.fallback_evals for s in self.stages.values())

    @property
    def total_fingerprint_hits(self) -> int:
        return sum(s.fingerprint_hits for s in self.stages.values())

    @property
    def total_classes_formed(self) -> int:
        return sum(s.classes_formed for s in self.stages.values())

    @property
    def total_class_splits(self) -> int:
        return sum(s.class_splits for s in self.stages.values())

    @property
    def total_queries_saved(self) -> int:
        return sum(s.queries_saved for s in self.stages.values())

    @property
    def total_pruned_grammar_hits(self) -> int:
        return sum(s.pruned_grammar_hits for s in self.stages.values())

    def merged_with(self, other: "SynthesisStats") -> "SynthesisStats":
        out = SynthesisStats()
        for name in STAGES:
            mine, theirs, merged = (
                self.stages[name], other.stages[name], out.stages[name]
            )
            merged.time_s = mine.time_s + theirs.time_s
            for fname in _COUNTER_FIELDS:
                setattr(merged, fname,
                        getattr(mine, fname) + getattr(theirs, fname))
        out.expressions = self.expressions + other.expressions
        for fname in _RUN_FIELDS:
            setattr(out, fname,
                    getattr(self, fname) + getattr(other, fname))
        return out

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
                    **{f: getattr(s, f) for f in _COUNTER_FIELDS},
                }
                for name, s in self.stages.items()
            },
            "totals": {
                "time_s": round(self.total_time_s, 6),
                **{
                    f: sum(getattr(s, f) for s in self.stages.values())
                    for f in _COUNTER_FIELDS
                },
                **{f: getattr(self, f) for f in _RUN_FIELDS},
            },
        }
