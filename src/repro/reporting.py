"""ASCII rendering of the paper's tables and figures.

The benchmark harness uses these to print Figure 11 (speedup bars) and
Table 1 (compilation statistics) in a shape directly comparable to the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass

# Re-exported for callers that historically imported it from here; the
# single implementation lives in repro.numerics.
from .numerics import geomean  # noqa: F401
from .synthesis.stats import COUNTERS


@dataclass
class SpeedupRow:
    """One benchmark's measurement for the Figure 11 reproduction."""

    name: str
    rake_cycles: int
    baseline_cycles: int
    paper_speedup: float | None = None
    paper_band: str = ""

    @property
    def speedup(self) -> float:
        if self.rake_cycles <= 0:
            return 0.0
        return self.baseline_cycles / self.rake_cycles


def speedup_figure(rows, width: int = 40) -> str:
    """Render Figure 11: one bar per benchmark, normalized to 1.0x."""
    out = []
    out.append("Speedup of Rake over the baseline Halide HVX backend")
    out.append("(bar scale: '|' marks 1.0x)")
    out.append("")
    scale = width / 2.0  # bar width of a 2.0x speedup
    for row in rows:
        bar = "#" * max(1, int(round(row.speedup * scale / 2)))
        paper = (
            f" paper={row.paper_speedup:.2f}x" if row.paper_speedup else
            (f" paper: {row.paper_band}" if row.paper_band else "")
        )
        out.append(
            f"{row.name:>16} {row.speedup:5.2f}x {bar:<{width}}{paper}"
        )
    mean = geomean([r.speedup for r in rows])
    out.append("")
    out.append(f"{'geomean':>16} {mean:5.2f}x   (paper reports 1.18x average)")
    return "\n".join(out)


def compilation_table(rows) -> str:
    """Render Table 1: per-benchmark synthesis statistics.

    ``rows`` is a list of dicts with keys: name, exprs, lifting_queries,
    sketching_queries, swizzling_queries, lifting_time_s, sketching_time_s,
    swizzling_time_s.
    """
    header = (
        f"{'Benchmark':>16} {'Exprs':>6} {'LiftQ':>7} {'SketchQ':>8} "
        f"{'SwizQ':>7} {'Lift(s)':>8} {'Sketch(s)':>9} {'Swiz(s)':>8} "
        f"{'Total(s)':>9}"
    )
    lines = [header, "-" * len(header)]
    totals = {k: 0.0 for k in (
        "exprs", "lifting_queries", "sketching_queries", "swizzling_queries",
        "lifting_time_s", "sketching_time_s", "swizzling_time_s",
    )}
    for r in rows:
        total_t = (
            r["lifting_time_s"] + r["sketching_time_s"] + r["swizzling_time_s"]
        )
        lines.append(
            f"{r['name']:>16} {r['exprs']:>6} {r['lifting_queries']:>7} "
            f"{r['sketching_queries']:>8} {r['swizzling_queries']:>7} "
            f"{r['lifting_time_s']:>8.2f} {r['sketching_time_s']:>9.2f} "
            f"{r['swizzling_time_s']:>8.2f} {total_t:>9.2f}"
        )
        for k in totals:
            totals[k] += r[k if k != "exprs" else "exprs"]
    lines.append("-" * len(header))
    total_time = (
        totals["lifting_time_s"] + totals["sketching_time_s"]
        + totals["swizzling_time_s"]
    )
    if total_time > 0:
        lines.append(
            "time split: lifting {:.0%}, sketching {:.0%}, swizzling {:.0%} "
            "(paper: 9% / 21% / 70%)".format(
                totals["lifting_time_s"] / total_time,
                totals["sketching_time_s"] / total_time,
                totals["swizzling_time_s"] / total_time,
            )
        )
    return "\n".join(lines)


def engine_summary(stats, telemetry: dict | None = None) -> str:
    """One-paragraph summary of the synthesis engine's oracle activity.

    ``stats`` is a :class:`~repro.synthesis.stats.SynthesisStats`; the output
    reports per-stage query counts alongside cache effectiveness, suitable
    for appending to a ``compile`` run.  ``telemetry`` (optional) carries
    ``{"record_id": ..., "store": ...}`` when the run emitted a telemetry
    record, so the printed summary is joinable back to its corpus row.
    """
    t = {c.name: stats.total(c.name) for c in COUNTERS}
    lookups = t["cache_hits"] + t["cache_misses"]
    rate = (t["cache_hits"] / lookups) if lookups else 0.0
    lines = [
        "",
        "synthesis engine:",
        f"    oracle queries: {t['queries']} "
        f"({t['cache_hits']} cache hits, "
        f"{t['cache_misses']} misses, {rate:.0%} hit rate)",
        f"    counterexamples: {t['counterexamples']}",
    ]
    if t["fingerprint_hits"] or t["pruned_grammar_hits"]:
        lines.append(
            f"    equivalence dedup: {t['queries_saved']} queries "
            f"saved ({t['fingerprint_hits']} fingerprint hits, "
            f"{t['classes_formed']} classes, "
            f"{t['class_splits']} splits, "
            f"{t['pruned_grammar_hits']} pruned-grammar hits)"
        )
    if t["rule_hits"] + t["rule_misses"] + t["rules_mined"]:
        lines.append(
            f"    rule library: {t['rule_hits']} hits, "
            f"{t['rule_misses']} misses, {t['rules_mined']} mined, "
            f"{t['rule_recheck_failures']} re-check failures"
        )
    for name, stage in stats.stages.items():
        if stage.queries == 0:
            continue
        lines.append(
            f"    {name}: {stage.queries} queries, "
            f"{stage.cache_hits} hits, {stage.time_s:.2f}s"
        )
    if telemetry and telemetry.get("record_id"):
        lines.append(
            f"    telemetry: record {telemetry['record_id']} -> "
            f"{telemetry.get('store', '?')}"
        )
    return "\n".join(lines)


def job_summary(view) -> str:
    """Render one service job (a :class:`~repro.service.protocol.JobView`)
    for the CLI's ``status``/``submit --wait`` output."""
    degraded = " (degraded)" if getattr(view, "degraded", False) else ""
    lines = [f"job {view.id}: {view.state}{degraded}  "
             f"[{view.request.workload} / {view.request.backend}]"]
    if degraded:
        lines.append(
            "    synthesis crashed on >= 1 expression; the verified "
            "baseline lowering was substituted"
        )
    if view.wait_s is not None:
        timing = f"    queued {view.wait_s:.3f}s"
        if view.run_s is not None:
            timing += f", ran {view.run_s:.3f}s"
        lines.append(timing)
    if view.coalesced_waiters:
        lines.append(f"    coalesced submissions: {view.coalesced_waiters}")
    if view.error:
        lines.append(f"    error: {view.error}")
    if view.result is not None:
        r = view.result
        lines.append(
            f"    {r.total_cycles} cycles ({r.optimized_exprs} expressions "
            f"synthesized, {r.fallbacks} fallbacks)"
        )
        totals = r.stats.get("totals", {})
        if totals.get("queries"):
            hits = totals.get("cache_hits", 0)
            misses = totals.get("cache_misses", 0)
            lookups = hits + misses
            rate = hits / lookups if lookups else 0.0
            lines.append(
                f"    oracle: {totals['queries']} queries, "
                f"{hits} cache hits, {misses} misses ({rate:.0%} hit rate)"
            )
    return "\n".join(lines)


def service_summary(health: dict, metrics: dict) -> str:
    """Render a server's health + headline metrics for ``repro status``."""

    def metric(name, default=0):
        value = metrics.get(name, default)
        if isinstance(value, float) and value.is_integer():
            return int(value)
        return value

    lines = [
        f"server: {health.get('status', '?')} "
        f"(protocol v{health.get('v', '?')}, "
        f"up {health.get('uptime_s', 0):.0f}s)",
        f"    queue depth {metric('repro_queue_depth')}, "
        f"in flight {metric('repro_jobs_inflight')}, "
        f"workers {metric('repro_workers')}",
        f"    jobs: {metric('repro_jobs_submitted_total')} submitted, "
        f"{metric('repro_jobs_completed_total')} completed, "
        f"{metric('repro_jobs_coalesced_total')} coalesced, "
        f"{metric('repro_jobs_failed_total')} failed, "
        f"{metric('repro_jobs_cancelled_total')} cancelled, "
        f"{metric('repro_jobs_timeout_total')} timed out",
    ]
    breaker_names = {0: "closed", 1: "half-open", 2: "open"}
    breaker = breaker_names.get(int(metric("repro_breaker_state")), "?")
    resilience = (
        f"    resilience: breaker {breaker}, "
        f"{metric('repro_degraded_jobs_total')} degraded jobs"
    )
    shed = metric("repro_jobs_shed_total")
    if shed:
        resilience += f", {shed} shed"
    faults_injected = sum(
        value for name, value in metrics.items()
        if name.startswith("repro_faults_injected_total")
        and isinstance(value, (int, float))
    )
    if faults_injected:
        resilience += f", {int(faults_injected)} faults injected"
    lines.append(resilience)
    hits = metric("repro_oracle_cache_hits_total")
    misses = metric("repro_oracle_cache_misses_total")
    lookups = hits + misses
    if lookups:
        lines.append(
            f"    oracle cache: {hits} hits / {misses} misses "
            f"({hits / lookups:.0%} hit rate)"
        )
    run = metrics.get("repro_job_run_seconds")
    if isinstance(run, dict) and run.get("count"):
        lines.append(
            f"    job latency: p50 {run.get('p50', 0):.3f}s, "
            f"p95 {run.get('p95', 0):.3f}s over {run['count']} jobs"
        )
    return "\n".join(lines)


def codegen_comparison(title: str, source: str, baseline: str, rake: str) -> str:
    """Render a Figure 4 / Figure 12 style three-column comparison."""
    out = [f"=== {title} ===", "", "-- Halide IR --", source, "",
           "-- Halide codegen (baseline) --", baseline, "",
           "-- Rake codegen --", rake, ""]
    return "\n".join(out)


def lifting_trace(steps) -> str:
    """Render a Figure 9 style lifting trace."""
    out = []
    for i, step in enumerate(steps, 1):
        out.append(f"Step {i} [{step.rule}]")
        out.append(f"  Halide: {step.source}")
        out.append(f"  Lifted: {step.result}")
    return "\n".join(out)


def _count_spans(span: dict) -> int:
    return 1 + sum(_count_spans(c) for c in span.get("children", ()))


def trace_timeline(tree: dict, width: int = 60, max_depth: int = 4) -> str:
    """Render a serialized span tree as an indented ASCII timeline.

    ``tree`` is :meth:`repro.trace.Tracer.tree`.  One line per span down
    to ``max_depth``; deeper subtrees collapse into a ``(+N nested)``
    marker so big compiles stay readable.  The bar shows each span's
    position and extent relative to the whole trace.
    """
    from .trace.core import span_duration

    spans = tree.get("spans") or []
    if not spans:
        return "trace: no spans recorded"
    t0 = min(s["start_s"] for s in spans)
    t1 = max(s["end_s"] for s in spans)
    total = max(t1 - t0, 1e-9)
    trace_id = tree.get("trace_id") or "?"
    lines = [f"trace {trace_id}  total {total:.4f}s"]

    def render(span: dict, depth: int) -> None:
        lo = int((span["start_s"] - t0) / total * width)
        hi = int(round((span["end_s"] - t0) / total * width))
        lo = min(lo, width - 1)
        hi = max(lo + 1, min(hi, width))
        bar = " " * lo + "#" * (hi - lo) + " " * (width - hi)
        label = "  " * depth + span["name"]
        children = span.get("children", ())
        suffix = ""
        if depth >= max_depth and children:
            nested = sum(_count_spans(c) for c in children)
            suffix = f"  (+{nested} nested)"
        lines.append(
            f"{label:<34.34} {span_duration(span):>9.4f}s |{bar}|{suffix}"
        )
        if depth < max_depth:
            for child in children:
                render(child, depth + 1)

    for span in spans:
        render(span, 0)
    return "\n".join(lines)
