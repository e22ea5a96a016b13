"""Tracing overhead: the disabled-by-default tracer must stay under 3%.

Every span site in the pipeline goes through the process-wide
:data:`~repro.trace.NULL_TRACER` when tracing is off, so the cost of
shipping the instrumentation is (number of span sites executed) x (cost
of one null ``span()`` enter/exit).  This benchmark measures both
factors directly — a traced compile counts the sites, a tight loop
prices the null call — and gates their product against compile time.
An enabled-vs-disabled wall-clock comparison is reported alongside for
context (it is informational: enabling tracing is an explicit opt-in).

``--smoke`` is the CI entry point: one workload, the same <3% assertion.
A full run writes ``benchmarks/results/trace_overhead.json``; a smoke run
leaves the checkout untouched and writes results only to ``--json-out``.
"""

import argparse
import sys
import time
from pathlib import Path

from repro.pipeline import compile_pipeline
from repro.synthesis.engine import OracleCache
from repro.trace import NULL_TRACER, Tracer, iter_span_dicts
from repro.workloads.base import get

RESULTS = Path(__file__).parent / "results" / "trace_overhead.json"

#: Table-1 subset (same as bench_table1_compilation.FAST_NAMES)
WORKLOADS = ["mul", "add", "dilate3x3", "l2norm", "gaussian3x3"]

#: hard gate on estimated disabled-tracing overhead
MAX_OVERHEAD = 0.03

#: iterations for pricing one null span() enter/exit
NULL_LOOP = 200_000


def null_span_cost(iterations: int = NULL_LOOP) -> float:
    """Seconds per ``NULL_TRACER.span()`` enter/exit (amortized)."""
    span = NULL_TRACER.span  # the bound-method lookup call sites pay
    start = time.perf_counter()
    for _ in range(iterations):
        with span("bench", probe=1) as sp:
            if sp:  # the guard every instrumented call site uses
                sp.set(unreachable=True)
    return (time.perf_counter() - start) / iterations


def _timed_compile(name: str, tracer=None) -> tuple[float, object]:
    wl = get(name)
    start = time.perf_counter()
    compile_pipeline(wl.build(), backend="rake", cache=OracleCache(),
                     tracer=tracer)
    return time.perf_counter() - start, tracer


def run_overhead(names, per_call_s: float) -> dict:
    rows = []
    for name in names:
        # Warm shared process state (realization cache, numpy imports) so
        # the two timed runs see identical conditions.
        _timed_compile(name)
        disabled_s, _ = _timed_compile(name)
        tracer = Tracer()
        enabled_s, _ = _timed_compile(name, tracer=tracer)
        spans = sum(1 for _ in iter_span_dicts(tracer.tree()))
        est_overhead = (spans * per_call_s) / disabled_s if disabled_s else 0.0
        rows.append({
            "name": name,
            "disabled_s": disabled_s,
            "enabled_s": enabled_s,
            "spans": spans,
            "est_disabled_overhead": est_overhead,
            "enabled_delta": (enabled_s - disabled_s) / disabled_s
            if disabled_s else 0.0,
        })
    return {
        "null_span_cost_ns": per_call_s * 1e9,
        "max_overhead": MAX_OVERHEAD,
        "rows": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="disabled-tracing overhead gate (<3% of compile time)")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help=f"workload names (default: {' '.join(WORKLOADS)})")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: one workload, same assertion")
    parser.add_argument("--json-out", default=None,
                        help=f"results path (default: {RESULTS}; "
                             f"a --smoke run writes only this path)")
    args = parser.parse_args(argv)

    names = args.workloads or (["mul"] if args.smoke else WORKLOADS)
    per_call_s = null_span_cost(NULL_LOOP // 10 if args.smoke else NULL_LOOP)
    report = run_overhead(names, per_call_s)

    header = (f"{'Benchmark':>16} {'Spans':>7} {'Off(s)':>8} {'On(s)':>8} "
              f"{'EstOff%':>8} {'OnDelta%':>9}")
    print(f"null span cost: {report['null_span_cost_ns']:.0f} ns/call")
    print(header)
    print("-" * len(header))
    failures = []
    for r in report["rows"]:
        print(f"{r['name']:>16} {r['spans']:>7} {r['disabled_s']:>8.3f} "
              f"{r['enabled_s']:>8.3f} {r['est_disabled_overhead']:>7.2%} "
              f"{r['enabled_delta']:>8.1%}")
        if r["est_disabled_overhead"] >= MAX_OVERHEAD:
            failures.append(r["name"])

    out = Path(args.json_out) if args.json_out else (
        None if args.smoke else RESULTS)
    if out is not None:
        from repro.telemetry import write_result_json

        write_result_json(out, "trace_overhead", report)
        print(f"wrote {out}")

    if failures:
        print(f"FAIL: disabled-tracing overhead >= {MAX_OVERHEAD:.0%} for: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"OK: estimated disabled-tracing overhead < {MAX_OVERHEAD:.0%} "
          f"on every workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
