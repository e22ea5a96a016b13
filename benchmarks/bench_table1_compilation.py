"""E2 — Table 1: per-benchmark compilation statistics.

Rake's synthesis cost per benchmark: optimized expression counts, query
counts per stage and time per stage.  The paper's headline distribution —
swizzling dominates, lifting is cheap — is asserted on the totals.

Run directly (``python benchmarks/bench_table1_compilation.py``) for the
engine's cold/warm comparison: each workload is compiled twice against the
same on-disk verdict store, with a **fresh** in-process cache for the warm
run, so the reported delta measures disk persistence, not in-memory
memoization.
"""

import argparse
import sys
import tempfile
import time

import pytest

from repro.pipeline import compile_pipeline
from repro.synthesis.engine import OracleCache
from repro.workloads.base import all_workloads, get

ALL_NAMES = [wl.name for wl in all_workloads()]

#: default subset for the standalone cold/warm run (full suite with --all)
FAST_NAMES = ["mul", "add", "dilate3x3", "l2norm", "gaussian3x3"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_table1_row(name, benchmark, compile_cache, table1_rows):
    compiled = compile_cache(name, "rake")

    # Benchmark a fresh compile of the cheapest stage only when asked for
    # timing; the cached pipeline provides the statistics.
    def summarize():
        return compiled.stats.summary()

    summary = benchmark(summarize)
    table1_rows.append({
        "name": name,
        "exprs": compiled.stats.expressions,
        **{k: summary[k] for k in (
            "lifting_queries", "sketching_queries", "swizzling_queries",
            "lifting_time_s", "sketching_time_s", "swizzling_time_s",
        )},
    })
    assert compiled.stats.total("queries") > 0


def test_table1_distribution(table1_rows, benchmark):
    """Paper: lifting ~9%, sketching ~21%, swizzling ~70% of synthesis time.

    The exact split depends on the oracle's speed; the asserted shape is
    the ordering — swizzling is the most expensive stage overall and
    lifting is not dominant.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(table1_rows) == len(ALL_NAMES)
    lift = sum(r["lifting_time_s"] for r in table1_rows)
    sketch = sum(r["sketching_time_s"] for r in table1_rows)
    swiz = sum(r["swizzling_time_s"] for r in table1_rows)
    total = lift + sketch + swiz
    assert total > 0
    assert swiz == max(lift, sketch, swiz), (
        f"swizzling should dominate: {lift:.1f}/{sketch:.1f}/{swiz:.1f}"
    )
    assert lift / total < 0.5


# ---------------------------------------------------------------------------
# Standalone cold/warm engine benchmark
# ---------------------------------------------------------------------------


def _timed_compile(name: str, cache: OracleCache):
    wl = get(name)
    start = time.perf_counter()
    compiled = compile_pipeline(wl.build(), backend="rake", cache=cache)
    return time.perf_counter() - start, compiled.stats


def _emit_telemetry(store, name: str, phase: str, wall_s: float,
                    stats) -> None:
    """One corpus record per timed compile (no-op without a store)."""
    if store is None:
        return
    from repro.telemetry import build_record, emit

    emit(store, build_record(
        source="bench:table1", workload=name, target="hvx",
        wall_s=wall_s, stats=stats,
        knobs={"cache": True},
        extra={"phase": phase},
    ))


def run_cold_warm(names, cache_dir: str, telemetry=None) -> dict:
    """Compile every workload twice against one disk store; return timings."""
    rows = []
    for name in names:
        cold_t, cold_stats = _timed_compile(
            name, OracleCache.with_disk(cache_dir))
        # A fresh in-process cache: warm-run hits come from the disk store.
        warm_t, warm_stats = _timed_compile(
            name, OracleCache.with_disk(cache_dir))
        _emit_telemetry(telemetry, name, "cold", cold_t, cold_stats)
        _emit_telemetry(telemetry, name, "warm", warm_t, warm_stats)
        rows.append({
            "name": name,
            "cold_s": cold_t,
            "warm_s": warm_t,
            "speedup": cold_t / warm_t if warm_t > 0 else float("inf"),
            "queries": cold_stats.total("queries"),
            "warm_hits": warm_stats.total("cache_hits"),
            "warm_misses": warm_stats.total("cache_misses"),
        })
    total_cold = sum(r["cold_s"] for r in rows)
    total_warm = sum(r["warm_s"] for r in rows)
    return {
        "rows": rows,
        "total_cold_s": total_cold,
        "total_warm_s": total_warm,
        "speedup": total_cold / total_warm if total_warm > 0 else float("inf"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cold vs warm compilation with the persistent "
                    "oracle-verdict store")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help=f"workload names (default: {' '.join(FAST_NAMES)})")
    parser.add_argument("--all", action="store_true",
                        help="run the full 21-benchmark suite")
    parser.add_argument("--cache-dir", default=None,
                        help="verdict store directory (default: a fresh "
                             "temporary directory)")
    parser.add_argument("--telemetry-dir", default=None, metavar="DIR",
                        help="append one telemetry record per timed compile "
                             "to this store (analyze with `repro perf`)")
    args = parser.parse_args(argv)

    telemetry = None
    if args.telemetry_dir:
        from repro.telemetry import TelemetryStore

        telemetry = TelemetryStore(args.telemetry_dir)
    names = args.workloads or (ALL_NAMES if args.all else FAST_NAMES)
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = args.cache_dir or tmp
        report = run_cold_warm(names, cache_dir, telemetry=telemetry)
    if telemetry is not None:
        telemetry.flush()

    header = (f"{'Benchmark':>16} {'Queries':>8} {'Cold(s)':>8} "
              f"{'Warm(s)':>8} {'Speedup':>8} {'WarmHit%':>9}")
    print(header)
    print("-" * len(header))
    for r in report["rows"]:
        lookups = r["warm_hits"] + r["warm_misses"]
        hit_rate = r["warm_hits"] / lookups if lookups else 0.0
        print(f"{r['name']:>16} {r['queries']:>8} {r['cold_s']:>8.2f} "
              f"{r['warm_s']:>8.2f} {r['speedup']:>7.1f}x {hit_rate:>8.0%}")
    print("-" * len(header))
    print(f"{'total':>16} {'':>8} {report['total_cold_s']:>8.2f} "
          f"{report['total_warm_s']:>8.2f} {report['speedup']:>7.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
