"""Oracle query reduction from observational-equivalence dedup.

Compiles each workload per target three times:

* **baseline** — fingerprints off, pruned-grammar tables masked (the
  ``REPRO_PRUNED_GRAMMAR_DIR`` override points at an empty directory),
  so every candidate pays a full oracle query;
* **cold** — fingerprints on and the shipped pruned tables loaded,
  against a fresh verdict cache;
* **warm** — same configuration against the now-populated cache, to
  confirm fingerprint-resolved verdicts were recorded (warm runs must
  be all cache hits and never touch the fingerprint index).

Every run's selected programs must be identical — equivalence-class
dedup and offline pruning are pure query eliminations, never selection
changes.  Results land in ``benchmarks/results/query_reduction.json``;
when the run covers the Table 1 fast subset, the aggregate cold query
reduction is gated at >= 30% per target.

``--smoke`` restricts to two workloads and gates on queries-saved > 0
with identical selections; CI runs this as the ``prune-smoke`` job.
"""

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

import repro.workloads  # noqa: F401 - populate the registry
from repro.pipeline import compile_pipeline
from repro.synthesis.engine import OracleCache
from repro.targets import pruning
from repro.telemetry import build_record, emit, write_result_json
from repro.workloads.base import all_workloads, get

RESULTS = Path(__file__).parent / "results" / "query_reduction.json"

ALL_NAMES = [wl.name for wl in all_workloads()]

#: the Table 1 fast subset (matches bench_table1_compilation.FAST_NAMES);
#: the >= 30% aggregate reduction gate applies when all five are present
FAST_NAMES = ["mul", "add", "dilate3x3", "l2norm", "gaussian3x3"]

SMOKE_NAMES = ["mul", "dilate3x3"]

TARGETS = ("hvx", "neon")

#: minimum aggregate cold query reduction over the fast subset, per target
GATE_REDUCTION = 0.30


def _selection(compiled) -> list:
    """The selected machine programs, in stage order, as stable strings."""
    return [repr(ce.program)
            for cs in compiled.stages for ce in cs.exprs]


def _timed_compile(name: str, target: str, *, fingerprints: bool,
                   cache: OracleCache):
    wl = get(name)
    start = time.perf_counter()
    compiled = compile_pipeline(wl.build(), backend="rake", target=target,
                                fingerprints=fingerprints, cache=cache)
    return time.perf_counter() - start, compiled


def run_workload(name: str, target: str, telemetry=None) -> dict:
    """Baseline / cold / warm compiles of one workload on one target."""
    # Baseline: no fingerprints and no pruned tables — mask the shipped
    # data files behind an empty override directory.
    with tempfile.TemporaryDirectory() as empty:
        os.environ[pruning.ENV_DIR] = empty
        pruning.invalidate()
        try:
            base_t, base = _timed_compile(name, target, fingerprints=False,
                                          cache=OracleCache())
        finally:
            del os.environ[pruning.ENV_DIR]
            pruning.invalidate()

    cache = OracleCache()
    cold_t, cold = _timed_compile(name, target, fingerprints=True,
                                  cache=cache)
    warm_t, warm = _timed_compile(name, target, fingerprints=True,
                                  cache=cache)
    if telemetry is not None:
        for phase, wall, compiled, fp in (
            ("baseline", base_t, base, False),
            ("cold", cold_t, cold, True),
            ("warm", warm_t, warm, True),
        ):
            emit(telemetry, build_record(
                source="bench:query_reduction", workload=name, target=target,
                wall_s=wall, stats=compiled.stats,
                knobs={"fingerprints": fp},
                extra={"phase": phase},
            ))

    stats = cold.stats
    baseline_queries = base.stats.total("queries")
    row = {
        "workload": name,
        "target": target,
        "baseline_queries": baseline_queries,
        "queries": stats.total("queries"),
        "queries_saved": stats.total("queries_saved"),
        "fingerprint_hits": stats.total("fingerprint_hits"),
        "classes_formed": stats.total("classes_formed"),
        "class_splits": stats.total("class_splits"),
        "pruned_grammar_hits": stats.total("pruned_grammar_hits"),
        "reduction": round(
            1.0 - stats.total("queries") / baseline_queries, 4
        ) if baseline_queries else 0.0,
        "baseline_s": round(base_t, 3),
        "cold_s": round(cold_t, 3),
        "warm_s": round(warm_t, 3),
        "warm_misses": warm.stats.total("cache_misses"),
        "identical": _selection(base) == _selection(cold) == _selection(warm),
    }
    return row


def run_sweep(names, targets=TARGETS, telemetry=None) -> dict:
    rows = []
    ok = True
    for target in targets:
        for name in names:
            row = run_workload(name, target, telemetry=telemetry)
            rows.append(row)
            print(f"[{target}] {name:>16}: {row['baseline_queries']:>5} -> "
                  f"{row['queries']:>5} queries "
                  f"({row['reduction']:>6.1%} fewer, "
                  f"{row['queries_saved']} saved, "
                  f"{row['classes_formed']} classes, "
                  f"{row['class_splits']} splits, "
                  f"{row['pruned_grammar_hits']} pruned-grammar hits)"
                  + ("" if row["identical"] else "  SELECTION MISMATCH"))
            if not row["identical"]:
                ok = False
            if row["warm_misses"]:
                ok = False
                print(f"  WARM RUN MISSED CACHE: "
                      f"{row['warm_misses']} misses", file=sys.stderr)

    aggregates = {}
    gate = set(FAST_NAMES) <= set(names)
    for target in targets:
        subset = [r for r in rows if r["target"] == target
                  and (not gate or r["workload"] in FAST_NAMES)]
        base = sum(r["baseline_queries"] for r in subset)
        pruned = sum(r["queries"] for r in subset)
        reduction = 1.0 - pruned / base if base else 0.0
        aggregates[target] = {
            "baseline_queries": base,
            "queries": pruned,
            "reduction": round(reduction, 4),
        }
        print(f"[{target}] aggregate: {base} -> {pruned} queries "
              f"({reduction:.1%} fewer)")
        if gate and reduction < GATE_REDUCTION:
            ok = False
            print(f"  AGGREGATE REDUCTION BELOW GATE "
                  f"({reduction:.1%} < {GATE_REDUCTION:.0%})",
                  file=sys.stderr)
    return {"ok": ok, "rows": rows, "aggregates": aggregates,
            "gated": gate}


def run_smoke() -> int:
    """Fast subset for CI: dedup must save queries, selections must match."""
    report = run_sweep(SMOKE_NAMES)
    ok = report["ok"]
    for row in report["rows"]:
        if row["queries_saved"] <= 0:
            ok = False
            print(f"  NO QUERIES SAVED: {row['target']}/{row['workload']}",
                  file=sys.stderr)
    print("prune smoke: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="oracle query reduction from equivalence-class dedup "
                    "and precomputed pruned grammars")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help=f"workload names (default: {' '.join(FAST_NAMES)})")
    parser.add_argument("--all", action="store_true",
                        help="run the full workload suite")
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI subset; nonzero exit unless dedup "
                             "saves queries with identical selections")
    parser.add_argument("--no-save", action="store_true",
                        help="skip writing the results JSON")
    parser.add_argument("--telemetry-dir", default=None, metavar="DIR",
                        help="append one telemetry record per timed compile "
                             "to this store (analyze with `repro perf`)")
    args = parser.parse_args(argv)

    if args.smoke:
        return run_smoke()

    telemetry = None
    if args.telemetry_dir:
        from repro.telemetry import TelemetryStore

        telemetry = TelemetryStore(args.telemetry_dir)
    names = args.workloads or (ALL_NAMES if args.all else FAST_NAMES)
    report = run_sweep(names, telemetry=telemetry)
    if telemetry is not None:
        telemetry.flush()
    if not args.no_save:
        write_result_json(RESULTS, "query_reduction", report)
        print(f"wrote {RESULTS}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
