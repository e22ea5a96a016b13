"""Cross-ISA differential benchmark: HVX vs Neon on the Table 1 suite.

Compiles every registered workload independently for both targets,
cross-checks the selected programs lane-for-lane on shared valuation
banks (see ``repro.targets.differential``), and records per-target
compile time and simulated cycles in
``benchmarks/results/cross_isa.json``.  Any lane mismatch fails the run.

``--smoke`` restricts the sweep to a fast subset and additionally
asserts the Neon compiles were fully batched (every full-bank oracle
check went through ``lower_neon``; zero scalar-interpreter fallbacks);
CI runs this to catch both cross-ISA miscompiles and silent batched-eval
regressions on the non-default target.
"""

import argparse
import sys
import time
from pathlib import Path

import repro.workloads  # noqa: F401 - populate the registry
from repro.pipeline import compile_pipeline
from repro.sim import measure
from repro.synthesis.stats import SynthesisStats
from repro.targets.differential import compare_workload
from repro.workloads.base import get, names

RESULTS = Path(__file__).parent / "results" / "cross_isa.json"

SMOKE_WORKLOADS = ["mul", "mean", "box_blur"]
TARGETS = ("hvx", "neon")


def _cycles(name: str, target: str) -> int:
    wl = get(name)
    compiled = compile_pipeline(wl.build(), backend="rake", target=target)
    return measure(compiled, wl.width, wl.height).total


def run_sweep(workload_names) -> dict:
    """Differential-compare each workload; collect timing and mismatches."""
    rows = []
    ok = True
    for name in workload_names:
        start = time.perf_counter()
        report = compare_workload(name, targets=TARGETS, backend="rake")
        elapsed = time.perf_counter() - start
        row = {
            "workload": name,
            "targets": list(report.targets),
            "expressions": len(report.comparisons),
            "mismatches": len(report.failures),
            "compare_s": round(elapsed, 3),
            "cycles": {t: measure(c, get(name).width, get(name).height).total
                       for t, c in report.compiled.items()},
        }
        rows.append(row)
        print(f"{report.summary()}  "
              f"(hvx {row['cycles']['hvx']} cyc, "
              f"neon {row['cycles']['neon']} cyc, {elapsed:.1f}s)")
        if not report.ok:
            ok = False
            for c in report.failures:
                print(f"  MISMATCH {c.stage}[{c.index}]: {c.detail}",
                      file=sys.stderr)
    return {"ok": ok, "rows": rows}


def run_smoke() -> int:
    """Fast subset: lane-exact parity plus the Neon batched-eval gate."""
    ok = True
    for name in SMOKE_WORKLOADS:
        report = compare_workload(name, targets=TARGETS, backend="rake")
        print(report.summary())
        if not report.ok:
            ok = False
            for c in report.failures:
                print(f"  MISMATCH {c.stage}[{c.index}]: {c.detail}",
                      file=sys.stderr)
        stats = SynthesisStats()
        compiled = compile_pipeline(get(name).build(), backend="rake",
                                    target="neon", stats=stats)
        batched = stats.total("batched_evals")
        fallback = stats.total("fallback_evals")
        print(f"{name:>12} [neon]: batched={batched} fallback={fallback}")
        if compiled.degraded:
            print(f"FAIL: neon compile of {name} degraded", file=sys.stderr)
            ok = False
        if batched == 0 or fallback != 0:
            print(f"FAIL: neon compile of {name} was not fully batched",
                  file=sys.stderr)
            ok = False
    if not ok:
        return 1
    print("smoke OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cross-ISA differential sweep (HVX vs Neon)")
    parser.add_argument("--smoke", action="store_true",
                        help="fast subset with the Neon batched-eval gate")
    parser.add_argument("--workloads", nargs="*", metavar="NAME",
                        help="restrict the full sweep to these workloads")
    parser.add_argument("--json", default=str(RESULTS), metavar="PATH",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    if args.smoke:
        return run_smoke()

    selected = args.workloads or names()
    report = run_sweep(selected)
    from repro.telemetry import write_result_json

    write_result_json(Path(args.json), "cross_isa", report)
    print(f"wrote {args.json}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
