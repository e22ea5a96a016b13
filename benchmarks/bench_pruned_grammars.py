"""Pruned grammars' wall-time benefit, gated as a same-run ratio.

Compiles the Table-1 fast subset on both targets with the shipped
``targets/data/pruned_*.json`` tables, and again with the tables masked
(``REPRO_PRUNED_GRAMMAR_DIR`` pointed at an empty directory, so every
placeholder enumerates its whole realization list).  Both sides run in
this one process, alternating which goes first, each compile against a
fresh in-memory verdict cache, after one untimed round of each that
fills the process-wide banks and plans.  A round's ratio is the masked
side's wall time over the shipped side's.

Pruning is a pure enumeration cut: a pruned placeholder offers only the
realization full enumeration would have verified first, so the query
counts and selections do not change.  What it saves is wall time, so
that is what the gate reads: the selections must be identical on both
sides, and the median ratio over :data:`ROUNDS` rounds must reach
:data:`GATE_RATIO`.  Being a ratio of two runs on one machine, the gate
does not depend on the runner's speed.  Neon's shipped table is empty
(its grammar yields one realization per placeholder), so its compiles
check the fallback path and time the same on both sides.

A full run writes ``benchmarks/results/pruned_grammars.json``;
``--smoke`` (CI's ``prune-smoke`` job) runs the same gate and writes
nothing.
"""

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import repro.workloads  # noqa: F401 - populate the registry
from repro.pipeline import compile_pipeline
from repro.synthesis.engine import OracleCache
from repro.targets import pruning
from repro.workloads.base import get

RESULTS = Path(__file__).parent / "results" / "pruned_grammars.json"

#: the Table 1 fast subset (matches bench_table1_compilation.FAST_NAMES);
#: mul and dilate3x3 alone gain too little to show the tables' effect
FAST_NAMES = ["mul", "add", "dilate3x3", "l2norm", "gaussian3x3"]

TARGETS = ("hvx", "neon")

#: timed rounds; each yields one masked/shipped ratio
ROUNDS = 10

#: minimum median masked/shipped wall-time ratio.  Seven runs on a 2-core
#: Intel Xeon host (Python 3.11) read medians of 2.15-2.34x and lower
#: quartiles of 1.90x or more; the bound leaves a margin below that for
#: slower, noisier runners.
GATE_RATIO = 1.5


def _selection(compiled) -> list:
    """The selected machine programs, in stage order, as stable strings."""
    return [repr(ce.program)
            for cs in compiled.stages for ce in cs.exprs]


def run_side(masked: bool) -> dict:
    """Compile the subset once; ``masked`` hides the shipped tables."""
    with tempfile.TemporaryDirectory() as empty:
        if masked:
            os.environ[pruning.ENV_DIR] = empty
        else:
            os.environ.pop(pruning.ENV_DIR, None)
        pruning.invalidate()
        try:
            selections, queries, hits = {}, 0, 0
            start = time.perf_counter()
            for target in TARGETS:
                for name in FAST_NAMES:
                    compiled = compile_pipeline(
                        get(name).build(), backend="rake", target=target,
                        cache=OracleCache())
                    selections[f"{target}/{name}"] = _selection(compiled)
                    queries += compiled.stats.total("queries")
                    hits += compiled.stats.total("pruned_grammar_hits")
            wall_s = time.perf_counter() - start
        finally:
            os.environ.pop(pruning.ENV_DIR, None)
            pruning.invalidate()
    return {"wall_s": wall_s, "queries": queries,
            "pruned_grammar_hits": hits, "selections": selections}


def run_rounds() -> dict:
    # One untimed round of each side fills the process-wide banks and plans.
    warm = {masked: run_side(masked) for masked in (True, False)}
    reference = warm[False]["selections"]
    identical = warm[True]["selections"] == reference
    masked_s, shipped_s, ratios = [], [], []
    for i in range(ROUNDS):
        order = (True, False) if i % 2 == 0 else (False, True)
        sides = {masked: run_side(masked) for masked in order}
        masked_s.append(sides[True]["wall_s"])
        shipped_s.append(sides[False]["wall_s"])
        ratios.append(masked_s[-1] / shipped_s[-1])
        for side in sides.values():
            identical &= side["selections"] == reference
        print(f"round {i + 1:>2}: masked {masked_s[-1]:.3f}s, "
              f"shipped {shipped_s[-1]:.3f}s, ratio {ratios[-1]:.2f}x")
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return {
        "workloads": FAST_NAMES,
        "targets": list(TARGETS),
        "rounds": ROUNDS,
        "masked_s": [round(t, 4) for t in masked_s],
        "shipped_s": [round(t, 4) for t in shipped_s],
        "ratios": [round(r, 3) for r in ratios],
        "median_ratio": round(median, 3),
        "ratio_quartiles": [round(q1, 3), round(q3, 3)],
        "queries": {"masked": warm[True]["queries"],
                    "shipped": warm[False]["queries"]},
        "pruned_grammar_hits": warm[False]["pruned_grammar_hits"],
        "identical": identical,
        "gate_ratio": GATE_RATIO,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="wall-time gain of the shipped pruned grammars "
                    "(masked/shipped ratio, identical selections)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: the same gate, no results file")
    args = parser.parse_args(argv)

    report = run_rounds()
    ok = report["identical"] and report["median_ratio"] >= GATE_RATIO
    report["ok"] = ok
    print(f"median masked/shipped ratio {report['median_ratio']:.2f}x "
          f"(quartiles {report['ratio_quartiles'][0]:.2f}-"
          f"{report['ratio_quartiles'][1]:.2f}x, gate >= {GATE_RATIO}x); "
          f"queries masked {report['queries']['masked']}, shipped "
          f"{report['queries']['shipped']}; "
          f"{report['pruned_grammar_hits']} pruned-grammar hits")
    if not report["identical"]:
        print("  SELECTION MISMATCH between masked and shipped tables",
              file=sys.stderr)
    if not args.smoke:
        from repro.telemetry import write_result_json

        write_result_json(RESULTS, "pruned_grammars", report)
        print(f"wrote {RESULTS}")
    print("prune smoke: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
