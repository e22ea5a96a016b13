"""Oracle throughput: scalar interpreters vs the batched NumPy engine.

Measures steady-state ``_check_full`` throughput (queries/sec and
valuation-environments/sec) on a fixed set of spec/candidate pairs — both
equivalences, which scan the whole bank, and refutations, which the
scalar loop stops at the first mismatching environment — with the
batched engine on and off.  Results land in
``benchmarks/results/oracle_throughput.json``.

``--smoke`` instead compiles a couple of fast workloads end to end and
asserts (via the oracle's ``batched_evals``/``fallback_evals`` counters)
that the batched path handled more than 90% of full-bank evaluations;
CI runs this to catch regressions that silently fall back to the scalar
interpreters.  It then times steady-state ``_check_lane0`` over the same
pairs with the batched engine on and off, in one process, and fails
unless the verdicts agree and the batched check is at least 3x faster —
a ratio of two runs on one machine, so runner speed cancels out.
Last, it records every ``Oracle.query_key`` call of one
``gaussian5x5``/hvx and one ``conv3x3a16``/neon compile (619 keys) and
replays them twice: through one oracle whose rendering memo is shared by
every key, as in a compile, and with that memo emptied before each key.
It fails unless both passes give the compile's keys and the shared pass
is at least 4x faster (a same-run ratio again).
"""

import argparse
import sys
import time
from pathlib import Path

import repro.workloads  # noqa: F401 - populate the registry
from repro.hvx import isa as H
from repro.ir import expr as E
from repro.pipeline import compile_pipeline
from repro.synthesis.oracle import LAYOUT_INORDER, Oracle
from repro.synthesis.stats import SynthesisStats
from repro.types import U8, U16
from repro.workloads.base import get

RESULTS = Path(__file__).parent / "results" / "oracle_throughput.json"

SMOKE_WORKLOADS = ["mul", "dilate3x3"]
MIN_BATCHED_FRACTION = 0.9
MIN_LANE0_SPEEDUP = 3.0
#: (workload, target) compiles whose query-key sequence the smoke replays
KEY_REPLAY = [("gaussian5x5", "hvx"), ("conv3x3a16", "neon")]
MIN_SHARED_MEMO_SPEEDUP = 4.0


def _pairs():
    """Spec/candidate pairs spanning the oracle's main verdict shapes."""
    la, lb = E.Load("A", 0, 128, U8), E.Load("B", 0, 128, U8)
    ha, hb = H.HvxLoad("A", 0, 128, U8), H.HvxLoad("B", 0, 128, U8)
    add = E.Add(la, lb)
    mul_w = E.Mul(E.Cast(U16, la), E.Cast(U16, lb))
    return [
        ("add/vadd (eq)", add, H.HvxInstr("vadd", (ha, hb))),
        ("add/vsub (neq)", add, H.HvxInstr("vsub", (ha, hb))),
        ("absd/vabsdiff (eq)", E.Absd(la, lb), H.HvxInstr("vabsdiff", (ha, hb))),
        ("max/vmax (eq)", E.Max(la, lb), H.HvxInstr("vmax", (ha, hb))),
        ("max/vmin (neq)", E.Max(la, lb), H.HvxInstr("vmin", (ha, hb))),
        ("widening mul/vmpy (eq)", mul_w, H.HvxInstr("vmpy", (ha, hb))),
    ]


def _throughput(batch_eval: bool, repeats: int) -> dict:
    """Steady-state full-check throughput with one persistent oracle."""
    oracle = Oracle(batch_eval=batch_eval)
    pairs = _pairs()
    verdicts = {}
    # Warm-up: build banks and spec denotations, compile plans.
    for name, spec, cand in pairs:
        verdicts[name] = oracle._check_full(spec, cand, LAYOUT_INORDER)
    n_envs = len(oracle.bank_for(pairs[0][1]))
    start = time.perf_counter()
    for _ in range(repeats):
        for _name, spec, cand in pairs:
            oracle._check_full(spec, cand, LAYOUT_INORDER)
    elapsed = time.perf_counter() - start
    queries = repeats * len(pairs)
    return {
        "batch_eval": batch_eval,
        "queries": queries,
        "envs_per_query": n_envs,
        "time_s": elapsed,
        "queries_per_s": queries / elapsed if elapsed else float("inf"),
        "envs_per_s": queries * n_envs / elapsed if elapsed else float("inf"),
        "verdicts": verdicts,
    }


def _lane0_timing(batch_eval: bool, repeats: int, trials: int = 5) -> dict:
    """Steady-state ``_check_lane0`` time per check (best of ``trials``)."""
    oracle = Oracle(batch_eval=batch_eval)
    pairs = _pairs()
    verdicts = {
        name: oracle._check_lane0(spec, cand, LAYOUT_INORDER)
        for name, spec, cand in pairs
    }
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(repeats):
            for _name, spec, cand in pairs:
                oracle._check_lane0(spec, cand, LAYOUT_INORDER)
        best = min(best, time.perf_counter() - start)
    return {"us_per_check": best / (repeats * len(pairs)) * 1e6,
            "verdicts": verdicts}


def run_lane0_ratio(repeats: int = 100) -> bool:
    """Same-run gate: batched lane-0 checks must agree and be faster."""
    scalar = _lane0_timing(batch_eval=False, repeats=repeats)
    batched = _lane0_timing(batch_eval=True, repeats=repeats)
    ratio = scalar["us_per_check"] / batched["us_per_check"]
    print(f"lane-0 check: scalar {scalar['us_per_check']:.1f} us, "
          f"batched {batched['us_per_check']:.1f} us ({ratio:.1f}x)")
    if scalar["verdicts"] != batched["verdicts"]:
        print(f"FAIL: lane-0 verdicts differ: {scalar['verdicts']} vs "
              f"{batched['verdicts']}", file=sys.stderr)
        return False
    if ratio < MIN_LANE0_SPEEDUP:
        print(f"FAIL: batched lane-0 check under {MIN_LANE0_SPEEDUP:.0f}x "
              f"the scalar one", file=sys.stderr)
        return False
    return True


def _recorded_key_calls() -> list:
    """``(oracle, spec, candidate, layout, tag, key)`` of every
    ``Oracle.query_key`` call the :data:`KEY_REPLAY` compiles make."""
    calls = []
    real = Oracle.query_key

    def recording(self, spec, candidate, layout, tag="full"):
        key = real(self, spec, candidate, layout, tag)
        calls.append((self, spec, candidate, layout, tag, key))
        return key

    Oracle.query_key = recording
    try:
        for name, target in KEY_REPLAY:
            compile_pipeline(get(name).build(), backend="rake",
                             target=target)
    finally:
        Oracle.query_key = real
    return calls


def _replay_keys(calls: list, shared: bool, trials: int = 5) -> tuple:
    """``(best seconds, keys)`` for re-deriving every recorded key on
    fresh oracles; unless ``shared``, each key starts from an empty
    rendering memo."""
    best, keys = float("inf"), []
    for _ in range(trials):
        oracles = {}
        keys = []
        start = time.perf_counter()
        for compiled, spec, candidate, layout, tag, _key in calls:
            oracle = oracles.get(id(compiled))
            if oracle is None:
                oracle = oracles[id(compiled)] = Oracle(
                    seed=compiled.seed,
                    extra_random_rounds=compiled.extra_random_rounds)
            if not shared:
                oracle._canon_cache.clear()
            keys.append(oracle.query_key(spec, candidate, layout, tag))
        best = min(best, time.perf_counter() - start)
    return best, keys


def run_query_key_ratio() -> bool:
    """Same-run gate: a compile-long rendering memo must key as a fresh
    render does, and faster."""
    calls = _recorded_key_calls()
    want = [call[-1] for call in calls]
    shared_s, shared_keys = _replay_keys(calls, shared=True)
    fresh_s, fresh_keys = _replay_keys(calls, shared=False)
    ratio = fresh_s / shared_s
    print(f"query keys: {len(calls)} replayed, shared memo "
          f"{shared_s * 1e3:.1f} ms, fresh memo per key "
          f"{fresh_s * 1e3:.1f} ms ({ratio:.1f}x)")
    if shared_keys != want or fresh_keys != want:
        print("FAIL: replayed query keys differ from the compile's",
              file=sys.stderr)
        return False
    if ratio < MIN_SHARED_MEMO_SPEEDUP:
        print(f"FAIL: shared-memo keys under {MIN_SHARED_MEMO_SPEEDUP:.0f}x "
              f"the fresh-memo ones", file=sys.stderr)
        return False
    return True


def run_throughput(repeats: int) -> dict:
    scalar = _throughput(batch_eval=False, repeats=repeats)
    batched = _throughput(batch_eval=True, repeats=repeats)
    assert scalar["verdicts"] == batched["verdicts"], (
        "batched and scalar oracles disagree: "
        f"{scalar['verdicts']} vs {batched['verdicts']}"
    )
    return {
        "scalar": scalar,
        "batched": batched,
        "speedup": (
            batched["queries_per_s"] / scalar["queries_per_s"]
            if scalar["queries_per_s"] else float("inf")
        ),
    }


def run_smoke() -> int:
    """Compile a fast subset and assert the batched path dominated."""
    ok = True
    for name in SMOKE_WORKLOADS:
        stats = SynthesisStats()
        compile_pipeline(get(name).build(), backend="rake", stats=stats)
        batched = stats.total("batched_evals")
        fallback = stats.total("fallback_evals")
        total = batched + fallback
        frac = batched / total if total else 0.0
        print(f"{name:>12}: batched={batched} fallback={fallback} "
              f"({frac:.1%} batched)")
        if total == 0 or frac <= MIN_BATCHED_FRACTION:
            ok = False
    if not ok:
        print(f"FAIL: batched fraction at or below "
              f"{MIN_BATCHED_FRACTION:.0%}", file=sys.stderr)
        return 1
    if not run_lane0_ratio() or not run_query_key_ratio():
        return 1
    print("smoke OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="scalar vs batched oracle throughput")
    parser.add_argument("--repeats", type=int, default=200,
                        help="timed repetitions of the pair set")
    parser.add_argument("--smoke", action="store_true",
                        help="compile a fast subset and assert >90%% of "
                             "full checks ran batched, then that batched "
                             "lane-0 checks are >=3x the scalar ones and "
                             "shared-memo query keys >=4x fresh-memo ones")
    parser.add_argument("--json", default=str(RESULTS), metavar="PATH",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    if args.smoke:
        return run_smoke()

    report = run_throughput(args.repeats)
    for mode in ("scalar", "batched"):
        r = report[mode]
        print(f"{mode:>8}: {r['queries_per_s']:>10.0f} queries/s "
              f"{r['envs_per_s']:>12.0f} envs/s "
              f"({r['queries']} queries, {r['time_s']:.3f}s)")
    print(f" speedup: {report['speedup']:.1f}x")

    from repro.telemetry import write_result_json

    write_result_json(Path(args.json), "oracle_throughput", report)
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
