"""Oracle throughput: the batched NumPy engine vs the scalar interpreters.

Measures full-check throughput (queries/sec and
valuation-environments/sec) on a fixed set of spec/candidate pairs — both
equivalences, which scan the whole bank, and refutations, which the
scalar loop stops at the first mismatching environment — for the
oracle's ``_check_full``, which runs one plan over the whole bank, and
for :class:`ScalarCheck`, the reference this script times it against
(``denote`` per environment of the same bank).  Banks, plans and each
spec's denotation are built before timing, as a compile keeps them; the
evaluator's kept node values are dropped before every timed batched
check, so each one evaluates every node of its candidate's plan, as the
first check of a candidate in a compile does.
Results land in ``benchmarks/results/oracle_throughput.json``.

``--smoke`` instead compiles a couple of fast workloads end to end and
asserts (via the oracle's ``batched_evals``/``fallback_evals`` counters)
that more than 90% of full checks ran on plans with no fallback step;
CI runs this to catch regressions that silently fall back to the scalar
interpreters.  It then times steady-state ``_check_lane0`` over the same
pairs against :class:`ScalarCheck`'s lane-0 check, in one process, and
fails unless the verdicts agree and the oracle's check is at least 3x
faster — a ratio of two runs on one machine, so runner speed cancels
out.  The six pairs share one footprint, so they share one bank, and the
batched checks after the first read their node values from the
evaluator's memo of that bank: the ratio measures the memo as much as
the plans (11-19x on a 2-core host, against 6-6.4x when every check
recomputed its plan over a one-row bank).
Next, it counts the nodes one cold ``gaussian5x5``/hvx compile
evaluates against the nodes of the plans it denotes, wrapping each
compiled node's ``fn`` itself, and fails unless at most a third are
evaluated: node values are kept per bank and carried to a bank that
covers it, so a full check after a lane-0 check, sibling candidates
sharing subtrees and a lifted parent spec's candidates reuse them (about
29%, since the cost bound rejects before their checks the sketches whose
checks mostly read kept values; 100% when every denotation ran its whole
plan).  The counts do not depend on the machine.
Then it records every ``Oracle.query_key`` call of one
``gaussian5x5``/hvx and one ``conv3x3a16``/neon compile (475 keys) and
replays them twice: through one oracle whose rendering memo is shared by
every key, as in a compile, and with that memo emptied before each key.
It fails unless both passes give the compile's keys and the shared pass
is at least 4x faster (a same-run ratio again).
Last, it collects every bank ``valuation.environment_bank`` returns in one
cold ``gaussian7x7``/hvx compile and fails unless their buffer matrices
hold at most a quarter of the bytes of the two-copy int64 layout (one
int64 window per environment plus their int64 stack, 2 x envs x span x 8
bytes per buffer: 31.35 MiB for these 97 banks), or if any bank built
its environments, which only fallback steps and ``Oracle.bank_for`` ask
for and this compile does not (counts again, not times).
"""

import argparse
import sys
import time
from pathlib import Path

import repro.workloads  # noqa: F401 - populate the registry
from repro.errors import EvaluationError
from repro.eval import BatchedEvaluator
from repro.hvx import isa as H
from repro.ir import expr as E
from repro.pipeline import compile_pipeline
from repro.synthesis import valuation
from repro.synthesis.oracle import LAYOUT_INORDER, Oracle, denote, result_bits
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
#: the cold compile whose node evaluations the smoke counts, and the
#: largest share of its denoted plans' nodes it may evaluate
NODE_COUNT_PAIR = ("gaussian5x5", "hvx")
MAX_EVALUATED_FRACTION = 1 / 3
#: the cold compile whose banks the smoke weighs, and the largest share of
#: the two-copy int64 layout their buffer matrices may hold
BANK_BYTES_PAIR = ("gaussian7x7", "hvx")
MAX_BANK_BYTES_FRACTION = 1 / 4


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


class ScalarCheck:
    """The scalar full and lane-0 checks, the timing reference:
    ``denote`` per environment of the oracle's bank for the spec, with
    the spec's lanes kept per environment."""

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self._spec_lanes = {}

    def spec_lanes(self, spec, index: int, env) -> tuple:
        key = (spec, index)
        if key not in self._spec_lanes:
            self._spec_lanes[key] = denote(spec, env)
        return self._spec_lanes[key]

    def full(self, spec, cand, layout: str) -> bool:
        """One pass over the bank, refuted at the first mismatch."""
        if result_bits(spec) != result_bits(cand):
            return False
        for index, env in enumerate(self.oracle.bank_for(spec)):
            try:
                got = denote(cand, env, layout)
            except EvaluationError:
                return False
            if got != self.spec_lanes(spec, index, env):
                return False
        return True

    def lane0(self, spec, cand, layout: str) -> bool:
        """Lane 0 of environment 0."""
        if result_bits(spec) != result_bits(cand):
            return False
        env = self.oracle.bank_for(spec)[0]
        try:
            got = denote(cand, env, layout)
        except EvaluationError:
            return False
        return bool(got) and got[0] == self.spec_lanes(spec, 0, env)[0]


def _checks(mode: str) -> tuple:
    """``(oracle, full check, lane-0 check)`` of one fresh oracle, run
    through its plans (``"batched"``) or through :class:`ScalarCheck`
    (``"scalar"``)."""
    oracle = Oracle()
    if mode == "scalar":
        scalar = ScalarCheck(oracle)
        return oracle, scalar.full, scalar.lane0
    return oracle, oracle._check_full, oracle._check_lane0


def _unmemoized(oracle: Oracle, check):
    """``check`` with the evaluator's kept node values dropped first, so
    it evaluates every node of the candidate's plan."""
    ev = oracle._evaluator()

    def run(spec, cand, layout):
        ev._values.clear()
        return check(spec, cand, layout)

    return run


def _throughput(mode: str, repeats: int) -> dict:
    """Full-check throughput with one persistent oracle, each batched
    check evaluating its whole plan."""
    oracle, check, _lane0 = _checks(mode)
    if mode == "batched":
        check = _unmemoized(oracle, check)
    pairs = _pairs()
    verdicts = {}
    # Warm-up: build banks and spec denotations, compile plans.
    for name, spec, cand in pairs:
        verdicts[name] = check(spec, cand, LAYOUT_INORDER)
    n_envs = len(oracle.bank_for(pairs[0][1]))
    start = time.perf_counter()
    for _ in range(repeats):
        for _name, spec, cand in pairs:
            check(spec, cand, LAYOUT_INORDER)
    elapsed = time.perf_counter() - start
    queries = repeats * len(pairs)
    return {
        "mode": mode,
        "queries": queries,
        "envs_per_query": n_envs,
        "time_s": elapsed,
        "queries_per_s": queries / elapsed if elapsed else float("inf"),
        "envs_per_s": queries * n_envs / elapsed if elapsed else float("inf"),
        "verdicts": verdicts,
    }


def _lane0_timing(mode: str, repeats: int, trials: int = 5) -> dict:
    """Steady-state lane-0 check time per check (best of ``trials``)."""
    _oracle, _full, check = _checks(mode)
    pairs = _pairs()
    verdicts = {
        name: check(spec, cand, LAYOUT_INORDER)
        for name, spec, cand in pairs
    }
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(repeats):
            for _name, spec, cand in pairs:
                check(spec, cand, LAYOUT_INORDER)
        best = min(best, time.perf_counter() - start)
    return {"us_per_check": best / (repeats * len(pairs)) * 1e6,
            "verdicts": verdicts}


def run_lane0_ratio(repeats: int = 100) -> bool:
    """Same-run gate: batched lane-0 checks must agree with the scalar
    ones and be faster."""
    scalar = _lane0_timing("scalar", repeats=repeats)
    batched = _lane0_timing("batched", repeats=repeats)
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


def _plan_size(root) -> int:
    """Distinct nodes of the plan DAG under ``root``."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
    return len(seen)


def _count_node_evaluations(name: str, target: str) -> tuple:
    """``(nodes evaluated, nodes of the plans denoted)`` in one cold
    compile: every compiled node's ``fn`` is wrapped to count its calls,
    and every ``denote_bank`` call adds its plan's node count."""
    counts = {"evaluated": 0, "denoted": 0}
    real_compile = BatchedEvaluator._compile
    real_denote = BatchedEvaluator.denote_bank

    def compile_counted(self, expr):
        node = real_compile(self, expr)
        fn = node.fn

        def counted(bank, args):
            counts["evaluated"] += 1
            return fn(bank, args)

        node.fn = counted
        return node

    def denote_counted(self, plan, bank, layout=LAYOUT_INORDER):
        counts["denoted"] += _plan_size(plan.root)
        return real_denote(self, plan, bank, layout)

    BatchedEvaluator._compile = compile_counted
    BatchedEvaluator.denote_bank = denote_counted
    try:
        compile_pipeline(get(name).build(), backend="rake", target=target)
    finally:
        BatchedEvaluator._compile = real_compile
        BatchedEvaluator.denote_bank = real_denote
    return counts["evaluated"], counts["denoted"]


def run_node_evaluation_count() -> bool:
    """Count gate: a cold compile evaluates each node once per bank, so
    it evaluates far fewer nodes than its denoted plans hold."""
    evaluated, denoted = _count_node_evaluations(*NODE_COUNT_PAIR)
    frac = evaluated / denoted if denoted else 1.0
    print(f"node evaluations: {'/'.join(NODE_COUNT_PAIR)} evaluated "
          f"{evaluated} of {denoted} denoted plan nodes ({frac:.0%})")
    if not denoted or frac > MAX_EVALUATED_FRACTION:
        print(f"FAIL: more than {MAX_EVALUATED_FRACTION:.0%} of the denoted "
              f"plan nodes evaluated", file=sys.stderr)
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


def _collect_banks(name: str, target: str) -> list:
    """Every bank ``valuation.environment_bank`` returns in one cold
    compile."""
    banks = []
    real = valuation.environment_bank

    def collecting(*args, **kwargs):
        bank = real(*args, **kwargs)
        banks.append(bank)
        return bank

    valuation.environment_bank = collecting
    try:
        compile_pipeline(get(name).build(), backend="rake", target=target)
    finally:
        valuation.environment_bank = real
    return banks


def run_bank_bytes() -> bool:
    """Count gate: a cold compile's banks hold each buffer once, at its
    element's width, and build no environments."""
    banks = _collect_banks(*BANK_BYTES_PAIR)
    matrices = [data for bank in banks
                for data, _elem, _origin in bank.buffers.values()]
    held = sum(data.nbytes for data in matrices)
    two_copy = sum(2 * data.size * 8 for data in matrices)
    built = sum(bank._envs is not None for bank in banks)
    mib = 1 << 20
    print(f"bank bytes: {'/'.join(BANK_BYTES_PAIR)} {len(banks)} banks hold "
          f"{held / mib:.2f} MiB, {held / two_copy:.1%} of the two-copy "
          f"int64 layout's {two_copy / mib:.2f} MiB; {built} built their "
          f"environments")
    if not matrices or held > MAX_BANK_BYTES_FRACTION * two_copy:
        print(f"FAIL: bank matrices above {MAX_BANK_BYTES_FRACTION:.0%} of "
              f"the two-copy int64 layout", file=sys.stderr)
        return False
    if built:
        print("FAIL: a bank built its environments", file=sys.stderr)
        return False
    return True


def run_throughput(repeats: int) -> dict:
    scalar = _throughput("scalar", repeats=repeats)
    batched = _throughput("batched", repeats=repeats)
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
    if not (run_lane0_ratio() and run_node_evaluation_count()
            and run_query_key_ratio() and run_bank_bytes()):
        return 1
    print("smoke OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="batched oracle vs scalar check throughput")
    parser.add_argument("--repeats", type=int, default=200,
                        help="timed repetitions of the pair set")
    parser.add_argument("--smoke", action="store_true",
                        help="compile a fast subset and assert >90%% of "
                             "full checks ran batched, then that batched "
                             "lane-0 checks are >=3x the scalar ones, that "
                             "a cold gaussian5x5/hvx compile evaluates at "
                             "most a third of its denoted plan nodes, "
                             "that shared-memo query keys are >=4x "
                             "fresh-memo ones, and that a cold "
                             "gaussian7x7/hvx compile's banks hold at most "
                             "a quarter of the two-copy int64 layout and "
                             "build no environments")
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
