"""Differential tests for the batched NumPy denotation engine.

The contract under test: for every expression the plan compiler accepts,
``denote_bank`` over the whole valuation bank is *bit-identical* to the
scalar ``denote`` per environment — including which ``EvaluationError``
cases refute (raise) rather than crash — and an oracle with the batched
path enabled produces the same verdicts, the same refutation counts, the
same selected programs and the same verdict-cache keys as the scalar
oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.workloads  # noqa: F401 - populate the registry
from repro.errors import EvaluationError
from repro.eval import BatchedEvaluator
from repro.eval import plan as batch_plan
from repro.hvx import isa as H
from repro.ir import expr as E
from repro.synthesis import valuation
from repro.synthesis.oracle import (
    LAYOUT_DEINTERLEAVED,
    LAYOUT_INORDER,
    Oracle,
    denote,
)
from repro.types import I8, I16, I32, U8, U16, U32
from repro.uber import instructions as U

LANES = 32


def assert_bank_identical(bank_spec, expr, layout=LAYOUT_INORDER,
                          require_plan=True):
    """Batched evaluation of ``expr`` must match scalar denote env by env."""
    bank = valuation.environment_bank(bank_spec, seed=0)
    bank_data = valuation.bank_arrays(bank)
    assert bank_data is not None
    ev = BatchedEvaluator()
    plan = ev.plan_for(expr)
    if plan is None or not batch_plan.plan_usable(plan, bank_data):
        assert not require_plan, f"no batched plan for {expr!r}"
        return
    scalar_rows = []
    scalar_error = False
    for env in bank:
        try:
            scalar_rows.append(denote(expr, env, layout))
        except EvaluationError:
            scalar_error = True
            break
    if scalar_error:
        # Errors depend only on structure + buffer shapes, so the batched
        # evaluator must refuse the whole bank the same way.
        with pytest.raises(EvaluationError):
            ev.denote_bank(plan, bank_data, layout)
        return
    got = ev.denote_bank(plan, bank_data, layout)
    assert got.shape == (len(bank), len(scalar_rows[0]))
    for i, row in enumerate(scalar_rows):
        assert tuple(int(v) for v in got[i]) == row, f"env {i} differs"


# ---------------------------------------------------------------------------
# Halide IR
# ---------------------------------------------------------------------------

IR_ELEMS = (U8, I8, U16, I16, U32, I32)


@st.composite
def ir_exprs(draw):
    """Random same-type IR trees over two buffers and a free scalar."""
    elem = draw(st.sampled_from(IR_ELEMS))

    def leaf():
        kind = draw(st.sampled_from(["a", "b", "strided", "scalar"]))
        if kind == "scalar":
            return E.Broadcast(E.ScalarVar("s", elem), LANES)
        if kind == "strided":
            return E.Load("B", draw(st.integers(-4, 4)), LANES, elem,
                          draw(st.sampled_from([1, 2])))
        buffer = "A" if kind == "a" else "B"
        return E.Load(buffer, draw(st.integers(-4, 4)), LANES, elem)

    def build(depth):
        if depth == 0:
            return leaf()
        op = draw(st.sampled_from(
            ["add", "sub", "mul", "min", "max", "div", "mod", "shr",
             "select"]
        ))
        a, b = build(depth - 1), build(depth - 1)
        if op == "add":
            return E.Add(a, b)
        if op == "sub":
            return E.Sub(a, b)
        if op == "mul":
            return E.Mul(a, b)
        if op == "min":
            return E.Min(a, b)
        if op == "max":
            return E.Max(a, b)
        if op == "div":
            return E.Div(a, b)
        if op == "mod":
            return E.Mod(a, b)
        if op == "shr":
            return E.Shr(a, b)
        return E.Select(E.GT(a, b), a, b)

    expr = build(draw(st.integers(1, 3)))
    post = draw(st.sampled_from(["none", "cast", "sat_cast", "absd"]))
    if post == "cast":
        return E.Cast(draw(st.sampled_from(IR_ELEMS)), expr)
    if post == "sat_cast":
        return E.SaturatingCast(draw(st.sampled_from(IR_ELEMS)), expr)
    if post == "absd":
        return E.Absd(expr, build(1))
    return expr


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ir_exprs())
def test_ir_batched_matches_scalar(expr):
    assert_bank_identical(expr, expr)


# ---------------------------------------------------------------------------
# Uber instructions
# ---------------------------------------------------------------------------


@st.composite
def uber_exprs(draw):
    """Weighted sums, products and fixups over u8/i8 loads."""
    elem = draw(st.sampled_from([U8, I8]))
    out_elem = draw(st.sampled_from([I16, I32]))

    def load():
        return U.LoadData("A", draw(st.integers(-3, 3)), LANES, elem)

    shape = draw(st.sampled_from(["vsmpy", "vvmpy", "elemwise", "mux"]))
    if shape == "vsmpy":
        n = draw(st.integers(1, 3))
        reads = tuple(load() for _ in range(n))
        weights = tuple(draw(st.integers(-8, 8)) for _ in range(n))
        acc = U.VsMpyAdd(reads, weights, draw(st.booleans()), out_elem)
    elif shape == "vvmpy":
        n = draw(st.integers(1, 2))
        pairs = tuple((load(), load()) for _ in range(n))
        base = None
        if draw(st.booleans()):
            base = U.VsMpyAdd((load(),), (draw(st.integers(1, 4)),),
                              False, out_elem)
        acc = U.VvMpyAdd(pairs, base, draw(st.booleans()), out_elem)
    elif shape == "elemwise":
        op = draw(st.sampled_from(["absdiff", "min", "max", "avg"]))
        a, b = load(), load()
        if op == "absdiff":
            return U.AbsDiff(a, b)
        if op == "min":
            return U.Minimum(a, b)
        if op == "max":
            return U.Maximum(a, b)
        return U.Average(a, b, draw(st.booleans()))
    else:
        a, b = load(), load()
        return U.Mux(draw(st.sampled_from(["gt", "eq", "lt"])), a, b,
                     load(), load())
    post = draw(st.sampled_from(["none", "narrow", "shift"]))
    if post == "narrow":
        return U.Narrow(acc, draw(st.sampled_from([U8, I8, I16])),
                        shift=draw(st.integers(0, 6)),
                        round=draw(st.booleans()),
                        saturate=draw(st.booleans()))
    if post == "shift":
        return U.ShiftRight(acc, draw(st.integers(0, 7)),
                            round=draw(st.booleans()))
    return acc


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(uber_exprs())
def test_uber_batched_matches_scalar(expr):
    assert_bank_identical(expr, expr)


# ---------------------------------------------------------------------------
# HVX programs (checked against an IR footprint spec's bank)
# ---------------------------------------------------------------------------

#: spec whose valuation bank covers every window the HVX strategies read
FOOTPRINT = E.Add(E.Load("A", -8, 80, U8), E.Load("B", -8, 80, U8))
HVX_LANES = 64


@st.composite
def hvx_exprs(draw):
    """Templated HVX chains: elementwise, widening and narrowing forms."""

    def load(buffer="A"):
        return H.HvxLoad(buffer, draw(st.integers(-4, 4)), HVX_LANES, U8)

    shape = draw(st.sampled_from(
        ["elemwise", "widen_narrow", "splat", "shift", "permute"]
    ))
    if shape == "elemwise":
        op = draw(st.sampled_from(
            ["vadd", "vsub", "vadd_sat", "vavg", "vavg_rnd", "vnavg",
             "vabsdiff", "vmax", "vmin", "vand", "vor", "vxor"]
        ))
        return H.HvxInstr(op, (load("A"), load("B")))
    if shape == "widen_narrow":
        pair = H.HvxInstr("vmpy", (load("A"), load("B")))
        if draw(st.booleans()):
            return pair
        hi = H.HvxInstr("hi", (pair,))
        lo = H.HvxInstr("lo", (pair,))
        op = draw(st.sampled_from(
            ["vasrn", "vasrn_sat_u", "vasrn_rnd_sat_u", "vpacke"]
        ))
        if op == "vpacke":
            return H.HvxInstr("vpacke", (hi, lo))
        return H.HvxInstr(op, (hi, lo), (draw(st.integers(0, 7)),))
    if shape == "splat":
        splat = H.HvxSplat(E.ScalarVar("s", U8), U8, HVX_LANES)
        return H.HvxInstr(draw(st.sampled_from(["vadd", "vmin", "vmax"])),
                          (load("A"), splat))
    if shape == "shift":
        op = draw(st.sampled_from(["vasl", "vasr", "vasr_rnd", "vlsr"]))
        return H.HvxInstr(op, (load("A"),), (draw(st.integers(0, 7)),))
    a, b = load("A"), load("B")
    op = draw(st.sampled_from(["valign", "vror", "vcombine", "vshuffvdd"]))
    if op == "valign":
        return H.HvxInstr("valign", (a, b), (draw(st.integers(0, 7)),))
    if op == "vror":
        return H.HvxInstr("vror", (a,), (draw(st.integers(0, 70)),))
    if op == "vshuffvdd":
        return H.HvxInstr("vshuffvdd", (H.HvxInstr("vcombine", (a, b)),))
    return H.HvxInstr(op, (a, b))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hvx_exprs())
def test_hvx_batched_matches_scalar(expr):
    assert_bank_identical(FOOTPRINT, expr)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hvx_exprs())
def test_hvx_deinterleaved_layout_matches_scalar(expr):
    """Pair results re-read deinterleaved; vectors must refuse the layout
    identically on both paths."""
    assert_bank_identical(FOOTPRINT, expr, layout=LAYOUT_DEINTERLEAVED)


def test_out_of_range_load_refutes_not_crashes():
    """A candidate reading past the halo is refuted on both paths."""
    far = H.HvxInstr("vadd", (
        H.HvxLoad("A", 1 << 14, HVX_LANES, U8),
        H.HvxLoad("B", 0, HVX_LANES, U8),
    ))
    spec = E.Add(E.Load("A", 0, HVX_LANES, U8), E.Load("B", 0, HVX_LANES, U8))
    for batch in (True, False):
        oracle = Oracle(batch_eval=batch)
        assert oracle.equivalent(spec, far) is False


def test_unbound_scalar_refutes_not_crashes():
    spec = E.Add(E.Load("A", 0, LANES, U8), E.Load("B", 0, LANES, U8))
    cand = E.Add(E.Load("A", 0, LANES, U8),
                 E.Broadcast(E.ScalarVar("missing", U8), LANES))
    for batch in (True, False):
        assert Oracle(batch_eval=batch).equivalent(spec, cand) is False


def test_elem_mismatched_bank_keeps_scalar_path():
    """A load claiming a different element type than the bank's buffer must
    not run batched (its compile-time ranges would be unsound)."""
    spec = E.Add(E.Load("A", 0, LANES, U16), E.Load("B", 0, LANES, U16))
    cand = E.Cast(U16, E.Load("A", 0, LANES, I8))
    bank = valuation.environment_bank(spec, seed=0)
    bank_data = valuation.bank_arrays(bank)
    ev = BatchedEvaluator()
    plan = ev.plan_for(cand)
    assert plan is not None
    assert not batch_plan.plan_usable(plan, bank_data)
    # The oracle's verdict is still correct, via the scalar fallback.
    for batch in (True, False):
        assert Oracle(batch_eval=batch).equivalent(spec, cand) is False


# ---------------------------------------------------------------------------
# Oracle parity: verdicts, refutation counts, programs, cache keys
# ---------------------------------------------------------------------------


def test_counterexample_indices_identical():
    """The batched bank scan refutes and counts exactly as the scalar loop:
    a valuation mismatch counts, an evaluation error does not."""
    la, lb = E.Load("A", 0, LANES, U8), E.Load("B", 0, LANES, U8)
    spec = E.Add(la, lb)
    cands = [
        E.Add(lb, la),
        E.Sub(la, lb),
        E.Add(la, E.Load("B", 1, LANES, U8)),
        E.Max(la, lb),
        E.Add(E.Add(la, lb), E.Broadcast(E.ScalarVar("s", U8), LANES)),
    ]
    runs = {}
    for batch in (True, False):
        oracle = Oracle(batch_eval=batch)
        runs[batch] = ([oracle.equivalent(spec, c) for c in cands],
                       oracle.stats.total("counterexamples"))
    assert runs[True] == runs[False] == ([True] + [False] * 4, 3)


def test_lane0_reads_row_zero_of_the_full_bank():
    """The lane-0 check denotes over the spec's whole bank, built once,
    whose first row is environment 0."""
    la, lb = E.Load("A", 0, LANES, U8), E.Load("B", 0, LANES, U8)
    spec = E.Add(la, lb)
    oracle = Oracle()
    assert oracle.equivalent_lane0(spec, E.Add(lb, la)) is True
    assert oracle.equivalent_lane0(spec, E.Sub(la, lb)) is False
    ((bank, _data),) = oracle._bank_cache.values()
    assert oracle.bank_for(spec) is bank
    assert len(bank) == len(valuation.BASE_STYLES) \
        + oracle.extra_random_rounds
    assert bank[0] == valuation.environment_zero(spec, seed=oracle.seed)


def test_compile_identical_with_and_without_batching():
    from repro.hvx import program_listing
    from repro.pipeline import compile_pipeline
    from repro.synthesis.stats import SynthesisStats
    from repro.workloads.base import get

    for name in ("mul", "add"):
        wl = get(name)
        runs = {}
        for batch in (True, False):
            stats = SynthesisStats()
            compiled = compile_pipeline(wl.build(), backend="rake",
                                        stats=stats, batch_eval=batch)
            listing = "\n".join(
                program_listing(ce.program)
                for cs in compiled.stages for ce in cs.exprs
            )
            runs[batch] = (listing, stats.total("counterexamples"),
                           stats.total("queries"))
        assert runs[True] == runs[False]


def test_verdict_cache_warm_loads_across_batching_modes(tmp_path):
    """A disk store populated by the scalar oracle must fully warm-load the
    batched oracle: verdict keys do not depend on the evaluation engine."""
    from repro.pipeline import compile_pipeline
    from repro.synthesis.stats import SynthesisStats
    from repro.workloads.base import get

    wl = get("mul")
    compile_pipeline(wl.build(), backend="rake", batch_eval=False,
                     cache_dir=str(tmp_path))
    warm = SynthesisStats()
    compile_pipeline(wl.build(), backend="rake", batch_eval=True,
                     stats=warm, cache_dir=str(tmp_path))
    assert warm.total("cache_misses") == 0
    assert warm.total("cache_hits") > 0


# ---------------------------------------------------------------------------
# Lane-0 pruning on the batched plans (scalar check as the reference)
# ---------------------------------------------------------------------------


def assert_lane0_identical(spec, cand, layout=LAYOUT_INORDER):
    """The batched lane-0 verdict must equal the scalar one."""
    want = Oracle(batch_eval=False).equivalent_lane0(spec, cand, layout)
    assert Oracle(batch_eval=True).equivalent_lane0(spec, cand, layout) \
        is want
    return want


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ir_exprs(), ir_exprs())
def test_ir_lane0_batched_matches_scalar(spec, cand):
    assert_lane0_identical(spec, cand)
    assert_lane0_identical(spec, spec)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(uber_exprs(), uber_exprs())
def test_uber_lane0_batched_matches_scalar(spec, cand):
    assert_lane0_identical(spec, cand)


#: footprint specs of each output width the HVX strategies produce
LANE0_SPECS = (
    FOOTPRINT,
    E.Mul(E.Cast(U16, E.Load("A", -8, 80, U8)),
          E.Cast(U16, E.Load("B", -8, 80, U8))),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hvx_exprs(), st.sampled_from(LANE0_SPECS),
       st.sampled_from([LAYOUT_INORDER, LAYOUT_DEINTERLEAVED]))
def test_hvx_lane0_batched_matches_scalar(cand, spec, layout):
    assert_lane0_identical(spec, cand, layout)


def test_lane0_edge_cases_match_scalar():
    la, lb = E.Load("A", 0, HVX_LANES, U8), E.Load("B", 0, HVX_LANES, U8)
    ha, hb = H.HvxLoad("A", 0, HVX_LANES, U8), H.HvxLoad("B", 0, HVX_LANES, U8)
    spec = E.Add(la, lb)
    vadd = H.HvxInstr("vadd", (ha, hb))
    gt = H.HvxInstr("vcmp_gt", (ha, hb))
    cases = [
        # unbound buffer, out-of-range read
        (spec, H.HvxInstr("vadd", (ha, H.HvxLoad("Z", 0, HVX_LANES, U8))),
         LAYOUT_INORDER, False),
        (spec, H.HvxInstr("vadd", (ha, H.HvxLoad("B", 1 << 14, HVX_LANES,
                                                 U8))),
         LAYOUT_INORDER, False),
        # a vector result read back deinterleaved
        (spec, vadd, LAYOUT_DEINTERLEAVED, False),
        # a predicate against a boolean spec and against a data spec
        (E.GT(la, lb), gt, LAYOUT_INORDER, True),
        (E.EQ(la, lb), gt, LAYOUT_INORDER, False),
        (spec, gt, LAYOUT_INORDER, False),
        # lane counts differ: only lane 0 is compared
        (E.Add(E.Load("A", 0, 2 * HVX_LANES, U8),
               E.Load("B", 0, 2 * HVX_LANES, U8)), vadd, LAYOUT_INORDER,
         True),
    ]
    for spec_, cand, layout, verdict in cases:
        assert assert_lane0_identical(spec_, cand, layout) is verdict, cand


def test_lane0_runs_without_the_scalar_interpreter(monkeypatch):
    """A batchable lane-0 query answers on its plan alone."""
    from repro.hvx import interp as hvx_interp

    def refuse(*_args, **_kwargs):
        raise AssertionError("scalar HVX interpreter called")

    monkeypatch.setattr(hvx_interp, "evaluate", refuse)
    ha, hb = H.HvxLoad("A", 0, HVX_LANES, U8), H.HvxLoad("B", 0, HVX_LANES, U8)
    spec = E.Add(E.Load("A", 0, HVX_LANES, U8), E.Load("B", 0, HVX_LANES, U8))
    oracle = Oracle()
    assert oracle.equivalent_lane0(spec, H.HvxInstr("vadd", (ha, hb)))
    assert not oracle.equivalent_lane0(spec, H.HvxInstr("vsub", (ha, hb)))


def test_lane0_counts_no_evaluations():
    """Lane-0 misses leave the full-check evaluation counters alone."""
    ha, hb = H.HvxLoad("A", 0, HVX_LANES, U8), H.HvxLoad("B", 0, HVX_LANES, U8)
    spec = E.Add(E.Load("A", 0, HVX_LANES, U8), E.Load("B", 0, HVX_LANES, U8))
    for batch in (True, False):
        oracle = Oracle(batch_eval=batch)
        for op in ("vadd", "vsub", "vmax"):
            oracle.equivalent_lane0(spec, H.HvxInstr(op, (ha, hb)))
        assert oracle.stats.total("cache_misses") == 3
        assert oracle.stats.total("batched_evals") == 0
        assert oracle.stats.total("fallback_evals") == 0


# ---------------------------------------------------------------------------
# One bank per footprint, each node evaluated once per bank
# ---------------------------------------------------------------------------


def plan_nodes(*roots):
    """Every distinct node of the plans rooted at ``roots``."""
    seen, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.children)
    return list(seen.values())


def count_evaluations(nodes) -> dict:
    """Wrap each node's ``fn`` to count its calls; ``id(node) -> calls``."""
    calls = {id(node): 0 for node in nodes}
    for node in nodes:
        def counted(bank, args, fn=node.fn, key=id(node)):
            calls[key] += 1
            return fn(bank, args)
        node.fn = counted
    return calls


#: candidates that raise ``EvaluationError`` on both paths: unbound and
#: out-of-range reads, an unbound scalar
ERRORING = (
    E.Add(E.Load("A", 0, LANES, U8), E.Load("Z", 0, LANES, U8)),
    E.Add(E.Load("A", 1 << 14, LANES, U8), E.Load("B", 0, LANES, U8)),
    E.Add(E.Load("A", 0, LANES, U8),
          E.Broadcast(E.ScalarVar("missing", U8), LANES)),
    U.AbsDiff(U.LoadData("Z", 0, LANES, U8), U.LoadData("A", 0, LANES, U8)),
    H.HvxInstr("vadd", (H.HvxLoad("A", 0, HVX_LANES, U8),
                        H.HvxLoad("Z", 0, HVX_LANES, U8))),
    H.HvxInstr("vadd", (H.HvxLoad("A", 1 << 14, HVX_LANES, U8),
                        H.HvxLoad("B", 0, HVX_LANES, U8))),
)


#: HVX-width specs a vector candidate can equal in full, and specs of
#: other footprints whose banks hold other values for the same loads (the
#: same buffers signed) or whose windows are shifted
HVX_SPECS = (
    E.Add(E.Load("A", 0, HVX_LANES, U8), E.Load("B", 0, HVX_LANES, U8)),
    E.Max(E.Load("A", 0, HVX_LANES, U8), E.Load("B", 0, HVX_LANES, U8)),
)
OTHER_SPECS = (
    E.Add(E.Load("A", 0, HVX_LANES, I8), E.Load("B", 0, HVX_LANES, I8)),
    E.Add(E.Load("A", 1, HVX_LANES, U8), E.Load("B", 0, HVX_LANES, U8)),
)
#: candidates equal to some of those specs
HVX_MATCHES = tuple(
    H.HvxInstr(op, (H.HvxLoad("A", a, HVX_LANES, U8),
                    H.HvxLoad("B", 0, HVX_LANES, U8)))
    for op in ("vadd", "vmax") for a in (0, 1)
)


@st.composite
def query_streams(draw):
    """A spec and a stream of ``(candidate, mode, layout, other)``
    queries over a small pool of candidates, so candidates recur: the
    spec's own family plus the other two, the spec itself and its
    subtrees, erroring candidates, and now and then (``other``) a spec of
    another footprint, which moves the evaluator to another bank and
    back."""
    family = draw(st.sampled_from(["ir", "uber", "hvx"]))
    if family == "ir":
        spec = draw(ir_exprs())
    elif family == "uber":
        spec = draw(uber_exprs())
    else:
        spec = draw(st.sampled_from(LANE0_SPECS + HVX_SPECS))
    pool = draw(st.lists(st.one_of(
        ir_exprs(), uber_exprs(), hvx_exprs(), st.sampled_from(HVX_MATCHES),
        st.sampled_from(ERRORING), st.sampled_from(list(spec)),
    ), min_size=1, max_size=4))
    others = [None] * 3 + list(LANE0_SPECS + HVX_SPECS + OTHER_SPECS)
    return spec, draw(st.lists(
        st.tuples(st.sampled_from(pool),
                  st.sampled_from(["lane0", "full", "both"]),
                  st.sampled_from([LAYOUT_INORDER, LAYOUT_DEINTERLEAVED]),
                  st.sampled_from(others)),
        min_size=1, max_size=10))


def scalar_verdict(spec, cand, layout, mode):
    oracle = Oracle(batch_eval=False)
    if mode == "lane0":
        return oracle.equivalent_lane0(spec, cand, layout)
    return oracle.equivalent(spec, cand, layout)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query_streams())
def test_hot_memo_verdicts_match_a_fresh_scalar_oracle(stream):
    """One oracle, its memo hot from every earlier query, answers each
    lane-0 and full query as a fresh scalar oracle does."""
    spec, queries = stream
    oracle = Oracle()
    for cand, mode, layout, other in queries:
        target = spec if other is None else other
        for kind in (("lane0", "full") if mode == "both" else (mode,)):
            if kind == "lane0":
                got = oracle.equivalent_lane0(target, cand, layout)
            else:
                got = oracle.equivalent(target, cand, layout)
            assert got is scalar_verdict(target, cand, layout, kind), \
                (kind, target, cand, layout)


def test_equal_footprints_share_one_bank():
    """Specs reading the same buffers and scalars share one bank; a
    different offset, element type or scalar set gets its own."""
    la, lb = E.Load("A", 0, LANES, U8), E.Load("B", 0, LANES, U8)
    oracle = Oracle()
    data = oracle._bank_data(E.Add(la, lb))
    assert data is not None
    for same in (E.Sub(la, lb), E.Max(lb, la), E.Absd(la, lb)):
        assert oracle._bank_data(same) is data
        assert oracle.bank_for(same) is oracle.bank_for(E.Add(la, lb))
    s = E.Broadcast(E.ScalarVar("s", U8), LANES)
    others = (
        E.Add(E.Load("A", 1, LANES, U8), lb),
        E.Add(E.Load("A", 0, LANES, I8), E.Load("B", 0, LANES, I8)),
        E.Add(E.Add(la, lb), s),
    )
    banks = [oracle._bank_data(spec) for spec in others]
    assert all(bank is not None and bank is not data for bank in banks)
    assert len({id(bank) for bank in banks}) == len(others)
    # A shared bank is the one each spec would get on its own.
    assert oracle.bank_for(E.Sub(la, lb)) == valuation.environment_bank(
        E.Sub(la, lb), n_random_extra=oracle.extra_random_rounds,
        seed=oracle.seed)


def test_memoized_values_and_bank_matrices_are_read_only():
    s = E.Broadcast(E.ScalarVar("s", U8), HVX_LANES)
    la, lb = E.Load("A", 0, HVX_LANES, U8), E.Load("B", 0, HVX_LANES, U8)
    spec = E.Add(E.Add(la, lb), s)
    cand = H.HvxInstr("vadd", (
        H.HvxInstr("vadd", (H.HvxLoad("A", 0, HVX_LANES, U8),
                            H.HvxLoad("B", 0, HVX_LANES, U8))),
        H.HvxSplat(E.ScalarVar("s", U8), U8, HVX_LANES)))
    oracle = Oracle()
    assert oracle.equivalent(spec, cand) is True
    values = oracle._batch_evaluator._values
    assert values
    for value in values.values():
        assert not value.flags.writeable
        with pytest.raises(ValueError):
            value[0, 0] = 0
    data = oracle._bank_data(spec)
    matrices = [m for m, _elem, _origin in data.buffers.values()]
    matrices += list(data.scalars.values())
    assert len(matrices) == 3
    for matrix in matrices:
        assert not matrix.flags.writeable


def test_lane0_then_full_check_evaluates_each_node_once():
    """A full check after a passing lane-0 check, and a sibling candidate
    sharing its subtrees, evaluate no node a second time."""
    ha, hb = H.HvxLoad("A", 0, HVX_LANES, U8), H.HvxLoad("B", 0, HVX_LANES, U8)
    spec = E.Max(E.Load("A", 0, HVX_LANES, U8), E.Load("B", 0, HVX_LANES, U8))
    cand = H.HvxInstr("vmax", (ha, hb))
    sibling = H.HvxInstr("vmin", (ha, hb))
    oracle = Oracle()
    ev = oracle._evaluator()
    nodes = plan_nodes(*(ev.plan_for(e).root for e in (spec, cand, sibling)))
    calls = count_evaluations(nodes)
    assert oracle.equivalent_lane0(spec, cand) is True
    assert oracle.equivalent(spec, cand) is True
    assert oracle.equivalent(spec, sibling) is False
    assert sorted(calls.values()) == [1] * len(nodes)
    # Another bank drops the kept values; coming back recomputes them.
    other = E.Max(E.Load("A", 1, HVX_LANES, U8), E.Load("B", 0, HVX_LANES, U8))
    assert oracle._bank_data(other) is not oracle._bank_data(spec)
    oracle.equivalent_lane0(other, cand)
    assert set(ev._values) == set(plan_nodes(ev.plan_for(other).root,
                                             ev.plan_for(cand).root))
    oracle.equivalent_lane0(spec, sibling)
    assert calls[id(ev.plan_for(sibling).root)] == 2
