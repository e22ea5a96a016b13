"""Differential tests for the batched NumPy denotation engine.

The contract under test: for every expression, ``denote_bank`` over the
whole valuation bank is *bit-identical* to the scalar ``denote`` per
environment — including which ``EvaluationError`` cases refute (raise)
rather than crash — and the oracle, which checks every query with one
plan over the whole bank, gives the verdicts and refutation counts of the
scalar check: ``denote`` on each environment of the bank in turn
(:func:`scalar_full`, :func:`scalar_lane0`).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.workloads  # noqa: F401 - populate the registry
from repro import faults
from repro.errors import EvaluationError
from repro.eval import BatchedEvaluator
from repro.hvx import isa as H
from repro.ir import expr as E
from repro.synthesis import valuation
from repro.synthesis.oracle import (
    LAYOUT_DEINTERLEAVED,
    LAYOUT_INORDER,
    Oracle,
    denote,
    result_bits,
)
from repro.types import I8, I16, I32, I64, U8, U16, U32, U64
from repro.uber import instructions as U

LANES = 32


def scalar_full(oracle, spec, cand, layout=LAYOUT_INORDER) -> str:
    """The scalar full check: ``denote`` on each environment of
    ``oracle.bank_for(spec)`` in turn.  ``"equal"``, or what refuted the
    candidate first: ``"counterexample"`` (a mismatching valuation),
    ``"error"`` (an ``EvaluationError``) or ``"width"`` (lane widths)."""
    if result_bits(spec) != result_bits(cand):
        return "width"
    for env in oracle.bank_for(spec):
        try:
            got = denote(cand, env, layout)
        except EvaluationError:
            return "error"
        if got != denote(spec, env):
            return "counterexample"
    return "equal"


def scalar_lane0(oracle, spec, cand, layout=LAYOUT_INORDER) -> bool:
    """The scalar lane-0 check: lane 0 of the bank's first environment."""
    if result_bits(spec) != result_bits(cand):
        return False
    env = oracle.bank_for(spec)[0]
    try:
        got = denote(cand, env, layout)
    except EvaluationError:
        return False
    return bool(got) and got[0] == denote(spec, env)[0]


def assert_bank_identical(bank_spec, expr, layout=LAYOUT_INORDER):
    """Batched evaluation of ``expr`` must match scalar denote env by env,
    on the plan the lowerings compiled (not a whole-root fallback)."""
    bank_data = valuation.environment_bank(bank_spec, seed=0)
    ev = BatchedEvaluator()
    plan = ev.plan_on(expr, bank_data)
    assert plan.root is ev.node_for(expr), f"no compiled plan for {expr!r}"
    scalar_rows = []
    scalar_error = False
    for env in bank_data.envs:
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
    assert got.shape == (bank_data.n_envs, len(scalar_rows[0]))
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
    """A candidate reading past the halo is refuted, as the scalar check
    refutes it."""
    far = H.HvxInstr("vadd", (
        H.HvxLoad("A", 1 << 14, HVX_LANES, U8),
        H.HvxLoad("B", 0, HVX_LANES, U8),
    ))
    spec = E.Add(E.Load("A", 0, HVX_LANES, U8), E.Load("B", 0, HVX_LANES, U8))
    oracle = Oracle()
    assert oracle.equivalent(spec, far) is False
    assert scalar_full(oracle, spec, far) == "error"


def test_unbound_scalar_refutes_not_crashes():
    spec = E.Add(E.Load("A", 0, LANES, U8), E.Load("B", 0, LANES, U8))
    cand = E.Add(E.Load("A", 0, LANES, U8),
                 E.Broadcast(E.ScalarVar("missing", U8), LANES))
    oracle = Oracle()
    assert oracle.equivalent(spec, cand) is False
    assert scalar_full(oracle, spec, cand) == "error"


def test_elem_mismatched_bank_keeps_scalar_path():
    """A load claiming a different element type than the bank's buffer must
    not run on its compiled plan (its compile-time ranges would be
    unsound): the whole root runs as one fallback step, the scalar
    interpreter per environment."""
    spec = E.Add(E.Load("A", 0, LANES, U16), E.Load("B", 0, LANES, U16))
    cand = E.Cast(U16, E.Load("A", 0, LANES, I8))
    bank_data = valuation.environment_bank(spec, seed=0)
    ev = BatchedEvaluator()
    plan = ev.plan_on(cand, bank_data)
    assert plan is not ev.plan_for(cand)
    assert plan.root.is_fallback and not plan.root.children
    assert not plan.claims
    oracle = Oracle()
    assert oracle.equivalent(spec, cand) is False
    assert scalar_full(oracle, spec, cand) == "counterexample"


# ---------------------------------------------------------------------------
# Roots the lowerings cannot batch as a whole: each runs as one fallback
# step of a plan over the whole bank
# ---------------------------------------------------------------------------

A32, B32 = E.Load("A", 0, LANES, U32), E.Load("B", 0, LANES, U32)
W64 = E.Load("W", 0, LANES, U64)
K64 = E.Broadcast(E.ScalarVar("k", U64), LANES)
A16, B16 = E.Load("A", 0, LANES, U16), E.Load("B", 0, LANES, U16)
A8, B8 = E.Load("A", 0, LANES, U8), E.Load("B", 0, LANES, U8)

#: name -> (spec, candidates), each candidate checked lane-0 and full
FALLBACK_CASES = {
    # a u64 result: products of u32 lanes pass 2**63
    "u64_root": (E.Mul(E.Cast(U64, A32), E.Cast(U64, B32)), (
        E.Mul(E.Cast(U64, B32), E.Cast(U64, A32)),
        E.Add(E.Cast(U64, A32), E.Cast(U64, B32)),
    )),
    # a u64 buffer and a u64 scalar, which passes 2**63 in some valuations
    "u64_footprint": (E.Add(W64, K64), (E.Add(K64, W64), E.Sub(W64, K64))),
    # raw loads claiming i8 where the bank's buffers hold u16
    "claims_mismatch": (E.Add(A16, B16), (
        E.Add(E.Cast(U16, E.Load("A", 0, LANES, I8)),
              E.Cast(U16, E.Load("B", 0, LANES, I8))),
        E.Cast(U16, E.Load("A", 0, LANES, I8)),
    )),
    # every plan compile fails (an injected eval.plan_compile fault)
    "plan_compile_fault": (E.Add(A8, B8), (E.Add(B8, A8), E.Sub(A8, B8))),
}


@pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
def test_fallback_steps_answer_as_the_scalar_check(case, monkeypatch):
    """Lane-0 and full verdicts equal the scalar check's, ``denote_bank``
    answers each on a plan whose root is one fallback step, and each full
    check counts one ``fallback_evals``."""
    spec, cands = FALLBACK_CASES[case]
    denoted = []
    real_denote_bank = BatchedEvaluator.denote_bank

    def spy(self, plan, bank, layout=LAYOUT_INORDER):
        denoted.append(plan)
        return real_denote_bank(self, plan, bank, layout)

    monkeypatch.setattr(BatchedEvaluator, "denote_bank", spy)
    fault_plan = faults.FaultPlan(rules=[faults.FaultRule(
        site=faults.SITE_PLAN_COMPILE, kind="error", every=1)])
    if case == "plan_compile_fault":
        faults.activate(fault_plan)
    try:
        oracle = Oracle()
        reference = Oracle()
        if case.startswith("u64"):
            # the bank reaches lane values int64 cannot hold
            bank = oracle.bank_for(spec)
            assert any(v >= 1 << 63 for env in bank
                       for v in denote(spec, env))
        if case == "u64_footprint":
            assert any(env.scalars["k"] >= 1 << 63 for env in bank)
        verdicts = set()
        for cand in cands:
            lane0 = oracle.equivalent_lane0(spec, cand)
            assert lane0 is scalar_lane0(reference, spec, cand), cand
            before = oracle.stats.total("fallback_evals")
            denoted.clear()
            full = oracle.equivalent(spec, cand)
            want = scalar_full(reference, spec, cand)
            assert full is (want == "equal"), (cand, want)
            verdicts.add(full)
            assert oracle.stats.total("fallback_evals") == before + 1
            assert oracle.stats.total("batched_evals") == 0
            (plan,) = denoted
            assert plan.root.is_fallback and not plan.root.children
    finally:
        faults.deactivate()
    assert verdicts == {True, False}
    if case == "plan_compile_fault":
        assert fault_plan.by_site()[faults.SITE_PLAN_COMPILE] >= 2


@pytest.mark.parametrize(
    "case", ["u64_root", "claims_mismatch", "plan_compile_fault"])
def test_fallback_steps_on_a_compact_bank_match_the_scalar_reference(case):
    """The bank stores each buffer at its element's own width (u32 as
    uint32, u16 as uint16, u8 as uint8), and a one-step fallback plan on
    it, which reads the bank's environments, denotes each candidate as
    ``denote`` does on each environment in turn."""
    spec, cands = FALLBACK_CASES[case]
    bank = valuation.environment_bank(spec, n_random_extra=4)
    for data, elem, _origin in bank.buffers.values():
        assert (data.dtype.kind, data.dtype.itemsize * 8) == ("u", elem.bits)
    assert bank._envs is None
    ev = BatchedEvaluator()
    if case == "plan_compile_fault":
        faults.activate(faults.FaultPlan(rules=[faults.FaultRule(
            site=faults.SITE_PLAN_COMPILE, kind="error", every=1)]))
    try:
        plans = [ev.plan_on(cand, bank) for cand in cands]
    finally:
        faults.deactivate()
    for cand, plan in zip(cands, plans):
        assert plan.root.is_fallback and not plan.root.children
        got = ev.denote_bank(plan, bank)
        assert [tuple(int(v) for v in row) for row in got] == \
            [denote(cand, env) for env in bank.envs]
    assert bank._envs is not None


def test_environments_are_built_on_demand(monkeypatch):
    """Batched checks read only the bank's matrices.  The environments
    are built once, the first time ``bank_for`` or a fallback step reads
    them."""
    built = []
    real = valuation.make_environment

    def counting(*args):
        built.append(args[2:])
        return real(*args)

    monkeypatch.setattr(valuation, "make_environment", counting)
    la, lb = E.Load("A", 0, LANES, U8), E.Load("B", 0, LANES, U8)
    spec = E.Add(la, lb)
    oracle = Oracle()
    assert oracle.equivalent_lane0(spec, E.Add(lb, la)) is True
    assert oracle.equivalent(spec, E.Add(lb, la)) is True
    assert oracle.equivalent(spec, E.Sub(la, lb)) is False
    (bank,) = oracle._bank_cache.values()
    assert bank._envs is None and built == []
    envs = oracle.bank_for(spec)
    assert oracle.bank_for(spec) is envs is bank.envs
    assert len(built) == len(envs) == bank.n_envs
    built.clear()
    wide_spec, (wide_cand, _) = FALLBACK_CASES["u64_root"]
    assert oracle.equivalent(wide_spec, wide_cand) is True
    assert oracle.stats.total("fallback_evals") == 1
    assert oracle._bank(wide_spec)._envs is not None
    assert len(built) == oracle._bank(wide_spec).n_envs


def test_wide_uber_nodes_fall_back_exactly():
    """An uber node wider than 32 bits is a fallback step, which reads the
    lanes of the uber interpreter's tuple."""
    spec = E.Cast(I64, A32)
    oracle = Oracle()
    for offset in (0, 1):
        cand = U.Widen(U.LoadData("A", offset, LANES, U32), I64)
        want = scalar_full(oracle, spec, cand)
        assert oracle.equivalent(spec, cand) is (want == "equal"), want
    assert oracle.stats.total("fallback_evals") == 2
    assert oracle.stats.total("counterexamples") == 1


# ---------------------------------------------------------------------------
# Oracle parity: verdicts, refutation counts, programs, cache keys
# ---------------------------------------------------------------------------


def test_counterexample_indices_identical():
    """The whole-bank check refutes and counts exactly as the scalar
    check: a valuation mismatch counts, an evaluation error does not."""
    la, lb = E.Load("A", 0, LANES, U8), E.Load("B", 0, LANES, U8)
    spec = E.Add(la, lb)
    cands = [
        E.Add(lb, la),
        E.Sub(la, lb),
        E.Add(la, E.Load("B", 1, LANES, U8)),
        E.Max(la, lb),
        E.Add(E.Add(la, lb), E.Broadcast(E.ScalarVar("s", U8), LANES)),
    ]
    oracle = Oracle()
    verdicts = [oracle.equivalent(spec, c) for c in cands]
    scalar = [scalar_full(oracle, spec, c) for c in cands]
    assert verdicts == [want == "equal" for want in scalar] \
        == [True] + [False] * 4
    assert oracle.stats.total("counterexamples") \
        == scalar.count("counterexample") == 3


def test_lane0_reads_row_zero_of_the_full_bank():
    """The lane-0 check denotes over the spec's whole bank, built once,
    whose first row is environment 0."""
    la, lb = E.Load("A", 0, LANES, U8), E.Load("B", 0, LANES, U8)
    spec = E.Add(la, lb)
    oracle = Oracle()
    assert oracle.equivalent_lane0(spec, E.Add(lb, la)) is True
    assert oracle.equivalent_lane0(spec, E.Sub(la, lb)) is False
    (data,) = oracle._bank_cache.values()
    bank = oracle.bank_for(spec)
    assert bank is data.envs
    assert len(bank) == data.n_envs == len(valuation.BASE_STYLES) \
        + oracle.extra_random_rounds
    assert bank[0] == valuation.environment_zero(spec, seed=oracle.seed)


# ---------------------------------------------------------------------------
# Lane-0 pruning on the batched plans (scalar check as the reference)
# ---------------------------------------------------------------------------


def assert_lane0_identical(spec, cand, layout=LAYOUT_INORDER):
    """The batched lane-0 verdict must equal the scalar one."""
    oracle = Oracle()
    want = scalar_lane0(oracle, spec, cand, layout)
    assert oracle.equivalent_lane0(spec, cand, layout) is want
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
    oracle = Oracle()
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
    oracle = Oracle()
    if mode == "lane0":
        return scalar_lane0(oracle, spec, cand, layout)
    return scalar_full(oracle, spec, cand, layout) == "equal"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query_streams())
def test_hot_memo_verdicts_match_a_fresh_scalar_oracle(stream):
    """One oracle, its memo hot from every earlier query, answers each
    lane-0 and full query as the scalar check does on a fresh bank."""
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


def bank_data(oracle, spec):
    """The stacked bank the oracle checks ``spec`` on."""
    return oracle._bank(spec)


def test_equal_footprints_share_one_bank():
    """Specs reading the same buffers and scalars share one bank; a
    different offset, element type or scalar set gets its own."""
    la, lb = E.Load("A", 0, LANES, U8), E.Load("B", 0, LANES, U8)
    oracle = Oracle()
    data = bank_data(oracle, E.Add(la, lb))
    for same in (E.Sub(la, lb), E.Max(lb, la), E.Absd(la, lb)):
        assert bank_data(oracle, same) is data
        assert oracle.bank_for(same) is oracle.bank_for(E.Add(la, lb))
    s = E.Broadcast(E.ScalarVar("s", U8), LANES)
    others = (
        E.Add(E.Load("A", 1, LANES, U8), lb),
        E.Add(E.Load("A", 0, LANES, I8), E.Load("B", 0, LANES, I8)),
        E.Add(E.Add(la, lb), s),
    )
    banks = [bank_data(oracle, spec) for spec in others]
    assert all(bank is not data for bank in banks)
    assert len({id(bank) for bank in banks}) == len(others)
    # A shared bank is the one each spec would get on its own.
    assert oracle.bank_for(E.Sub(la, lb)) == valuation.environment_bank(
        E.Sub(la, lb), n_random_extra=oracle.extra_random_rounds,
        seed=oracle.seed).envs


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
    values = oracle._evaluator()._values
    assert values
    for value in values.values():
        assert not value.flags.writeable
        with pytest.raises(ValueError):
            value[0, 0] = 0
    data = bank_data(oracle, spec)
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
    assert bank_data(oracle, other) is not bank_data(oracle, spec)
    oracle.equivalent_lane0(other, cand)
    assert set(ev._values) == set(plan_nodes(ev.plan_for(other).root,
                                             ev.plan_for(cand).root))
    oracle.equivalent_lane0(spec, sibling)
    assert calls[id(ev.plan_for(sibling).root)] == 2


# -- node values carried to a covering bank ----------------------------------

CARRY_LANES = 8


def footprint_spec(spans, scalars=()):
    """An IR spec whose bank binds each ``(name, elem, lo, hi)`` buffer
    over ``[lo, hi)`` and each ``(name, dtype)`` scalar."""
    terms = [E.Cast(I32, E.Load(name, offset, CARRY_LANES, elem))
             for name, elem, lo, hi in spans
             for offset in (lo, hi - CARRY_LANES)]
    terms += [E.Cast(I32, E.Broadcast(E.ScalarVar(name, dtype), CARRY_LANES))
              for name, dtype in scalars]
    spec = terms[0]
    for term in terms[1:]:
        spec = E.Add(spec, term)
    return spec


@st.composite
def carry_candidates(draw, elems):
    """A sum of loads of ``A``/``B`` at offsets that some banks hold and
    others do not, plus maybe the scalar ``s``."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(elems)))
        offset = draw(st.integers(-700, 700))
        terms.append(E.Cast(I32, E.Load(name, offset, CARRY_LANES,
                                        elems[name])))
    if draw(st.booleans()):
        terms.append(E.Cast(I32, E.Broadcast(E.ScalarVar("s", U8),
                                             CARRY_LANES)))
    cand = terms[0]
    for term in terms[1:]:
        cand = E.Add(cand, term)
    return cand


def denoted(ev, expr, bank):
    """``expr``'s matrix on ``bank``, or ``None`` when it raised."""
    try:
        return ev.denote_bank(ev.plan_on(expr, bank), bank)
    except EvaluationError:
        return None


def assert_same_outcome(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_node_values_carry_to_a_covering_bank(data):
    """Denoting on a bank and then on a bank covering it gives what a
    fresh evaluator gives on the covering bank, and every value kept from
    the first bank is carried, not recomputed."""
    elem_a = data.draw(st.sampled_from([U8, I8, U16]))
    lo = data.draw(st.integers(-64, 64))
    spans = [("A", elem_a, lo, lo + data.draw(st.integers(CARRY_LANES, 64)))]
    if data.draw(st.booleans()):
        spans.append(("B", U8, 0, 16))
    scalars = [("s", U8)] if data.draw(st.booleans()) else []
    grow = st.integers(0, 600)
    wider = [(name, elem, lo - data.draw(grow), hi + data.draw(grow))
             for name, elem, lo, hi in spans]
    if data.draw(st.booleans()):
        wider.append(("C", U16, 0, 8))
    more = scalars + ([("t", U16)] if data.draw(st.booleans()) else [])
    old = valuation.environment_bank(footprint_spec(spans, scalars))
    new = valuation.environment_bank(footprint_spec(wider, more))
    assert new.covers(old)
    cands = data.draw(st.lists(carry_candidates({"A": elem_a, "B": U8}),
                               min_size=1, max_size=4))
    ev = BatchedEvaluator()
    for cand in cands:
        denoted(ev, cand, old)
    kept = dict(ev._values)
    fresh = BatchedEvaluator()
    for cand in cands:
        assert_same_outcome(denoted(ev, cand, new), denoted(fresh, cand, new))
    assert all(ev._values[node] is value for node, value in kept.items())


#: ways a bank can fail to cover ``A`` u8 ``[0, 32)``, ``B`` u8 ``[0, 16)``
#: and scalar ``s`` u8 on the default rounds (with no scalar where the
#: rounds differ, since a scalar's values would differ too)
NOT_COVERING = ("narrower span", "missing buffer", "element type", "seed",
                "round count", "scalar dtype")


@pytest.mark.parametrize("kind", NOT_COVERING)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 24), st.booleans(),
       st.lists(carry_candidates({"A": U8, "B": U8}), min_size=1,
                max_size=3))
def test_a_bank_that_does_not_cover_starts_empty(kind, shrink, low_side,
                                                 cands):
    spans = [("A", U8, 0, 32), ("B", U8, 0, 16)]
    scalars = [] if kind in ("seed", "round count") else [("s", U8)]
    old = valuation.environment_bank(footprint_spec(spans, scalars))
    # Reads every old binding in range, so the old bank keeps values.
    probe = footprint_spec(spans, scalars)
    bank_args = {}
    if kind == "narrower span":
        lo, hi = (shrink, 32 + 600) if low_side else (-600, 32 - shrink)
        spans = [("A", U8, lo, hi), spans[1]]
    elif kind == "missing buffer":
        spans = spans[:1]
    elif kind == "element type":
        spans = [("A", I8, 0, 32), spans[1]]
    elif kind == "seed":
        bank_args["seed"] = 1
    elif kind == "round count":
        bank_args["n_random_extra"] = 3
    else:
        scalars = [("s", U16)]
    new = valuation.environment_bank(footprint_spec(spans, scalars),
                                     **bank_args)
    assert not new.covers(old)
    ev = BatchedEvaluator()
    for cand in (probe, *cands):
        denoted(ev, cand, old)
    kept = dict(ev._values)
    assert kept
    fresh = BatchedEvaluator()
    for cand in (*cands, probe):
        assert_same_outcome(denoted(ev, cand, new), denoted(fresh, cand, new))
    assert not any(ev._values.get(node) is value
                   for node, value in kept.items())


def test_a_node_that_raised_is_evaluated_on_the_covering_bank():
    old = valuation.environment_bank(footprint_spec([("A", U8, 0, 8)]))
    new = valuation.environment_bank(footprint_spec([("A", U8, -8, 700)]))
    assert new.covers(old)
    inside = E.Load("A", 0, CARRY_LANES, U8)
    outside = E.Load("A", 600, CARRY_LANES, U8)  # past the old padding
    cand = E.Add(E.Cast(I32, inside), E.Cast(I32, outside))
    ev = BatchedEvaluator()
    calls = count_evaluations(plan_nodes(ev.plan_for(cand).root))
    assert denoted(ev, cand, old) is None
    assert_same_outcome(denoted(ev, cand, new),
                        denoted(BatchedEvaluator(), cand, new))
    assert calls[id(ev.node_for(inside))] == 1  # carried
    assert calls[id(ev.node_for(outside))] == 2  # raised, then evaluated
    assert calls[id(ev.plan_for(cand).root)] == 1
