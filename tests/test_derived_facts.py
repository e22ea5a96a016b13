"""Facts each expression node derives once, against the walks they replaced.

Four facts are derived per node instead of by walking its subtree again:

* an IR or uber node's ``type``, computed on its first read from its
  children's kept types (:class:`repro.types.kept_property`);
* a machine node's ``concrete`` flag (no placeholder at or below it),
  which ``placeholders_of``, ``substitute_many`` and ``rank_sketch`` use
  to skip concrete subtrees;
* a spec's valuation footprint, merged from its children's and memoized
  by the oracle;
* a lifting step, recorded as nodes and rendered only when the trace is
  read.

Each test checks the derived fact against a test-local copy of the walk
that computed it before, as ``tests/test_canonical.py`` keeps the
renderer its templates replaced.
"""

from __future__ import annotations

import dataclasses
import pickle
import re
from itertools import islice, product

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.workloads  # noqa: F401 - populate the registry
from repro.hvx import isa as H
from repro.ir import builder as B
from repro.ir import expr as E
from repro.ir import printer as ir_printer
from repro.pipeline import compile_pipeline
from repro.synthesis import lifting, lowering, swizzle_synth, valuation
from repro.synthesis import sketch as S
from repro.synthesis.lifting import Lifter, LiftStep
from repro.synthesis.oracle import Oracle
from repro.synthesis.stats import SynthesisStats
from repro.synthesis.swizzle_synth import (
    MAX_COMBOS,
    Ranking,
    rank_sketch,
    substitute_many,
)
from repro.targets import get_target
from repro.types import (
    BOOL,
    I8,
    I16,
    I32,
    I64,
    U8,
    U16,
    U32,
    ScalarType,
    VectorType,
)
from repro.uber import instructions as U
from repro.uber import printer as uber_printer
from repro.workloads.base import get

from test_batched_eval import ir_exprs, uber_exprs
from test_valuation import footprint_specs

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def all_nodes(expr) -> list:
    """Every node of an IR or uber tree, including the scalar IR trees
    inside uber broadcasts."""
    out = []
    stack = [expr]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
        if isinstance(node, U.BroadcastScalar):
            stack.append(node.scalar)
    return out


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def reference_type(node):
    """The type rules as each node's ``type`` property computed them
    before types were kept: recomputed from the leaves on every read."""
    ref = reference_type
    if isinstance(node, (E.Const, E.ScalarVar)):
        return node.dtype
    if isinstance(node, E.Load):
        return node.elem if node.lanes == 1 else VectorType(node.elem,
                                                            node.lanes)
    if isinstance(node, E.Broadcast):
        return VectorType(ref(node.value), node.lanes)
    if isinstance(node, E._Binary):
        return ref(node.a)
    if isinstance(node, E.Absd):
        t = ref(node.a)
        unsigned = ScalarType(E.elem_of(t).bits, False)
        return VectorType(unsigned, t.lanes) if isinstance(
            t, VectorType) else unsigned
    if isinstance(node, (E.Cast, E.SaturatingCast)):
        t = ref(node.value)
        return VectorType(node.target, t.lanes) if isinstance(
            t, VectorType) else node.target
    if isinstance(node, E._Compare):
        t = ref(node.a)
        return VectorType(BOOL, t.lanes) if isinstance(
            t, VectorType) else BOOL
    if isinstance(node, E.Select):
        return ref(node.t)
    if isinstance(node, (U.LoadData, U.BroadcastScalar)):
        return VectorType(node.elem, node.lanes)
    if isinstance(node, (U.Widen, U.Narrow)):
        return VectorType(node.out_elem, ref(node.value).lanes)
    if isinstance(node, U.VsMpyAdd):
        return VectorType(node.out_elem, ref(node.reads[0]).lanes)
    if isinstance(node, U.VvMpyAdd):
        return VectorType(node.out_elem, ref(node.pairs[0][0]).lanes)
    if isinstance(node, U.AbsDiff):
        t = ref(node.a)
        return VectorType(ScalarType(t.elem.bits, False), t.lanes)
    if isinstance(node, U._UberBinary):
        return ref(node.a)
    if isinstance(node, U.ShiftRight):
        return ref(node.value)
    if isinstance(node, U.Mux):
        return ref(node.t)
    raise TypeError(type(node).__name__)


@SETTINGS
@given(st.one_of(ir_exprs(), uber_exprs()))
def test_kept_type_is_the_reference_type(expr):
    for node in all_nodes(expr):
        first = node.type
        assert first == reference_type(node)
        assert node.type is first  # kept, not rebuilt


@SETTINGS
@given(st.one_of(ir_exprs(), uber_exprs()))
def test_kept_type_is_no_field_and_survives_a_pickle(expr):
    fresh = pickle.loads(pickle.dumps(expr))
    assert fresh == expr and hash(fresh) == hash(expr)
    assert fresh.type == expr.type == reference_type(expr)
    assert repr(fresh) == repr(expr)
    assert not re.search(r"\btype=", repr(expr))
    for node in all_nodes(expr):
        assert "type" not in {f.name for f in dataclasses.fields(node)}
    again = pickle.loads(pickle.dumps(fresh))
    assert again == expr and again.type == expr.type


def test_a_deep_add_chain_builds_and_reads_its_type():
    """Each ``Add`` checks its operands' types when it is built; with
    kept types that is O(1), so a chain far past the recursion limit
    builds (the recursive walk failed at about 990 terms)."""
    chain = E.Load("in", 0, 8, U16)
    for i in range(1, 3000):
        chain = E.Add(chain, E.Load("in", i, 8, U16))
    assert chain.type == VectorType(U16, 8)
    assert E.Cast(U8, chain).type == VectorType(U8, 8)


def test_a_scalar_type_and_a_mismatch():
    k = E.ScalarVar("k", U8)
    assert E.Add(k, E.Const(3, U8)).type is U8
    assert E.Cast(I32, k).type == I32
    with pytest.raises(Exception):
        E.Add(E.Load("in", 0, 8, U8), E.Load("in", 0, 8, U16))


# ---------------------------------------------------------------------------
# Concreteness
# ---------------------------------------------------------------------------

PLACEHOLDER_KINDS = (S.AbstractWindow, S.AbstractPairWindow, S.AbstractRows,
                     S.AbstractSwizzle)
LANES = 8
SWIZZLE_MODES = (S.SWIZZLE_IDENTITY, S.SWIZZLE_INTERLEAVE,
                 S.SWIZZLE_DEINTERLEAVE)


@st.composite
def machine_sketches(draw):
    """Machine trees mixing loads, splats, instructions and all four
    placeholder kinds, including swizzles around values that hold
    placeholders."""
    buffer = st.sampled_from(["A", "B"])
    offset = st.integers(-4, 4)

    def vec(depth):
        kinds = ["load", "splat", "window"]
        if depth:
            kinds += ["vadd", "lo", "hi"]
        kind = draw(st.sampled_from(kinds))
        if kind == "load":
            return H.HvxLoad(draw(buffer), draw(offset), LANES, U8)
        if kind == "splat":
            return H.HvxSplat(E.ScalarVar("s", U8), U8, LANES)
        if kind == "window":
            return S.AbstractWindow(draw(buffer), draw(offset), LANES, U8,
                                    draw(st.sampled_from([1, 2])))
        if kind == "vadd":
            return H.HvxInstr("vadd", (vec(depth - 1), vec(depth - 1)))
        return H.HvxInstr(kind, (pair(depth - 1),))

    def pair(depth):
        kinds = ["pair_window", "rows", "splat"]
        if depth:
            kinds += ["vcombine", "swizzle", "swizzle", "vshuffvdd"]
        kind = draw(st.sampled_from(kinds))
        if kind == "pair_window":
            return S.AbstractPairWindow(draw(buffer), draw(offset),
                                        2 * LANES, U8)
        if kind == "rows":
            return S.AbstractRows(draw(buffer), draw(offset), draw(buffer),
                                  draw(offset), LANES, U8)
        if kind == "splat":
            return H.HvxSplat(E.Const(3, U8), U8, 2 * LANES, pairwise=True)
        if kind == "vcombine":
            return H.HvxInstr("vcombine", (vec(depth - 1), vec(depth - 1)))
        if kind == "swizzle":
            return S.AbstractSwizzle(pair(depth - 1),
                                     draw(st.sampled_from(SWIZZLE_MODES)))
        return H.HvxInstr("vshuffvdd", (pair(depth - 1),))

    depth = draw(st.integers(0, 3))
    return vec(depth) if draw(st.booleans()) else pair(depth)


def reference_placeholders(expr) -> list:
    """Every placeholder in pre-order, with repeats: the whole walk."""
    return [node for node in expr if isinstance(node, PLACEHOLDER_KINDS)]


def reference_concrete(expr) -> bool:
    return not reference_placeholders(expr)


def reference_substitute(expr, mapping):
    """``substitute_many`` as it was: every node of the tree is visited,
    concrete subtrees included."""
    if isinstance(expr, PLACEHOLDER_KINDS):
        replacement = mapping.get(expr)
        if replacement is not None:
            return replacement
    children = expr.children
    if not children:
        return expr
    new_children = tuple(reference_substitute(c, mapping) for c in children)
    if all(a is b for a, b in zip(new_children, children)):
        return expr
    return expr.with_children(new_children)


def reference_rank(sketch, target) -> Ranking:
    """The ranking before nodes knew their concreteness: collect the
    placeholders by a whole walk, always resolve the mapping against
    itself, substitute by a whole walk and test concreteness by another;
    a combo that still held a placeholder had no cost."""
    placeholders = []
    for ph in reference_placeholders(sketch):
        if ph not in placeholders:
            placeholders.append(ph)
    if not placeholders:
        return Ranking((), 0, ((sketch, target.cost_of(sketch)),))
    option_lists, pruned = [], 0
    for ph in placeholders:
        options, was_pruned = swizzle_synth._ranked_realizations(ph, target)
        pruned += bool(was_pruned)
        option_lists.append(options)
    combos = []
    for combo in islice(product(*option_lists), MAX_COMBOS):
        mapping = dict(zip(placeholders, combo))
        for _ in range(len(placeholders)):
            resolved = {ph: reference_substitute(impl, mapping)
                        for ph, impl in mapping.items()}
            if resolved == mapping:
                break
            mapping = resolved
        expr = reference_substitute(sketch, mapping)
        combos.append((expr, target.cost_of(expr)
                       if reference_concrete(expr) else None))
    return Ranking(tuple(placeholders), pruned, tuple(combos))


@SETTINGS
@given(machine_sketches())
def test_concrete_flag_and_placeholders_match_the_walk(sketch):
    for node in sketch:
        assert node.concrete is reference_concrete(node)
        assert S.is_concrete(node) is node.concrete
        assert S.placeholders_of(node) == reference_placeholders(node)


def _assert_substituted(orig, new, mapping) -> None:
    """``new`` is ``orig`` with ``mapping`` applied, and every concrete
    subtree of ``orig`` comes back as the identical object."""
    if orig.concrete:
        assert new is orig
    elif orig in mapping:
        assert new is mapping[orig]
    else:
        assert type(new) is type(orig)
        for a, b in zip(orig.children, new.children, strict=True):
            _assert_substituted(a, b, mapping)


@SETTINGS
@given(machine_sketches(), st.data())
def test_substitute_many_matches_the_walk(sketch, data):
    target = get_target("hvx")
    mapping = {}
    for ph in reference_placeholders(sketch):
        options = list(target.realizations(ph))
        mapping[ph] = options[data.draw(st.integers(0, len(options) - 1))]
    got = substitute_many(sketch, mapping)
    assert got == reference_substitute(sketch, mapping)
    _assert_substituted(sketch, got, mapping)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(machine_sketches())
def test_rank_sketch_matches_the_reference_on_random_sketches(sketch):
    target = get_target("hvx")
    stats = SynthesisStats()
    ranking = rank_sketch(sketch, target, stats)
    assert ranking == reference_rank(sketch, target)
    assert all(expr.concrete for expr, _cost in ranking.combos)
    assert stats.total("pruned_grammar_hits") == ranking.pruned


RANKED_PAIRS = [("gaussian5x5", "hvx"), ("conv3x3a16", "neon"),
                ("sobel", "hvx")]


@pytest.mark.parametrize("kernel,target", RANKED_PAIRS)
def test_rank_sketch_matches_the_reference_on_compiled_sketches(
        kernel, target, monkeypatch):
    """Every sketch a cold compile ranks, among them sketches whose
    realizations hold placeholders (a layout swizzle around a sketch),
    ranks as the reference ranks it."""
    ranked = []
    real = lowering.rank_sketch

    def recording(sketch, tgt, stats):
        ranking = real(sketch, tgt, stats)
        ranked.append((sketch, tgt, ranking))
        return ranking

    monkeypatch.setattr(lowering, "rank_sketch", recording)
    compile_pipeline(get(kernel).build(), backend="rake", target=target)
    assert ranked
    resolved = 0
    for sketch, tgt, ranking in ranked:
        assert ranking == reference_rank(sketch, tgt)
        resolved += any(not impl.concrete
                        for ph in ranking.placeholders
                        for impl in swizzle_synth._ranked_realizations(
                            ph, tgt)[0])
    if target == "hvx":
        assert resolved > 0


# ---------------------------------------------------------------------------
# Footprints
# ---------------------------------------------------------------------------


def reference_footprint(spec) -> tuple:
    """``valuation.footprint`` as it was: a whole walk of the spec per
    call, loads and variables in pre-order, the first element type and
    dtype winning and spans merged by min/max."""
    buffers: dict = {}

    def add(buffer, elem, lo, hi):
        cur = buffers.get(buffer)
        if cur is None:
            buffers[buffer] = valuation.BufferSpec(buffer, elem, lo, hi)
        else:
            buffers[buffer] = valuation.BufferSpec(
                buffer, cur.elem, min(cur.lo, lo), max(cur.hi, hi))

    scalars: dict = {}
    for node in spec:
        if isinstance(node, (E.Load, U.LoadData)):
            add(node.buffer, node.elem, node.offset,
                node.offset + node.extent)
        elif isinstance(node, E.ScalarVar):
            scalars.setdefault(node.name, node.dtype)
        elif isinstance(node, U.BroadcastScalar):
            for sub in node.scalar:
                if isinstance(sub, E.Load):
                    add(sub.buffer, sub.elem, sub.offset,
                        sub.offset + sub.extent)
                elif isinstance(sub, E.ScalarVar):
                    scalars.setdefault(sub.name, sub.dtype)
    return (tuple(sorted(buffers.values(), key=lambda b: b.name)),
            tuple(sorted(scalars.items())))


ELEMS = st.sampled_from([U8, I8, U16, I16, U32, I32])


@st.composite
def mixed_ir_specs(draw):
    """IR specs that read one buffer at several element types and spans,
    with scalar loads and variables (some names at two dtypes) inside
    broadcasts, in trees of random shape."""
    lanes = draw(st.integers(2, 16))
    names = st.sampled_from("AB")
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["load", "scalar_load", "var"]))
        elem = draw(ELEMS)
        if kind == "load":
            terms.append(E.Cast(I64, E.Load(
                draw(names), draw(st.integers(-40, 40)), lanes, elem,
                draw(st.integers(1, 3)))))
        elif kind == "scalar_load":
            terms.append(E.Broadcast(E.Cast(I64, E.Load(
                draw(names), draw(st.integers(-40, 40)), 1, elem)), lanes))
        else:
            terms.append(E.Broadcast(E.Cast(I64, E.ScalarVar(
                draw(st.sampled_from("kt")), elem)), lanes))
    ops = st.sampled_from([E.Add, E.Sub, E.Max])
    while len(terms) > 1:
        i = draw(st.integers(0, len(terms) - 2))
        terms[i:i + 2] = [draw(ops)(terms[i], terms[i + 1])]
    return terms[0]


@st.composite
def mixed_uber_specs(draw):
    """Uber specs over reads of one buffer at several element types and
    broadcasts of scalar loads and variables."""
    lanes = draw(st.integers(2, 16))
    names = st.sampled_from("AB")

    def read():
        if draw(st.booleans()):
            return U.LoadData(draw(names), draw(st.integers(-40, 40)), lanes,
                              draw(ELEMS), draw(st.integers(1, 2)))
        scalar = E.Add(
            E.Cast(I32, E.Load(draw(names), draw(st.integers(-40, 40)), 1,
                               draw(ELEMS))),
            E.Cast(I32, E.ScalarVar(draw(st.sampled_from("kt")),
                                    draw(ELEMS))))
        return U.BroadcastScalar(scalar, I32, lanes)

    def mpy_add():
        n = draw(st.integers(1, 3))
        return U.VsMpyAdd(tuple(read() for _ in range(n)),
                          tuple(range(1, n + 1)), False, I32)

    expr = mpy_add()
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from([U.Maximum, U.Minimum, U.AbsDiff]))
        expr = op(expr, mpy_add()) if draw(st.booleans()) \
            else op(mpy_add(), expr)
        if isinstance(expr, U.AbsDiff):
            expr = U.Widen(expr, U32)
            expr = U.Narrow(expr, I32)
    return expr


#: one memo for every example, as an oracle keeps one for its lifetime
_SHARED_MEMO: dict = {}


@SETTINGS
@given(st.one_of(ir_exprs(), uber_exprs(), footprint_specs(),
                 mixed_ir_specs(), mixed_uber_specs()))
def test_memoized_footprint_is_the_reference(spec):
    want = reference_footprint(spec)
    assert valuation.footprint(spec) == want
    assert valuation.footprint(spec, _SHARED_MEMO) == want
    memo: dict = {}
    valuation.footprint(spec, memo)
    for node in memo:
        assert memo[node] == reference_footprint(node)
    assert valuation.buffer_specs_of(spec) == list(want[0])
    assert valuation.scalar_names_of(spec) == list(want[1])


def test_the_first_element_type_and_dtype_in_pre_order_win():
    wide = E.Cast(I32, E.Load("A", 0, 8, U8, 2))  # A[0, 15) as u8, first
    inner = E.Cast(I32, E.Load("A", 4, 8, U16, 2))  # A[4, 19) as u16
    narrow = E.Cast(I32, E.Load("A", 2, 8, U16))  # A[2, 10): inside
    k8 = E.Broadcast(E.Cast(I32, E.ScalarVar("k", U8)), 8)
    k16 = E.Broadcast(E.Cast(I32, E.ScalarVar("k", U16)), 8)
    scalar_load = E.Broadcast(E.Cast(I32, E.Load("K", 5, 1, I8)), 8)
    for spec in (E.Add(E.Add(wide, k8), E.Add(inner, k16)),
                 E.Add(wide, E.Add(E.Add(narrow, k8), inner)),
                 E.Add(E.Add(E.Add(wide, k8), narrow), E.Add(k16, inner))):
        buffers, scalars = valuation.footprint(spec)
        assert buffers[0] == valuation.BufferSpec("A", U8, 0, 19)
        assert scalars == (("k", U8),)
        assert (buffers, scalars) == reference_footprint(spec)
    buffers, _ = valuation.footprint(E.Add(scalar_load, wide))
    assert buffers == (valuation.BufferSpec("A", U8, 0, 15),
                       valuation.BufferSpec("K", I8, 5, 6))
    buffers, _ = valuation.footprint(E.Add(wide, narrow))
    assert buffers == (valuation.BufferSpec("A", U8, 0, 15),)
    uber = U.VsMpyAdd((U.LoadData("A", 0, 8, U8), U.LoadData("A", 4, 8, I8),
                       U.BroadcastScalar(E.Load("K", 3, 1, U16), I32, 8)),
                      (1, 2, 3), False, I32)
    assert valuation.footprint(uber) == (
        (valuation.BufferSpec("A", U8, 0, 12),
         valuation.BufferSpec("K", U16, 3, 4)), ())
    assert valuation.footprint(uber) == reference_footprint(uber)


def test_every_banked_spec_of_the_42_pairs_has_the_reference_footprint(
        monkeypatch):
    """Over a cold pass of the 42 pairs, the oracle hands each bank build
    its memo, which already holds the spec's footprint, and that
    footprint is the reference's."""
    seen = []
    real = valuation.environment_bank

    def recording(spec, *args, memo=None, **kwargs):
        assert memo is not None and spec in memo
        seen.append((spec, memo[spec]))
        return real(spec, *args, memo=memo, **kwargs)

    monkeypatch.setattr(valuation, "environment_bank", recording)
    for target in ("hvx", "neon"):
        for kernel in repro.workloads.base.names():
            compile_pipeline(get(kernel).build(), backend="rake",
                             target=target)
    assert len(seen) > 600
    for spec, footprint in seen:
        assert footprint == reference_footprint(spec)


# ---------------------------------------------------------------------------
# Lift trace
# ---------------------------------------------------------------------------


def sobel_row():
    return (B.widen(B.load("input", -1, 128, U8))
            + B.widen(B.load("input", 0, 128, U8)) * 2
            + B.widen(B.load("input", 1, 128, U8)))


def test_lazy_trace_equals_eager_rendering(monkeypatch):
    """Render each step as its node is lifted, from ``_lift``'s own
    argument and result, and compare with the trace rendered later."""
    eager = []
    real = Lifter._lift

    def rendering(self, e, banned=frozenset()):
        before = len(self.steps)
        lifted = real(self, e, banned)
        if len(self.steps) > before:
            eager.append((ir_printer.to_string(e),
                          uber_printer.to_string(lifted)))
        return lifted

    monkeypatch.setattr(Lifter, "_lift", rendering)
    lifter = Lifter(Oracle())
    lifter.lift(sobel_row())
    trace = lifter.trace
    assert trace and all(isinstance(step, LiftStep) for step in trace)
    assert [(s.source, s.result) for s in trace] == eager
    assert [s.rule for s in trace] == [rule for rule, *_ in lifter.steps]
    assert "(2 1 1)" in trace[-1].result


def test_selection_result_renders_the_lifters_trace():
    from repro import select_instructions

    result = select_instructions(B.widen(B.load("in", 0, 128, U8)))
    assert result.trace and result.trace == lifting.render_steps(
        result.steps)
    assert "steps" not in repr(result)


@pytest.mark.parametrize("kernel", ["mul", "gaussian3x3", "sobel"])
def test_an_unread_trace_renders_nothing(kernel, monkeypatch):
    """An untraced compile that never reads a trace calls no printer from
    lifting."""
    calls = []
    for module in (ir_printer, uber_printer):
        real = module.to_string
        monkeypatch.setattr(module, "to_string",
                            lambda *a, _real=real, **k: calls.append(1)
                            or _real(*a, **k))
    compiled = compile_pipeline(get(kernel).build(), backend="rake")
    assert compiled.stats.total("queries") > 0
    assert compiled.fallbacks == 0
    assert calls == []
