"""Tests for stages 2+3 — Algorithm 2's sketch + swizzle synthesis."""

import pytest

from repro.errors import SynthesisError, UnsupportedExpressionError
from repro.hvx import cost as hvx_cost
from repro.hvx import isa as H
from repro.ir import builder as B
from repro.synthesis import grammar, lowering, swizzle_synth
from repro.synthesis.lifting import Lifter
from repro.synthesis.lowering import Lowerer, LoweringOptions
from repro.synthesis.oracle import LAYOUT_DEINTERLEAVED, LAYOUT_INORDER, Oracle
from repro.types import I32, U16, U8
from repro.uber import LoadData, Narrow, VsMpyAdd, Widen


def u8v(offset=0, lanes=128):
    return B.load("in", offset, lanes, U8)


def ops_of(program):
    return [n.op for n in program if isinstance(n, H.HvxInstr)]


def lower_ir(e, options=None, oracle=None):
    oracle = oracle or Oracle()
    lifted = Lifter(oracle).lift(e)
    return Lowerer(oracle, options=options or LoweringOptions()).lower(lifted)


class TestShapes:
    def test_shape_of(self):
        from repro.types import VectorType

        assert grammar.shape_of(VectorType(U8, 128), 128) == "vec"
        assert grammar.shape_of(VectorType(U16, 128), 128) == "pair"
        from repro.errors import UnsupportedExpressionError

        with pytest.raises(UnsupportedExpressionError):
            grammar.shape_of(VectorType(U8, 64), 128)


class TestComputeSelection:
    def test_horizontal_kernel_uses_vtmpy(self):
        row = B.widen(u8v(-1)) + B.widen(u8v(0)) * 2 + B.widen(u8v(1))
        program = lower_ir(row)
        assert "vtmpy" in ops_of(program)

    def test_vertical_kernel_uses_vmpa_chain(self):
        W = 512
        col = B.widen(u8v(-W)) + B.widen(u8v(0)) * 2 + B.widen(u8v(W))
        program = lower_ir(col)
        ops = ops_of(program)
        assert "vmpa" in ops
        assert "vtmpy" not in ops  # rows are not contiguous

    def test_widen_uses_extension(self):
        program = lower_ir(B.widen(u8v()))
        assert "vzxt" in ops_of(program)

    def test_fused_narrowing_shift(self):
        row = B.widen(u8v(-1)) + B.widen(u8v(0)) * 2 + B.widen(u8v(1))
        program = lower_ir(B.cast(U8, (row + 8) >> 4))
        ops = ops_of(program)
        # the one-instruction fused narrow (semantic reasoning: never
        # saturates, so the sat variant is admissible)
        assert any(op.startswith("vasrn") for op in ops) \
            or "vshuffeb" in ops

    def test_strided_pool_uses_vdmpy(self):
        a = B.load("in", 0, 128, U8, stride=2)
        b = B.load("in", 1, 128, U8, stride=2)
        e = B.widen(a) + B.widen(b)
        program = lower_ir(e)
        assert "vdmpy" in ops_of(program)

    def test_vmpyie_with_range_proof(self):
        # the l2norm pattern: the halfword operand derives from a logical
        # shift in the same expression, so its sign bit is provably clear.
        h = B.cast(B.load("in", 0, 64, U16).type.elem.widened().narrowed(),
                   B.shr(B.load("in", 0, 64, U16), 1))
        from repro.types import I16

        h = B.cast(I16, B.shr(B.load("in", 0, 64, U16), 1))
        k = B.broadcast(B.var("inv", I32), 64)
        program = lower_ir(k * B.cast(I32, h))
        assert "vmpyie" in ops_of(program)

    def test_vmpyie_rejected_without_proof(self):
        from repro.types import I16

        h = B.load("in", 0, 64, I16)  # full range: evens may be negative
        k = B.broadcast(B.var("inv", I32), 64)
        program = lower_ir(k * B.cast(I32, h))
        assert "vmpyie" not in ops_of(program)

    def test_every_program_is_equivalent(self):
        oracle = Oracle()
        exprs = [
            B.widen(u8v(-1)) + B.widen(u8v(0)) * 2 + B.widen(u8v(1)),
            B.cast(U8, B.clamp(B.widen(u8v()) + B.widen(u8v(1)), 0, 255)),
            B.absd(u8v(0), u8v(1)),
            B.maximum(u8v(0), B.minimum(u8v(1), u8v(2))),
        ]
        for e in exprs:
            program = lower_ir(e, oracle=oracle)
            assert Oracle().equivalent(e, program)


class TestOptions:
    def test_backtracking_improves_or_matches_cost(self):
        row = B.widen(u8v(-1)) + B.widen(u8v(0)) * 2 + B.widen(u8v(1))
        e = B.cast(U8, (row + 8) >> 4)
        with_bt = lower_ir(e, LoweringOptions(backtracking=True))
        without_bt = lower_ir(e, LoweringOptions(backtracking=False))
        assert hvx_cost.cost_of(with_bt).key <= hvx_cost.cost_of(without_bt).key

    def test_lane0_pruning_reduces_full_checks(self):
        row = B.widen(u8v(-1)) + B.widen(u8v(0)) * 2 + B.widen(u8v(1))
        o_pruned = Oracle()
        lower_ir(row, LoweringOptions(lane0_pruning=True), o_pruned)
        o_full = Oracle()
        lower_ir(row, LoweringOptions(lane0_pruning=False), o_full)
        # pruning adds cheap queries; both must find an implementation
        assert o_pruned.stats.stages["sketching"].queries >= \
            o_full.stats.stages["sketching"].queries

    def test_layout_search_off_still_correct(self):
        row = B.widen(u8v(-1)) + B.widen(u8v(0)) * 2 + B.widen(u8v(1))
        e = B.absd(row, row + B.broadcast(0, 128, U16))
        program = lower_ir(
            B.absd(
                B.widen(u8v(-1)) + B.widen(u8v(0)) * 2 + B.widen(u8v(1)),
                B.widen(u8v(511)) + B.widen(u8v(512)) * 2 + B.widen(u8v(513)),
            ),
            LoweringOptions(layout_search=False),
        )
        assert Oracle().equivalent(
            B.absd(
                B.widen(u8v(-1)) + B.widen(u8v(0)) * 2 + B.widen(u8v(1)),
                B.widen(u8v(511)) + B.widen(u8v(512)) * 2 + B.widen(u8v(513)),
            ),
            program,
        )

    def test_layout_search_enables_deferred_interleave(self):
        # With layout search, the absd of two vtmpy rows happens in the
        # deinterleaved domain with a single re-order afterwards.
        e = B.absd(
            B.widen(u8v(-1)) + B.widen(u8v(0)) * 2 + B.widen(u8v(1)),
            B.widen(u8v(511)) + B.widen(u8v(512)) * 2 + B.widen(u8v(513)),
        )
        program = lower_ir(e, LoweringOptions(layout_search=True))
        ops = ops_of(program)
        if "vtmpy" in ops:
            assert ops.count("vshuffvdd") <= 1

    def test_stats_attribution(self):
        oracle = Oracle()
        lower_ir(B.widen(u8v()), oracle=oracle)
        assert oracle.stats.stages["sketching"].queries > 0
        assert oracle.stats.stages["swizzling"].queries > 0


def test_lowerer_annotations_resolve():
    """Every annotation on ``Lowerer`` names something the module imports."""
    import inspect
    import typing

    hints = {
        name: typing.get_type_hints(fn)
        for name, fn in inspect.getmembers(Lowerer, inspect.isfunction)
    }
    assert hints["_adapt_layout"]["sketch"] is grammar.Sketch
    assert hints["_child"]["return"] == H.HvxExpr | None
    typing.get_type_hints(Lowerer)


# -- Algorithm 2's cost bound, checked before the sketch queries --------------

#: pairs on which the bound is checked against the loop it shortens
BOUND_PAIRS = [("gaussian5x5", "hvx"), ("conv3x3a16", "neon"),
               ("sobel", "hvx")]


def _reference_lower(self, e, layout):
    """Algorithm 2 with the cost bound last, as it ran before the bound
    moved ahead of the checks: each sketch gets its lane-0 check, its full
    check, then ``synthesize_swizzles``, which ranks it itself."""
    key = (e, layout)
    if key in self._memo:
        return self._memo[key]
    if layout == LAYOUT_DEINTERLEAVED and not self.options.layout_search:
        self._memo[key] = None
        return None
    self._memo[key] = None
    best, beta, examined = None, self.target.infinite_cost, 0
    try:
        sketch_iter = self.target.sketches(e, self._child)
    except UnsupportedExpressionError:
        return None
    stats = self.oracle.stats
    for sketch in sketch_iter:
        if examined >= self.options.max_sketches:
            break
        examined += 1
        adapted = self._adapt_layout(sketch, layout)
        if adapted is None:
            continue
        with stats.stage("sketching"):
            if self.options.lane0_pruning and (
                    not self.oracle.equivalent_lane0(e, adapted, layout)):
                continue
            if not self.oracle.equivalent(e, adapted, layout):
                continue
        with stats.stage("swizzling"):
            result = swizzle_synth.synthesize_swizzles(
                e, adapted, layout, self.oracle, beta, target=self.target)
        if result is None:
            continue
        best, beta = result
        if not self.options.backtracking:
            break
    self._memo[key] = best
    return best


def _selection(kernel, target, reference=False, options=None):
    """``(rows, stats, sketches pulled)`` of one cold compile: each row is
    a selected program's listing and cost key."""
    from repro.hvx import program_listing
    from repro.pipeline import compile_pipeline
    from repro.targets import TargetDescription, get_target
    from repro.workloads.base import get

    pulled = [0]
    real_sketches = TargetDescription.sketches

    def counted(self, e, child):
        sketches = real_sketches(self, e, child)

        def pull():
            for sketch in sketches:
                pulled[0] += 1
                yield sketch
        return pull()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TargetDescription, "sketches", counted)
        if reference:
            mp.setattr(Lowerer, "_lower", _reference_lower)
        compiled = compile_pipeline(get(kernel).build(), backend="rake",
                                    target=target, options=options)
    assert not compiled.degraded
    cost_of = get_target(target).cost_of
    rows = [(cs.name, ce.selector, program_listing(ce.program),
             cost_of(ce.program).key)
            for cs in compiled.stages for ce in cs.exprs
            if ce.selector != "trivial"]
    return rows, compiled.stats, pulled[0]


@pytest.mark.parametrize("kernel,target", BOUND_PAIRS)
def test_bound_selects_what_the_checks_first_loop_selects(kernel, target):
    rows, stats, pulled = _selection(kernel, target)
    ref_rows, ref_stats, ref_pulled = _selection(kernel, target,
                                                 reference=True)
    assert rows == ref_rows
    assert pulled == ref_pulled
    # The bound asks no query the reference does not, and saves some.
    assert stats.stages["lifting"].queries == \
        ref_stats.stages["lifting"].queries
    assert stats.total("queries") < ref_stats.total("queries")
    assert stats.total("budget_pruned") > 0
    assert ref_stats.total("budget_pruned") == 0


@pytest.mark.parametrize("options", [
    LoweringOptions(backtracking=False),
    LoweringOptions(max_sketches=2),
    LoweringOptions(max_sketches=5),
    LoweringOptions(lane0_pruning=False),
])
def test_bound_keeps_each_lowering_option(options):
    """``backtracking=False`` never has a finite β to bound by, and a
    rejected sketch still counts toward ``max_sketches``."""
    rows, stats, pulled = _selection("gaussian5x5", "hvx", options=options)
    ref_rows, ref_stats, ref_pulled = _selection(
        "gaussian5x5", "hvx", reference=True, options=options)
    assert rows == ref_rows
    assert pulled == ref_pulled
    if not options.backtracking:
        assert stats.total("budget_pruned") == 0
        assert stats.total("queries") == ref_stats.total("queries")


def _ranked_sketches(kernel, target):
    """Every sketch the bound ranked in one cold compile, as
    ``(spec, sketch, layout, beta, rejected)``, and every
    ``(spec, candidate, layout)`` a lane-0 or full check was asked."""
    from repro.pipeline import compile_pipeline
    from repro.workloads.base import get

    lowering_stack, ranked, asked = [], [], set()
    real_lower = Lowerer._lower
    real_rank = lowering.rank_sketch
    real_exceeds = swizzle_synth.Ranking.exceeds

    def lower(self, e, layout):
        lowering_stack.append((e, layout))
        try:
            return real_lower(self, e, layout)
        finally:
            lowering_stack.pop()

    def rank(sketch, tgt, stats):
        ranking = real_rank(sketch, tgt, stats)
        ranked.append([*lowering_stack[-1], sketch, ranking])
        return ranking

    def exceeds(self, budget):
        rejected = real_exceeds(self, budget)
        if ranked and ranked[-1][3] is self and len(ranked[-1]) == 4:
            ranked[-1] += [budget, rejected]
        return rejected

    def spy(name):
        real = getattr(Oracle, name)

        def asking(self, spec, candidate, layout=LAYOUT_INORDER):
            asked.add((spec, candidate, layout))
            return real(self, spec, candidate, layout)
        return asking

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Lowerer, "_lower", lower)
        mp.setattr(lowering, "rank_sketch", rank)
        mp.setattr(swizzle_synth.Ranking, "exceeds", exceeds)
        mp.setattr(Oracle, "equivalent", spy("equivalent"))
        mp.setattr(Oracle, "equivalent_lane0", spy("equivalent_lane0"))
        compile_pipeline(get(kernel).build(), backend="rake", target=target)
    return [(e, sketch, layout, beta, rejected)
            for e, layout, sketch, _ranking, beta, rejected in ranked], asked


class _CountingOracle(Oracle):
    """An oracle that counts the checks it is asked."""

    asked = 0

    def equivalent(self, spec, candidate, layout=LAYOUT_INORDER):
        self.asked += 1
        return super().equivalent(spec, candidate, layout)

    def equivalent_lane0(self, spec, candidate, layout=LAYOUT_INORDER):
        self.asked += 1
        return super().equivalent_lane0(spec, candidate, layout)


@pytest.mark.parametrize("kernel,target", BOUND_PAIRS)
def test_bound_rejects_exactly_what_swizzling_cannot_use(kernel, target):
    """A rejected sketch is asked nothing, and ``synthesize_swizzles`` at
    the same β would return ``None`` asking nothing; a sketch the bound
    lets through would make it ask."""
    from repro.targets import get_target

    ranked, asked = _ranked_sketches(kernel, target)
    assert sum(rejected for *_rest, rejected in ranked) > 0
    tgt = get_target(target)
    oracle = _CountingOracle()
    for spec, sketch, layout, beta, rejected in ranked:
        oracle.asked = 0
        result = swizzle_synth.synthesize_swizzles(spec, sketch, layout,
                                                   oracle, beta, target=tgt)
        if rejected:
            assert result is None
            assert oracle.asked == 0
            assert (spec, sketch, layout) not in asked
        else:
            assert oracle.asked > 0
