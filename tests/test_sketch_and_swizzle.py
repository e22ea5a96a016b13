"""Tests for abstract data movement (Section 4) and swizzle synthesis
(Section 5): every placeholder's realizations implement its optimistic
semantics exactly."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EvaluationError, RealizationError, SynthesisError
from repro.hvx import interp as hvx_interp
from repro.hvx import isa as H
from repro.hvx.cost import INFINITE_COST, cost_of
from repro.ir.interp import BufferView, Environment
from repro.synthesis.oracle import LAYOUT_INORDER, Oracle
from repro.synthesis.sketch import (
    AbstractPairWindow,
    AbstractRows,
    AbstractSwizzle,
    AbstractWindow,
    SWIZZLE_DEINTERLEAVE,
    SWIZZLE_IDENTITY,
    SWIZZLE_INTERLEAVE,
    is_concrete,
    placeholders_of,
)
from repro.synthesis import swizzle_synth
from repro.synthesis.swizzle_synth import (
    Ranking,
    rank_sketch,
    set_placeholder_recorder,
    substitute_many,
    synthesize_swizzles,
)
from repro.targets import get_target
from repro.types import U16, U8


def env(n=512, origin=256):
    return Environment(buffers={"in": BufferView(list(range(n)), U8, origin)})


class TestPlaceholders:
    def test_window_optimistic_semantics(self):
        w = AbstractWindow("in", -3, 8, U8)
        got = hvx_interp.evaluate(w, env())
        assert got.values == env().buffer("in").read(-3, 8)

    @given(st.integers(-32, 32), st.sampled_from([1, 2, 4]))
    @settings(max_examples=40)
    def test_window_realizations_match(self, offset, stride):
        w = AbstractWindow("in", offset, 8, U8, stride)
        want = hvx_interp.evaluate(w, env()).values
        realized = list(get_target("hvx").realizations(w))
        assert realized
        for impl in realized:
            assert is_concrete(impl)
            assert hvx_interp.evaluate(impl, env()).values == want

    @given(st.integers(-32, 32))
    @settings(max_examples=30)
    def test_pair_window_realizations_match(self, offset):
        w = AbstractPairWindow("in", offset, 16, U8)
        want = hvx_interp.evaluate(w, env()).values
        for impl in get_target("hvx").realizations(w):
            assert hvx_interp.evaluate(impl, env()).values == want

    def test_rows_realizations_match(self):
        rows = AbstractRows("in", -1, "in", 9, 8, U8)
        want = hvx_interp.evaluate(rows, env()).values
        for impl in get_target("hvx").realizations(rows):
            assert hvx_interp.evaluate(impl, env()).values == want

    def test_swizzle_modes(self):
        pair = H.HvxInstr("vcombine", (
            H.HvxLoad("in", 0, 8, U8), H.HvxLoad("in", 8, 8, U8)))
        ident = AbstractSwizzle(pair, SWIZZLE_IDENTITY)
        assert hvx_interp.evaluate(ident, env()).values == \
            hvx_interp.evaluate(pair, env()).values
        inter = AbstractSwizzle(pair, SWIZZLE_INTERLEAVE)
        (only,) = list(get_target("hvx").realizations(inter))
        assert only.op == "vshuffvdd"
        assert hvx_interp.evaluate(inter, env()).values == \
            hvx_interp.evaluate(only, env()).values

    def test_bad_swizzle_mode(self):
        with pytest.raises(EvaluationError):
            AbstractSwizzle(H.HvxLoad("in", 0, 8, U8), "transpose")

    def test_placeholders_found(self):
        w = AbstractWindow("in", 0, 8, U8)
        expr = H.HvxInstr("vadd", (w, w))
        assert placeholders_of(expr) == [w, w]
        assert not is_concrete(expr)


class TestSubstitute:
    def test_replaces_all_occurrences(self):
        w = AbstractWindow("in", 0, 8, U8)
        expr = H.HvxInstr("vadd", (w, w))
        load = H.HvxLoad("in", 0, 8, U8)
        out = substitute_many(expr, {w: load})
        assert is_concrete(out)
        assert out.args == (load, load)


class TestSwizzleSynthesis:
    def test_concretizes_and_verifies(self, oracle):
        from repro.ir import builder as B

        spec = B.load("in", -3, 8, U8)
        sketch = AbstractWindow("in", -3, 8, U8)
        result = synthesize_swizzles(spec, sketch, LAYOUT_INORDER, oracle,
                                     INFINITE_COST)
        assert result is not None
        impl, cost = result
        assert is_concrete(impl)
        assert oracle.equivalent(spec, impl)

    def test_budget_rejection(self, oracle):
        from repro.ir import builder as B

        spec = B.load("in", -3, 8, U8)
        sketch = AbstractWindow("in", -3, 8, U8)
        zero_budget = cost_of(H.HvxLoad("in", 0, 8, U8))  # 1 aligned load
        result = synthesize_swizzles(spec, sketch, LAYOUT_INORDER, oracle,
                                     zero_budget)
        assert result is None

    def test_picks_cheapest_first(self, oracle):
        from repro.ir import builder as B

        spec = B.load("in", 0, 8, U8)  # aligned
        sketch = AbstractWindow("in", 0, 8, U8)
        impl, cost = synthesize_swizzles(spec, sketch, LAYOUT_INORDER, oracle,
                                         INFINITE_COST)
        assert isinstance(impl, H.HvxLoad)
        assert impl.aligned


class TestRanking:
    """``rank_sketch`` costs a sketch's combos without asking the oracle,
    and ``Ranking.exceeds`` is the cost bound Algorithm 2 checks first."""

    @staticmethod
    def _rank(sketch, target="hvx"):
        from repro.synthesis.stats import SynthesisStats

        stats = SynthesisStats()
        with stats.stage("swizzling"):
            return rank_sketch(sketch, get_target(target), stats), stats

    def test_ranks_without_a_query_and_feeds_the_recorder(self):
        seen = []
        set_placeholder_recorder(lambda ph, target: seen.append(ph))
        try:
            w = AbstractWindow("in", -3, 8, U8)
            ranking, stats = self._rank(H.HvxInstr("vadd", (w, w)))
        finally:
            set_placeholder_recorder(None)
        assert seen == [w] and ranking.placeholders == (w,)
        assert stats.total("queries") == 0
        assert ranking.combos and all(
            is_concrete(expr) and cost == cost_of(expr)
            for expr, cost in ranking.combos)

    def test_a_sketch_without_placeholders_is_its_own_combo(self):
        load = H.HvxLoad("in", 0, 8, U8)
        ranking, _stats = self._rank(load)
        assert ranking.placeholders == ()
        assert ranking.combos == ((load, cost_of(load)),)

    def test_bound_rejects_at_or_over_the_cheapest_combo(self):
        ranking, _stats = self._rank(AbstractWindow("in", 0, 8, U8))
        cheapest = min(cost for _expr, cost in ranking.combos)
        assert ranking.exceeds(cheapest)  # a combo equal to β cannot win
        assert not ranking.exceeds(INFINITE_COST)
        assert Ranking((), 0, ()).exceeds(INFINITE_COST)  # nothing to try

    def test_bound_rejects_what_synthesize_swizzles_answers_unasked(
            self, oracle):
        from repro.ir import builder as B

        spec = B.load("in", 0, 8, U8)
        sketch = AbstractWindow("in", 0, 8, U8)
        ranking, _stats = self._rank(sketch)
        cheapest = min(cost for _expr, cost in ranking.combos)
        assert synthesize_swizzles(spec, sketch, LAYOUT_INORDER, oracle,
                                   cheapest, ranking=ranking) is None
        assert oracle.stats.total("cache_misses") == 0
        assert synthesize_swizzles(spec, sketch, LAYOUT_INORDER, oracle,
                                   INFINITE_COST, ranking=ranking)

    def test_a_realization_holding_a_foreign_placeholder_raises(
            self, monkeypatch):
        """A realization may embed only placeholders its sketch holds;
        one that embeds another breaks the grammar's contract, which is
        a bug, not "no implementation"."""
        outer = AbstractWindow("in", 0, 8, U8)
        inner = AbstractWindow("in", 1, 8, U8)
        real = swizzle_synth._ranked_realizations
        monkeypatch.setattr(
            swizzle_synth, "_ranked_realizations",
            lambda ph, target: ([inner], False) if ph == outer
            else real(ph, target))
        with pytest.raises(RealizationError) as info:
            self._rank(outer)
        assert not isinstance(info.value, SynthesisError)

    def test_a_broken_grammar_degrades_the_expression(self, monkeypatch):
        """The pipeline's crash handling substitutes the verified baseline
        for the expression and marks the compile degraded."""
        from repro.pipeline import compile_pipeline
        from repro.workloads.base import get

        real = swizzle_synth._ranked_realizations

        def foreign(ph, target):
            options, pruned = real(ph, target)
            if isinstance(ph, AbstractWindow):
                return [AbstractWindow(ph.buffer, ph.offset + 1, ph.lanes,
                                       ph.elem, ph.stride)], pruned
            return options, pruned

        monkeypatch.setattr(swizzle_synth, "_ranked_realizations", foreign)
        compiled = compile_pipeline(get("mul").build(), backend="rake")
        assert compiled.degraded
        assert all(ce.selector != "rake" for cs in compiled.stages
                   for ce in cs.exprs)
