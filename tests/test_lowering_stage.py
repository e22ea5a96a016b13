"""Tests for stages 2+3 — Algorithm 2's sketch + swizzle synthesis."""

import pytest

from repro.errors import SynthesisError
from repro.hvx import cost as hvx_cost
from repro.hvx import isa as H
from repro.ir import builder as B
from repro.synthesis import grammar
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
