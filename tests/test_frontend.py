"""Tests for the mini-Halide frontend: algorithms, schedules, lowering."""

import pytest

from repro.errors import LoweringError, ScheduleError
from repro.frontend import (
    FParam,
    Func,
    ImageParam,
    Var,
    fabsd,
    fcast,
    fclamp,
    fmax,
    fselect,
    lower_pipeline,
    reachable_funcs,
)
from repro.frontend.lowering import DEFAULT_ROW_STRIDE, _index_affine, Affine
from repro.ir import expr as E
from repro.ir.traversal import loads_of
from repro.types import I32, U16, U8


def make_blur():
    x, y = Var("x"), Var("y")
    inp = ImageParam("input", U8, 2)
    in16 = Func("t_in16", U16)
    in16[x, y] = fcast(U16, inp(x, y))
    out = Func("t_blur", U8)
    out[x, y] = fcast(
        U8, (in16(x - 1, y) + 2 * in16(x, y) + in16(x + 1, y) + 2) >> 2
    )
    return out


class TestFuncDefinition:
    def test_double_definition_rejected(self):
        x = Var("x")
        f = Func("f", U8)
        f[x] = fcast(U8, 0)
        with pytest.raises(ScheduleError):
            f[x] = fcast(U8, 1)

    def test_non_var_key_rejected(self):
        f = Func("f", U8)
        with pytest.raises(ScheduleError):
            f[3] = fcast(U8, 0)

    def test_update_requires_definition(self):
        f = Func("f", U8)
        with pytest.raises(ScheduleError):
            f.update(fcast(U8, 0))

    def test_image_param_arity(self):
        inp = ImageParam("i", U8, 2)
        x = Var("x")
        with pytest.raises(ScheduleError):
            inp(x)

    def test_schedule_chaining(self):
        f = make_blur().hexagon().tile(128, 4).vectorize(64).prefetch(2)
        assert f.schedule.hexagon
        assert f.schedule.tile == (128, 4)
        assert f.schedule.vectorize_lanes == 64
        assert f.schedule.prefetch == 2


class TestAffine:
    def test_var_plus_const(self):
        x = Var("x")
        aff = _index_affine(x + 3, {x: Affine({x: 1}, 0)})
        assert aff.coeff(x) == 1 and aff.const == 3

    def test_scaled(self):
        x = Var("x")
        aff = _index_affine(2 * x + 1, {x: Affine({x: 1}, 0)})
        assert aff.coeff(x) == 2 and aff.const == 1

    def test_shift_as_scale(self):
        x = Var("x")
        aff = _index_affine(x << 2, {x: Affine({x: 1}, 0)})
        assert aff.coeff(x) == 4

    def test_non_affine_rejected(self):
        x = Var("x")
        with pytest.raises(LoweringError):
            _index_affine(x * x, {x: Affine({x: 1}, 0)})


class TestLowering:
    def test_inline_produces_single_stage(self):
        low = lower_pipeline(make_blur(), vector_bytes=128)
        assert len(low.stages) == 1
        assert low.stages[0].lanes == 128

    def test_loads_have_relative_offsets(self):
        low = lower_pipeline(make_blur(), vector_bytes=128)
        (stage,) = low.stages
        offsets = sorted(ld.offset for ld in loads_of(stage.exprs[0]))
        assert offsets == [-1, 0, 1]

    def test_row_offsets_use_row_stride(self):
        x, y = Var("x"), Var("y")
        inp = ImageParam("input", U8, 2)
        out = Func("vert", U8)
        out[x, y] = fmax(inp(x, y - 1), inp(x, y + 1))
        low = lower_pipeline(out, vector_bytes=128)
        offsets = sorted(ld.offset for ld in loads_of(low.stages[0].exprs[0]))
        assert offsets == [-DEFAULT_ROW_STRIDE, DEFAULT_ROW_STRIDE]

    def test_strided_access(self):
        x, y = Var("x"), Var("y")
        inp = ImageParam("input", U8, 2)
        out = Func("pool", U8)
        out[x, y] = fmax(inp(2 * x, y), inp(2 * x + 1, y))
        low = lower_pipeline(out, vector_bytes=128)
        loads = loads_of(low.stages[0].exprs[0])
        assert {ld.stride for ld in loads} == {2}
        assert sorted(ld.offset for ld in loads) == [0, 1]

    def test_compute_root_splits_stages(self):
        x, y = Var("x"), Var("y")
        inp = ImageParam("input", U8, 2)
        mid = Func("t_mid", U16)
        mid[x, y] = fcast(U16, inp(x, y)) * 2
        mid.compute_root()
        out = Func("t_out", U8)
        out[x, y] = fcast(U8, mid(x, y) >> 1)
        low = lower_pipeline(out)
        assert [s.name for s in low.stages] == ["t_mid", "t_out"]
        # the consumer reads the mid buffer, not the input
        assert loads_of(low.stages[1].exprs[0])[0].buffer == "t_mid"

    def test_updates_become_extra_exprs(self):
        x, y, r = Var("x"), Var("y"), Var("r")
        inp = ImageParam("input", U8, 2)
        acc = Func("t_acc", U16)
        acc[x, y] = fcast(U16, inp(x, y))
        acc.update(acc(x, y) + fcast(U16, inp(x, y + r + 1)), extent=7)
        low = lower_pipeline(acc)
        (stage,) = low.stages
        assert len(stage.exprs) == 2
        buffers = {ld.buffer for ld in loads_of(stage.exprs[1])}
        assert buffers == {"t_acc", "input"}

    def test_scalar_param_becomes_scalar_var(self):
        x, y = Var("x"), Var("y")
        inp = ImageParam("input", U8, 2)
        k = FParam("k", U8)
        out = Func("t_scaled", U16)
        out[x, y] = fcast(U16, inp(x, y)) * fcast(U16, k)
        low = lower_pipeline(out)
        expr = low.stages[0].exprs[0]
        names = [n.name for n in expr if isinstance(n, E.ScalarVar)]
        assert names == ["k"]

    def test_select_lowering(self):
        x, y = Var("x"), Var("y")
        inp = ImageParam("input", U8, 2)
        out = Func("t_sel", U8)
        out[x, y] = fselect(inp(x, y) > inp(x + 1, y), inp(x, y), 0)
        low = lower_pipeline(out)
        expr = low.stages[0].exprs[0]
        assert any(isinstance(n, E.Select) for n in expr)

    def test_vector_var_in_wrong_dim_rejected(self):
        x, y = Var("x"), Var("y")
        inp = ImageParam("input", U8, 2)
        out = Func("t_bad", U8)
        out[x, y] = inp(y, x)
        with pytest.raises(LoweringError):
            lower_pipeline(out)

    def test_qualifying_expressions_skip_trivial(self):
        x, y = Var("x"), Var("y")
        inp = ImageParam("input", U8, 2)
        copy = Func("t_copy", U8)
        copy[x, y] = inp(x, y)
        low = lower_pipeline(copy)
        assert low.vector_expressions() == []

    def test_reachable_funcs_order(self):
        out = make_blur()
        funcs = reachable_funcs(out)
        assert funcs[-1] is out
