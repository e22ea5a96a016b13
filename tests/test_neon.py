"""Tests for the preliminary ARM Neon port (paper Section 6).

Same uber-instructions, different interpreter + grammars: the synthesis
machinery retargets by swapping the sketch function.
"""

import pytest

from repro.hvx import isa as H
from repro.hvx.values import Vec, VecPair
from repro.ir import builder as B
from repro.neon import NEON_VBYTES, neon_selector, select_instructions_neon
from repro.synthesis.oracle import Oracle
from repro.types import I16, U16, U8

L = 16  # u8 lanes in a Q register


def u8v(offset=0):
    return B.load("in", offset, L, U8)


def ops_of(program):
    return [n.op for n in program if isinstance(n, H.HvxInstr)]


def run(op, args, imms=()):
    return H.lookup(op).sem_fn(tuple(args), tuple(imms))


class TestNeonSemantics:
    def test_vmovl_in_order(self):
        out = run("neon.vmovl_u", [Vec(U8, (1, 250))])
        assert isinstance(out, VecPair)
        assert out.values == (1, 250)
        assert out.elem == U16

    def test_vmull_in_order_product(self):
        out = run("neon.vmull", [Vec(U8, (10, 20)), Vec(U8, (3, 4))])
        assert out.values == (30, 80)

    def test_vmlal(self):
        acc = VecPair(U16, (5, 5))
        out = run("neon.vmlal", [acc, Vec(U8, (2, 3)), Vec(U8, (10, 10))])
        assert out.values == (25, 35)

    def test_vaddw_widens_by_value(self):
        acc = VecPair(U16, (100, 100))
        out = run("neon.vaddw", [acc, Vec(U8, (255, 1))])
        assert out.values == (355, 101)

    def test_vabal(self):
        acc = VecPair(U16, (10, 10))
        out = run("neon.vabal", [acc, Vec(U8, (5, 9)), Vec(U8, (9, 5))])
        assert out.values == (14, 14)

    def test_vqmovun_saturates(self):
        p = VecPair(I16, (-5, 300))
        assert run("neon.vqmovun", [p]).values == (0, 255)

    def test_vqrshrun_fused(self):
        p = VecPair(I16, (100, 5000))
        out = run("neon.vqrshrun_n", [p], imms=(4,))
        assert out.values == ((100 + 8) >> 4, 255)

    def test_vext_window(self):
        out = run("neon.vext", [Vec(U8, (0, 1, 2, 3)), Vec(U8, (4, 5, 6, 7))],
                  imms=(3,))
        assert out.values == (3, 4, 5, 6)

    def test_vuzp_vzip_roundtrip(self):
        p = VecPair(U8, tuple(range(8)))
        assert run("neon.vzip", [run("neon.vuzp", [p])]) == p

    def test_vrhadd(self):
        out = run("neon.vrhadd", [Vec(U8, (5,)), Vec(U8, (6,))])
        assert out.values == (6,)


class TestNeonSynthesis:
    def test_kernel_uses_vmlal_chain(self):
        row = B.widen(u8v(-1)) + B.widen(u8v(0)) * 2 + B.widen(u8v(1))
        result = select_instructions_neon(row)
        ops = ops_of(result.program)
        assert "neon.vmlal" in ops or "neon.vmull" in ops
        assert "vtmpy" not in ops  # no HVX instructions leak in
        assert Oracle().equivalent(row, result.program)

    def test_fused_narrow(self):
        row = B.widen(u8v(-1)) + B.widen(u8v(0)) * 2 + B.widen(u8v(1))
        e = B.cast(U8, (row + 8) >> 4)
        result = select_instructions_neon(e)
        ops = ops_of(result.program)
        assert any(op in ("neon.vrshrn_n", "neon.vqrshrun_n") for op in ops)
        assert Oracle().equivalent(e, result.program)

    def test_widening_add_uses_vaddw(self):
        e = B.load("acc", 0, L, U16) + B.widen(u8v())
        result = select_instructions_neon(e)
        ops = ops_of(result.program)
        assert "neon.vaddw" in ops or "neon.vmlal" in ops
        assert Oracle().equivalent(e, result.program)

    def test_absd_and_average(self):
        e = B.absd(u8v(0), u8v(1))
        assert "neon.vabd" in ops_of(select_instructions_neon(e).program)
        avg = B.cast(U8, (B.widen(u8v(0)) + B.widen(u8v(1)) + 1) >> 1)
        assert "neon.vrhadd" in ops_of(select_instructions_neon(avg).program)

    def test_unaligned_windows_use_vext(self):
        e = B.widen(u8v(1)) + B.widen(u8v(2))
        result = select_instructions_neon(e)
        assert "neon.vext" in ops_of(result.program)
        assert Oracle().equivalent(e, result.program)

    def test_saturating_clamp(self):
        e = B.cast(U8, B.clamp(B.widen(u8v()) + B.widen(u8v(1)), 0, 255))
        result = select_instructions_neon(e)
        ops = ops_of(result.program)
        assert "neon.vqmovun" in ops or "neon.vqadd" in ops
        assert Oracle().equivalent(e, result.program)

    def test_selector_stats_accumulate(self):
        selector = neon_selector()
        selector.select(B.widen(u8v()))
        assert selector.stats.total("queries") > 0

    def test_vector_width_is_q_register(self):
        assert NEON_VBYTES == 16
