"""Tests for the equivalence oracle and valuation generation."""

import gc
import inspect
import json
import weakref

from repro.hvx import isa as H
from repro.ir import builder as B
from repro.synthesis.engine import CACHE_FILE_NAME, OracleCache
from repro.synthesis.oracle import (
    LAYOUT_DEINTERLEAVED,
    LAYOUT_INORDER,
    Oracle,
    denote,
)
from repro.synthesis.valuation import (
    buffer_specs_of,
    environment_bank,
    make_environment,
    scalar_names_of,
)
from repro.types import I16, U16, U8
from repro.ir import expr as E


def u8v(offset=0, lanes=8):
    return B.load("in", offset, lanes, U8)


class TestValuation:
    def test_buffer_specs_merge(self):
        e = u8v(-1) + u8v(2)
        (spec,) = buffer_specs_of(e)
        assert (spec.lo, spec.hi) == (-1, 10)

    def test_scalar_names(self):
        k = E.ScalarVar("k", U8)
        e = u8v() + B.broadcast(k, 8)
        assert scalar_names_of(e) == [("k", U8)]

    def test_bank_covers_boundary_styles(self):
        bank = environment_bank(u8v()).envs
        assert len(bank) >= 6
        values = [denote(u8v(), env) for env in bank]
        # the ramp style gives distinct lane values
        assert len(set(values[0])) == len(values[0])
        # some style hits the max boundary
        assert any(all(v == 255 for v in vals) for vals in values)

    def test_environments_pad_beyond_live_range(self):
        (spec,) = buffer_specs_of(u8v())
        env = make_environment([spec], [], "ramp", 0)
        # candidate implementations may read far past the spec's loads
        assert env.buffer("in").read(-256, 8)
        assert env.buffer("in").read(256, 8)

    def test_deterministic(self):
        b1 = environment_bank(u8v(), seed=3).envs
        b2 = environment_bank(u8v(), seed=3).envs
        assert [e.buffers["in"].data for e in b1] == \
            [e.buffers["in"].data for e in b2]


class TestDenote:
    def test_ir_and_uber_agree(self):
        from repro.uber import LoadData

        e_ir = u8v()
        e_uber = LoadData("in", 0, 8, U8)
        env = environment_bank(e_ir).envs[0]
        assert denote(e_ir, env) == denote(e_uber, env)

    def test_bit_pattern_masking(self):
        # i16 -1 and u16 65535 denote identically
        a = B.broadcast(-1, 4, I16)
        b = B.broadcast(65535, 4, U16)
        env = environment_bank(a).envs[0]
        assert denote(a, env) == denote(b, env)

    def test_hvx_layout_interleave(self):
        load = H.HvxLoad("in", 0, 8, U8)
        pair = H.HvxInstr("vcombine", (H.HvxLoad("in", 0, 4, U8),
                                       H.HvxLoad("in", 4, 4, U8)))
        dealt = H.HvxInstr("vdealvdd", (pair,))
        env = environment_bank(u8v()).envs[0]
        want = denote(load, env)
        assert denote(dealt, env, LAYOUT_DEINTERLEAVED) == want
        assert denote(dealt, env, LAYOUT_INORDER) != want


class TestOracle:
    def test_accepts_identity(self, oracle):
        assert oracle.equivalent(u8v(), u8v())

    def test_accepts_true_rewrite(self, oracle):
        spec = B.widen(u8v()) * 2
        cand = B.shl(B.widen(u8v()), B.broadcast(1, 8, U16))
        assert oracle.equivalent(spec, cand)

    def test_rejects_near_miss(self, oracle):
        spec = B.widen(u8v()) * 2
        cand = B.widen(u8v()) * 3
        assert not oracle.equivalent(spec, cand)

    def test_rejects_sat_vs_wrap_on_boundaries(self, oracle):
        # Only extreme inputs distinguish these — the bank must catch it.
        spec = B.cast(U8, B.widen(u8v()) + B.widen(u8v(1)))
        cand = B.sat_cast(U8, B.widen(u8v()) + B.widen(u8v(1)))
        assert not oracle.equivalent(spec, cand)

    def test_accepts_sat_when_range_allows(self, oracle):
        # (x + 8) >> 4 of a 3-tap kernel fits u8: trunc == saturate.
        row = B.widen(u8v(-1)) + B.widen(u8v(0)) * 2 + B.widen(u8v(1))
        spec = B.cast(U8, (row + 8) >> 4)
        cand = B.sat_cast(U8, (row + 8) >> 4)
        assert oracle.equivalent(spec, cand)

    def test_refuted_checks_append_only_verdicts(self, tmp_path):
        # Every full check runs the whole bank, so each refutation is
        # counted and the store records verdicts, never examples.
        oracle = Oracle(cache=OracleCache.with_disk(tmp_path))
        spec = B.widen(u8v()) * 2
        with oracle.stats.stage("lifting"):
            assert not oracle.equivalent(spec, B.widen(u8v()) * 3)
            assert not oracle.equivalent(spec, B.widen(u8v()) * 4)
            assert oracle.equivalent(spec, B.widen(u8v()) * 2)
        oracle.cache.flush()
        lines = (tmp_path / CACHE_FILE_NAME).read_text().splitlines()
        assert [json.loads(line)["t"] for line in lines] == ["m"]
        assert sorted(json.loads(lines[0])["m"].values()) == [0, 0, 1]
        assert oracle.stats.total("counterexamples") == 2

    def test_lane0_pruning_rejects(self, oracle):
        spec = B.widen(u8v()) * 2
        assert not oracle.equivalent_lane0(spec, B.widen(u8v()) * 3)
        assert oracle.equivalent_lane0(spec, B.widen(u8v()) * 2)

    def test_lane0_can_accept_wrong_candidates(self, oracle):
        # lane-0 only checks the first lane: a candidate correct in lane 0
        # but wrong elsewhere passes the prune and must be caught by the
        # full check (Section 4.1's two-phase design).
        spec = u8v()
        cand = B.select(
            B.lt(B.load("idx", 0, 8, U8), B.broadcast(1, 8, U8)),
            u8v(), B.broadcast(0, 8, U8),
        )
        # NOTE: different free buffers make this not directly comparable;
        # instead use a rotate: lane 0 matches, others do not.
        cand = H.HvxInstr("vror", (H.HvxLoad("in", 0, 8, U8),), (0,))
        assert oracle.equivalent_lane0(spec, cand)

    def test_stats_count_queries(self, oracle):
        with oracle.stats.stage("lifting"):
            oracle.equivalent(u8v(), u8v())
            oracle.equivalent_lane0(u8v(), u8v())
        assert oracle.stats.stages["lifting"].queries == 2

    def test_error_candidates_rejected(self, oracle):
        # A candidate that reads an unbound buffer is simply not equivalent.
        assert not oracle.equivalent(u8v(), B.load("ghost", 0, 8, U8))

    def test_every_checked_candidate_is_one_query(self, oracle):
        # Two spellings of one denotation are two candidates, so two
        # full checks, as in the paper's query counts.
        spec = B.widen(u8v()) * 2
        oracle.equivalent(spec, B.shl(B.widen(u8v()), B.broadcast(1, 8, U16)))
        oracle.equivalent(spec, B.widen(u8v()) * 2)
        assert oracle.stats.total("queries") == 2
        assert oracle.stats.total("cache_misses") == 2

    def test_dropped_oracle_is_freed_at_once(self):
        # No reference cycle may hold an oracle, or each finished
        # compile's banks and plans wait for the cyclic collector.
        oracle = Oracle()
        spec = B.widen(u8v()) * 2
        oracle.equivalent(spec, B.shl(B.widen(u8v()), B.broadcast(1, 8, U16)),
                          LAYOUT_INORDER)
        assert oracle.equivalent(spec, B.widen(u8v()) * 2, LAYOUT_INORDER)
        dropped = weakref.ref(oracle)
        gc.disable()
        try:
            del oracle
            assert dropped() is None
        finally:
            gc.enable()

    def test_memos_are_not_settable_shown_or_compared(self):
        # The per-compile memos are derived state: no constructor
        # parameter, and no part of the oracle's repr or equality.
        params = inspect.signature(Oracle).parameters
        assert not [name for name in params if name.startswith("_")]
        assert len(params) == 6
        used = Oracle()
        used.equivalent(B.widen(u8v()) * 2, B.widen(u8v()) * 2)
        assert used._canon_cache and used._bank_cache
        assert "_cache" not in repr(used)
        assert used == Oracle(stats=used.stats, cache=used.cache)


def _vcmp_gt_127():
    """``vcmp_gt(in, splat(127))`` — a predicate-register candidate."""
    return H.HvxInstr("vcmp_gt", (
        H.HvxLoad("in", 0, 8, U8),
        H.HvxSplat(B.const(127, U8), U8, 8),
    ))


class TestPredicateWidths:
    """Regressions for the PredVec masking bug: predicates denote one-bit
    lanes and may only implement boolean specs, never 0/1-valued data."""

    def test_predicate_cannot_impersonate_data_vector(self, oracle):
        # (x >> 7) yields 0/1-valued *u8 data*; vcmp_gt(x, 127) computes the
        # same bit per lane but in a predicate register, which cannot be
        # stored to memory.  Width-blind comparison used to accept this.
        spec = B.shr(u8v(), B.broadcast(7, 8, U8))
        assert not oracle.equivalent(spec, _vcmp_gt_127())

    def test_predicate_implements_boolean_spec(self, oracle):
        # Against a genuinely boolean spec the same predicate is correct.
        spec = B.gt(u8v(), B.broadcast(127, 8, U8))
        assert oracle.equivalent(spec, _vcmp_gt_127())

    def test_predicate_denotes_one_bit_lanes(self):
        env = environment_bank(u8v()).envs[0]
        lanes = denote(_vcmp_gt_127(), env)
        assert set(lanes) <= {0, 1}
        assert all(isinstance(v, int) for v in lanes)

    def test_widened_twin_rejected(self, oracle):
        # widen(x) holds the same numeric lanes as x at double the width;
        # bit-pattern equality is only meaningful at matching widths.
        assert not oracle.equivalent(u8v(), B.widen(u8v()))
        assert not oracle.equivalent_lane0(u8v(), B.widen(u8v()))

    def test_predicate_under_deinterleaved_layout(self, oracle):
        # A predicate is not a register pair: the deinterleaved read-back
        # must reject it cleanly instead of crashing.
        spec = B.gt(u8v(), B.broadcast(127, 8, U8))
        assert not oracle.equivalent(spec, _vcmp_gt_127(),
                                     LAYOUT_DEINTERLEAVED)
