"""Cross-ISA differential testing: HVX vs Neon on the paper's workloads.

The same scheduled pipelines compile independently on both registered
targets — different vector widths, sketch grammars, swizzle grammars,
cost models and batched lowerings — and the selected machine programs
must agree lane-for-lane on shared valuation banks
(:mod:`repro.targets.differential`).  Nothing below the frontend is
shared between the two compilations, so this catches target-specific
miscompiles that same-target verification cannot.
"""

from __future__ import annotations

import pytest

import repro.workloads as workloads
from repro.errors import ReproError
from repro.ir import builder as B
from repro.pipeline import compile_pipeline
from repro.targets import nodes as N
from repro.targets.differential import (
    compare_compiled,
    compare_programs,
    compare_workload,
)
from repro.synthesis.valuation import BASE_STYLES
from repro.types import U8

#: the default cross-ISA set: pointwise, reduction and stencil coverage
WORKLOADS = ("add", "mul", "mean", "box_blur", "sobel", "gaussian3x3")


class TestTable1Workloads:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_lane_exact_across_targets(self, name):
        report = compare_workload(name)
        assert report.ok, "\n".join(
            f"{c.stage}[{c.index}]: {c.detail}" for c in report.failures
        )
        for comparison in report.comparisons:
            assert comparison.lanes > 0
            assert comparison.environments >= len(BASE_STYLES)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_neon_compile_is_verified_and_not_degraded(self, name):
        compiled = compile_pipeline(workloads.get(name).build(),
                                    target="neon")
        assert compiled.target == "neon"
        assert not compiled.degraded
        assert compiled.stages

    @pytest.mark.slow
    @pytest.mark.parametrize("name", workloads.names())
    def test_all_workloads_lane_exact(self, name):
        report = compare_workload(name)
        assert report.ok, "\n".join(
            f"{c.stage}[{c.index}]: {c.detail}" for c in report.failures
        )


class TestBatchedCoverageGate:
    """Neon oracle queries must run through the batched evaluator.

    A silent regression to the scalar fallback would keep every verdict
    correct but lose the evaluation engine the issue requires — so the
    gate is structural, not behavioral.
    """

    @pytest.mark.parametrize("name", ("box_blur", "mean"))
    def test_neon_queries_are_batched(self, name):
        compiled = compile_pipeline(workloads.get(name).build(),
                                    target="neon")
        stats = compiled.stats
        assert stats.total("batched_evals") > 0
        assert stats.total("fallback_evals") == 0, (
            f"{stats.total('fallback_evals')} Neon oracle evaluations fell "
            f"back to the scalar interpreter"
        )

    def test_hvx_queries_stay_batched(self):
        compiled = compile_pipeline(workloads.get("box_blur").build())
        assert compiled.stats.total("batched_evals") > 0
        assert compiled.stats.total("fallback_evals") == 0


class TestDifferentialMechanics:
    def test_detects_a_planted_miscompile(self):
        # Same spec on both sides, but the "neon program" computes a
        # different function — the oracle must localize the divergence.
        spec = B.load("in", 0, 16, U8) + B.load("in", 1, 16, U8)
        loads = (N.HvxLoad("in", 0, 16, U8), N.HvxLoad("in", 1, 16, U8))
        right = N.HvxInstr("neon.vadd", loads)
        wrong = N.HvxInstr("neon.vsub", loads)
        equal, detail, _, _ = compare_programs(spec, right, spec, wrong)
        assert not equal
        assert "second program diverges from its spec" in detail

    def test_detects_a_cross_isa_lane_mismatch(self):
        # Both programs match their own specs, but the specs differ —
        # the prefix check must fire, naming the offending lane.
        spec_a = B.load("in", 0, 16, U8)
        spec_b = B.load("in", 1, 16, U8)
        prog_a = N.HvxLoad("in", 0, 16, U8)
        prog_b = N.HvxLoad("in", 1, 16, U8)
        equal, detail, lanes, _ = compare_programs(
            spec_a, prog_a, spec_b, prog_b
        )
        assert not equal
        assert "lane" in detail
        assert lanes == 16

    def test_stage_structure_mismatch_raises(self):
        a = compile_pipeline(workloads.get("add").build())
        b = compile_pipeline(workloads.get("mul").build(), target="neon")
        with pytest.raises(ReproError):
            compare_compiled(a, b)

    def test_unknown_target_rejected(self):
        with pytest.raises(ReproError):
            compare_workload("add", targets=("hvx", "vliw9000"))

    def test_report_summary_mentions_both_targets(self):
        report = compare_workload("mul")
        text = report.summary()
        assert "hvx" in text and "neon" in text and "OK" in text


class TestLanePrefixProperty:
    """The narrower target computes a prefix of the wider target's lanes."""

    def test_prefix_holds_for_a_stencil(self):
        from repro.synthesis.oracle import denote
        from repro.synthesis.valuation import environment_bank

        def blur(lanes):
            a = B.widen(B.load("in", 0, lanes, U8))
            b = B.widen(B.load("in", 1, lanes, U8))
            c = B.widen(B.load("in", 2, lanes, U8))
            return B.cast(U8, (a + b + c) * 85 >> 8)

        wide, narrow = blur(128), blur(16)
        for env in environment_bank(wide, n_random_extra=1).envs:
            assert denote(wide, env)[:16] == denote(narrow, env)
