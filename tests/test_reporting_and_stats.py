"""Tests for the reporting renderers and synthesis statistics."""

import time

import pytest

from repro.reporting import (
    SpeedupRow,
    codegen_comparison,
    compilation_table,
    geomean,
    lifting_trace,
    speedup_figure,
)
from repro.synthesis.lifting import LiftStep
from repro.synthesis.stats import COUNTERS, STAGES, SynthesisStats


class TestGeomean:
    def test_simple(self):
        assert geomean([2.0, 2.0]) == pytest.approx(2.0)
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_ignores_nonpositive(self):
        assert geomean([2.0, 0.0]) == pytest.approx(2.0)


class TestSpeedupFigure:
    def rows(self):
        return [
            SpeedupRow("sobel", 768, 1024, paper_speedup=1.27),
            SpeedupRow("dilate3x3", 640, 640, paper_band="tied"),
        ]

    def test_contains_bars_and_values(self):
        text = speedup_figure(self.rows())
        assert "sobel" in text
        assert "1.33x" in text
        assert "paper=1.27x" in text
        assert "paper: tied" in text
        assert "geomean" in text

    def test_speedup_property(self):
        row = SpeedupRow("x", 100, 150)
        assert row.speedup == pytest.approx(1.5)
        assert SpeedupRow("x", 0, 10).speedup == 0.0


class TestCompilationTable:
    def test_renders_rows_and_split(self):
        rows = [{
            "name": "sobel", "exprs": 1,
            "lifting_queries": 10, "sketching_queries": 20,
            "swizzling_queries": 30,
            "lifting_time_s": 1.0, "sketching_time_s": 2.0,
            "swizzling_time_s": 7.0,
        }]
        text = compilation_table(rows)
        assert "sobel" in text
        assert "time split" in text
        assert "swizzling 70%" in text

    def test_empty_total_time(self):
        rows = [{
            "name": "x", "exprs": 0,
            "lifting_queries": 0, "sketching_queries": 0,
            "swizzling_queries": 0,
            "lifting_time_s": 0.0, "sketching_time_s": 0.0,
            "swizzling_time_s": 0.0,
        }]
        assert "time split" not in compilation_table(rows)


def test_codegen_comparison_sections():
    text = codegen_comparison("t", "SRC", "BASE", "RAKE")
    for token in ("SRC", "BASE", "RAKE", "Halide IR", "Rake codegen"):
        assert token in text


def test_lifting_trace_render():
    steps = [LiftStep("extend", "a", "b"), LiftStep("update", "c", "d")]
    text = lifting_trace(steps)
    assert "Step 1 [extend]" in text
    assert "Step 2 [update]" in text


class TestSynthesisStats:
    def test_stage_attribution(self):
        stats = SynthesisStats()
        with stats.stage("lifting"):
            stats.count("queries")
            stats.count("queries")
        with stats.stage("swizzling"):
            stats.count("queries")
        assert stats.stages["lifting"].queries == 2
        assert stats.stages["swizzling"].queries == 1
        assert stats.total("queries") == 3

    def test_nested_stages_attribute_innermost(self):
        stats = SynthesisStats()
        with stats.stage("sketching"):
            with stats.stage("swizzling"):
                stats.count("queries")
            stats.count("queries")
        assert stats.stages["swizzling"].queries == 1
        assert stats.stages["sketching"].queries == 1

    def test_unknown_stage_rejected(self):
        stats = SynthesisStats()
        with pytest.raises(ValueError):
            with stats.stage("parsing"):
                pass

    def test_time_accumulates(self):
        stats = SynthesisStats()
        with stats.stage("lifting"):
            time.sleep(0.01)
        assert stats.stages["lifting"].time_s > 0
        assert stats.total("time_s") > 0

    def test_queries_outside_stage_ignored(self):
        stats = SynthesisStats()
        stats.count("queries")
        assert stats.total("queries") == 0

    @pytest.mark.parametrize("counter", COUNTERS, ids=lambda c: c.name)
    def test_every_counter_counts_and_totals(self, counter):
        stats = SynthesisStats()
        if counter.per_stage:
            with stats.stage("sketching"):
                stats.count(counter.name)
            assert getattr(stats.stages["sketching"], counter.name) == 1
        else:
            stats.count(counter.name)
        assert stats.total(counter.name) == 1
        assert stats.as_dict()["totals"][counter.name] == 1

    def test_unknown_counter_rejected(self):
        stats = SynthesisStats()
        with pytest.raises(ValueError, match="unknown synthesis counter"):
            stats.count("query")
        with pytest.raises(ValueError, match="unknown synthesis counter"):
            stats.total("query")

    def test_summary_keys(self):
        stats = SynthesisStats()
        summary = stats.summary()
        for stage in STAGES:
            assert f"{stage}_queries" in summary
            assert f"{stage}_time_s" in summary

    def test_cache_metrics_attributed(self):
        stats = SynthesisStats()
        with stats.stage("sketching"):
            stats.count("cache_hits")
            stats.count("cache_misses")
            stats.count("counterexamples")
        assert stats.stages["sketching"].cache_hits == 1
        assert stats.stages["sketching"].cache_misses == 1
        assert stats.stages["sketching"].counterexamples == 1
        assert stats.total("cache_hits") == 1
        assert stats.total("cache_misses") == 1
        assert stats.total("counterexamples") == 1

    def test_as_dict_shape(self):
        stats = SynthesisStats()
        with stats.stage("swizzling"):
            stats.count("queries")
            stats.count("cache_misses")
        d = stats.as_dict()
        assert set(d) == {"expressions", "stages", "totals"}
        assert set(d["stages"]) == set(STAGES)
        assert d["stages"]["swizzling"]["queries"] == 1
        assert d["totals"]["cache_misses"] == 1
        for metrics in d["stages"].values():
            assert set(metrics) == {
                "queries", "time_s", "cache_hits", "cache_misses",
                "counterexamples", "batched_evals", "fallback_evals",
                "fingerprint_hits", "pruned_grammar_hits",
            }

    def test_engine_summary_render(self):
        from repro.reporting import engine_summary

        stats = SynthesisStats()
        with stats.stage("lifting"):
            stats.count("queries")
            stats.count("cache_hits")
            stats.count("queries")
            stats.count("cache_misses")
        text = engine_summary(stats)
        assert "oracle queries: 2" in text
        assert "1 cache hits" in text
        assert "50% hit rate" in text
        assert "lifting: 2 queries" in text
        assert "sketching" not in text  # silent stages are omitted
