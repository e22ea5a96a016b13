"""Tests over the 21-benchmark suite.

Baseline compilation (cheap) runs for every benchmark; full Rake synthesis
runs for a representative subset here and for the complete suite in the
benchmark harness.
"""

import pytest

import repro.workloads  # noqa: F401
from repro.pipeline import compile_pipeline
from repro.sim import measure
from repro.workloads.base import all_workloads, get, names

PAPER_SUITE = {
    "sobel", "dilate3x3", "box_blur", "median3x3", "gaussian3x3",
    "gaussian5x5", "gaussian7x7", "conv3x3a16", "conv3x3a32", "camera_pipe",
    "matmul", "add", "mul", "mean", "l2norm", "softmax", "average_pool",
    "max_pool", "fully_connected", "conv_nn", "depthwise_conv",
}


def test_all_twenty_one_registered():
    assert set(names()) == PAPER_SUITE
    assert len(all_workloads()) == 21


def test_metadata_complete():
    for wl in all_workloads():
        assert wl.category in ("image", "ml", "camera", "linear-algebra")
        assert wl.paper_band in ("improved", "tied", "regressed")
        assert wl.inputs, wl.name


@pytest.mark.parametrize("name", sorted(PAPER_SUITE))
def test_baseline_compiles_and_verifies(name):
    wl = get(name)
    compiled = compile_pipeline(wl.build(), backend="baseline")
    assert compiled.stages
    assert all(ce.program is not None
               for cs in compiled.stages for ce in cs.exprs)


RAKE_SUBSET = ["sobel", "gaussian3x3", "average_pool", "l2norm", "add",
               "conv3x3a16", "mean", "camera_pipe"]


@pytest.mark.parametrize("name", RAKE_SUBSET)
def test_rake_compiles_and_verifies(name):
    wl = get(name)
    compiled = compile_pipeline(wl.build(), backend="rake")
    assert compiled.optimized_exprs >= 1


@pytest.mark.parametrize("name", ["sobel", "gaussian3x3", "average_pool",
                                  "conv3x3a16"])
def test_improved_benchmarks_beat_baseline(name):
    wl = get(name)
    rk = compile_pipeline(wl.build(), backend="rake")
    bl = compile_pipeline(wl.build(), backend="baseline")
    assert measure(rk, wl.width, wl.height).total < \
        measure(bl, wl.width, wl.height).total


@pytest.mark.parametrize("name", ["dilate3x3", "median3x3", "max_pool"])
def test_minmax_benchmarks_tie(name):
    wl = get(name)
    rk = compile_pipeline(wl.build(), backend="rake")
    bl = compile_pipeline(wl.build(), backend="baseline")
    assert measure(rk, wl.width, wl.height).total == \
        measure(bl, wl.width, wl.height).total
