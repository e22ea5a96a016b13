"""End-to-end integration tests: frontend -> selector -> simulator.

The decisive check: for real pipelines, executing the selected HVX
programs produces pixel-identical results to the IR reference, for both
instruction selectors.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.workloads  # noqa: F401 - populate the registry
from repro.pipeline import compile_pipeline
from repro.sim import Image, execute, measure, reference_execute
from repro.synthesis.oracle import Oracle
from repro.workloads.base import get
from repro.types import U16, U8


def images_for(wl, seed=11):
    return {
        spec.name: Image(spec.elem, 256, 24).fill_random(seed + i)
        for i, spec in enumerate(wl.inputs)
    }


def run_both(name, width=256, height=8):
    wl = get(name)
    inputs = images_for(wl)
    rk = compile_pipeline(wl.build(), backend="rake")
    bl = compile_pipeline(wl.build(), backend="baseline")
    out_r = execute(rk, dict(inputs), width, height, wl.scalars)
    out_b = execute(bl, dict(inputs), width, height, wl.scalars)
    ref = reference_execute(rk, dict(inputs), width, height, wl.scalars)
    return wl, rk, bl, out_r, out_b, ref


class TestSobelEndToEnd:
    def test_pixels_match_reference(self):
        wl, rk, bl, out_r, out_b, ref = run_both("sobel")
        key = wl.build().name
        assert out_r[key].pixels() == ref[key].pixels()
        assert out_b[key].pixels() == ref[key].pixels()

    def test_rake_beats_baseline(self):
        wl = get("sobel")
        rk = compile_pipeline(wl.build(), backend="rake")
        bl = compile_pipeline(wl.build(), backend="baseline")
        assert measure(rk).total < measure(bl).total


@pytest.mark.parametrize("name", [
    "box_blur", "dilate3x3", "average_pool", "max_pool", "mul",
])
def test_execution_matches_reference(name):
    wl, rk, bl, out_r, out_b, ref = run_both(name)
    key = wl.build().name
    assert out_r[key].pixels() == ref[key].pixels()
    assert out_b[key].pixels() == out_r[key].pixels()


def test_reduction_pipeline_executes():
    wl, rk, bl, out_r, out_b, ref = run_both("mean", height=4)
    key = "mean"
    assert out_r[key].pixels() == ref[key].pixels()
    assert out_b[key].pixels() == out_r[key].pixels()


def test_scalar_parameters_flow_through():
    wl = get("add")
    inputs = images_for(wl)
    rk = compile_pipeline(wl.build(), backend="rake")
    a = execute(rk, dict(inputs), 256, 4, {"zp_a": 3, "zp_b": 7})
    b = execute(rk, dict(inputs), 256, 4, {"zp_a": 100, "zp_b": 7})
    assert a["add"].pixels() != b["add"].pixels()


def test_compiled_pipeline_reports_stats():
    wl = get("sobel")
    rk = compile_pipeline(wl.build(), backend="rake")
    assert rk.optimized_exprs >= 1
    assert rk.stats.total("queries") > 0
    stages = rk.stats.stages
    assert stages["swizzling"].time_s >= 0


def test_verification_is_on_by_default():
    # compile_pipeline re-verifies every selected program; reaching here
    # without ReproError means all programs passed.
    wl = get("camera_pipe")
    compiled = compile_pipeline(wl.build(), backend="baseline")
    assert len(compiled.stages) == 4


def test_compile_leaves_no_oracle_to_the_collector():
    """A finished compile's oracle, with its banks and plans, is freed by
    reference counting alone, so peak memory does not depend on when the
    cyclic collector runs.  The Neon grammar's recursive chain search and
    a lowering retried after a failure (l2norm) each once left one."""
    def oracles():
        return [o for o in gc.get_objects() if isinstance(o, Oracle)]

    gc.collect()
    gc.disable()
    try:
        before = oracles()
        for name in ("gaussian3x3", "l2norm"):
            compile_pipeline(get(name).build(), target="neon")
        left = [o for o in oracles() if not any(o is b for b in before)]
    finally:
        gc.enable()
    assert left == []


def test_jobs_keyword_accepts_only_one():
    wl = get("mul")
    assert compile_pipeline(wl.build(), jobs=1).stages
    with pytest.raises(ValueError, match="jobs"):
        compile_pipeline(wl.build(), jobs=2)


def test_entry_points_load_no_process_or_thread_pool():
    """Candidate checks run serially in the compiling thread, so neither
    the compiler, the CLI, the server nor the router loads a pool."""
    probe = (
        "import sys\n"
        "import repro.pipeline, repro.cli, repro.service.server\n"
        "import repro.cluster.router\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in\n"
        "             ('multiprocessing', 'concurrent')))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    assert out.strip() == "[]"
