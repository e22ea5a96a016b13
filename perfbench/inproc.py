"""In-process compiles, the output check, and the two child processes.

One in-process request is ``compile_pipeline`` plus ``repro.sim.measure``,
both called through their modules so the traced run's wrappers see them.

Children (``python perfbench/inproc.py <job.json>``):

* ``cold`` compiles an ordered list of pairs, each against its own empty
  on-disk verdict store, in a fresh interpreter so no process-wide memo
  carries over from an earlier pass; then checks its outputs.
* ``fill`` compiles its pairs once into one on-disk store, and with
  ``rules`` mines them into that directory's rule library (the warm
  workloads' set-up; one child per target, sharing the store).
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: output-check image height (rows); width is two vectors where it fits
CHECK_HEIGHT = 4

#: a child that runs longer than this fails the run
CHILD_TIMEOUT_S = 150.0


def compile_request(kernel: str, target: str, **kwargs):
    """One request: compile one pair and run the cycle model."""
    import repro.pipeline as pipeline
    import repro.sim as sim
    from repro.workloads.base import get

    wl = get(kernel)
    compiled = pipeline.compile_pipeline(
        wl.build(), target=target, jobs=1, **kwargs
    )
    cycles = sim.measure(compiled, wl.width, wl.height)
    return compiled, cycles.total


def selection_of(compiled) -> list:
    """The selected programs as ``[stage, selector, listing]`` rows, in
    the service's rendering (``program_listing``)."""
    from repro.hvx import program_listing

    return [
        [cs.name, ce.selector, program_listing(ce.program)]
        for cs in compiled.stages
        for ce in cs.exprs
        if ce.selector != "trivial"
    ]


def counts_of(stats: dict) -> dict:
    """The count part of ``SynthesisStats.as_dict()`` (times dropped)."""
    stages = {
        name: {k: v for k, v in stage.items() if k != "time_s"}
        for name, stage in stats["stages"].items()
    }
    totals = {k: v for k, v in stats["totals"].items() if k != "time_s"}
    return {"stages": stages, "totals": totals}


def stage_seconds(stats: dict) -> dict:
    return {name: stage["time_s"] for name, stage in stats["stages"].items()}


def pixel_check(kernel: str, target: str, compiled, seed: int):
    """Run the selection with ``repro.sim.execute`` and compare every
    stage pixel for pixel with the IR interpreter; ``None`` when equal,
    else a one-line reason."""
    from repro.frontend.lowering import DEFAULT_ROW_STRIDE
    from repro.sim import HALO_X, Image, execute, reference_execute
    from repro.workloads.base import get

    wl = get(kernel)
    lanes = max(cs.stage.lanes for cs in compiled.stages)
    width = 2 * lanes if 2 * lanes + 2 * HALO_X <= DEFAULT_ROW_STRIDE \
        else lanes
    rng = random.Random(f"{seed}:{kernel}:{target}:pixels")
    inputs = {
        spec.name: Image(spec.elem, width, CHECK_HEIGHT).fill_random(
            rng.randrange(2 ** 31)
        )
        for spec in wl.inputs
    }
    try:
        got = execute(compiled, dict(inputs), width, CHECK_HEIGHT,
                      wl.scalars)
        want = reference_execute(compiled, dict(inputs), width,
                                 CHECK_HEIGHT, wl.scalars)
    except Exception as exc:  # a crash is a failed check, not a crash
        return f"execution failed: {type(exc).__name__}: {exc}"
    for cs in compiled.stages:
        if got[cs.name].pixels() != want[cs.name].pixels():
            return f"stage {cs.name} differs from the IR interpreter"
    return None


def record_of(kernel, target, rid, start, end, compiled=None, cycles=None,
              error=None) -> dict:
    """One request's record (the selection is rendered by the caller)."""
    rec = {"pair": [kernel, target], "rid": rid, "start": start,
           "end": end, "error": error}
    if compiled is not None:
        stats = compiled.stats.as_dict()
        rec.update(cycles=cycles, counts=counts_of(stats),
                   stage_s=stage_seconds(stats),
                   fallbacks=compiled.fallbacks,
                   degraded=bool(compiled.degraded))
        if compiled.degraded:
            rec["error"] = "degraded"
    return rec


def run_stream(pairs, recorder, store_for, rid_prefix="r",
               **compile_kwargs):
    """Closed loop over ``pairs`` on this thread, one request at a time.

    Returns ``(records, compiled_by_index)``.  ``store_for(i)`` names the
    ``cache_dir`` of request ``i``.  Each record's ``calib_s`` is a
    :func:`common.calibrate` run just before the request.
    """
    records, compiled_at = [], {}
    for i, (kernel, target) in enumerate(pairs):
        rid = f"{rid_prefix}{i}"
        cache_dir = store_for(i)
        calib_s = common.calibrate()
        if recorder is not None:
            recorder.set_request(rid)
        start = time.monotonic()
        try:
            if recorder is not None:
                compiled, cycles = recorder.span(
                    "request", compile_request, kernel, target,
                    cache_dir=cache_dir, **compile_kwargs)
            else:
                compiled, cycles = compile_request(
                    kernel, target, cache_dir=cache_dir, **compile_kwargs)
        except Exception as exc:
            records.append(record_of(kernel, target, rid, start,
                                     time.monotonic(),
                                     error=f"{type(exc).__name__}: {exc}"))
            records[-1]["calib_s"] = calib_s
            continue
        finally:
            if recorder is not None:
                recorder.set_request(None)
        end = time.monotonic()
        records.append(record_of(kernel, target, rid, start, end,
                                 compiled, cycles))
        records[-1]["calib_s"] = calib_s
        compiled_at[len(records) - 1] = compiled
    return records, compiled_at


def check_records(records, compiled_at, seed) -> None:
    """Attach each record's selection and pixel-check the distinct ones."""
    checked = {}
    for i, rec in enumerate(records):
        compiled = compiled_at.get(i)
        if compiled is None:
            continue
        rec["selection"] = selection_of(compiled)
        key = (tuple(rec["pair"]), json.dumps(rec["selection"]))
        if key not in checked:
            checked[key] = pixel_check(*rec["pair"], compiled, seed)
        if checked[key] is not None and rec["error"] is None:
            rec["error"] = f"output check: {checked[key]}"


def _child_cold(job: dict) -> dict:
    """One cold pass in this fresh interpreter; its set-up runs from the
    interpreter's start to the first request."""
    setup_s = time.monotonic() - common.launch_monotonic()
    recorder = None
    if job["trace"]:
        import spans

        recorder = spans.Recorder()
        spans.install_layers(recorder)
    work = Path(job["work_dir"])
    pairs = [tuple(p) for p in job["pairs"]]

    def store_for(i):
        store = work / f"store{i}"
        store.mkdir(parents=True, exist_ok=True)
        return str(store)

    records, compiled_at = run_stream(pairs, recorder, store_for,
                                      rid_prefix=job["rid_prefix"])
    maxrss = common.self_maxrss_mb()
    if recorder is not None:
        recorder.unpatch()
        recorder.write(job["spans_out"])
    check_records(records, compiled_at, job["seed"])
    return {"records": records, "maxrss_mb": maxrss, "setup_s": setup_s}


def _child_fill(job: dict) -> dict:
    """Compile every pair once into the store ``job['store']``; report
    this child's time as ``scaled_s``: its start-up as measured (as in
    ``_child_cold``), its compiles at reference-host speed."""
    setup_s = time.monotonic() - common.launch_monotonic()
    pairs = [tuple(p) for p in job["pairs"]]
    kwargs = {}
    if job["rules"]:
        from repro.rules import RuleLibrary, rules_file

        (target,) = {t for _, t in pairs}
        kwargs["rules"] = RuleLibrary(rules_file(job["store"], target),
                                      target=target)
    records, _ = run_stream(pairs, None, lambda i: job["store"], **kwargs)
    scaled_s = setup_s + common.busy_s(common.scaled(records))
    return {"records": records, "scaled_s": scaled_s}


def run_children(jobs: list, run_dir: Path) -> list:
    """Run ``inproc.py`` children concurrently; return their results.

    Raises when a child fails or outlives :data:`CHILD_TIMEOUT_S`; every
    child has exited when this returns or raises.
    """
    procs = []
    try:
        for job in jobs:
            name = f"{job['kind']}-{len(list(run_dir.glob('*.job.json')))}"
            job["result"] = str(run_dir / f"{name}.result.json")
            job_path = run_dir / f"{name}.job.json"
            job_path.write_text(json.dumps(job))
            log = open(run_dir / f"{name}.log", "wb")
            procs.append((name, log, subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 str(job_path)],
                stdout=log, stderr=subprocess.STDOUT,
                env=common.child_env(run_dir), cwd=str(common.ROOT))))
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        for name, _, proc in procs:
            code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            if code != 0:
                raise RuntimeError(f"{name} child exited with status {code}; "
                                   f"see {run_dir / (name + '.log')}")
    finally:
        for _, log, proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            log.close()
    return [json.loads(Path(job["result"]).read_text()) for job in jobs]


def fill_store(pairs: list, store: Path, run_dir: Path, rules: bool):
    """Compile every pair once into ``store``: one child per target, both
    appending to the one store (its writes are whole ``O_APPEND`` batches,
    safe across processes); with ``rules``, each child also mines its
    target's rule library, in the fixed pair order.

    Returns ``(wall_s, scaled_s)``: the fill's wall time, and the
    ``scaled_s`` of its slower child.
    """
    start = time.monotonic()
    store.mkdir(parents=True, exist_ok=True)
    jobs = [{"kind": "fill", "store": str(store), "rules": rules,
             "pairs": [p for p in pairs if p[1] == target]}
            for target in common.TARGETS]
    results = run_children(jobs, run_dir)
    for result in results:
        errors = [r["error"] for r in result["records"] if r["error"]]
        if errors:
            raise RuntimeError(f"store fill failed: {errors[0]}")
    return (time.monotonic() - start,
            max(result["scaled_s"] for result in results))


def main(argv) -> int:
    job_path = Path(argv[1])
    job = json.loads(job_path.read_text())
    common.use_source_tree()
    import repro.workloads  # noqa: F401 - populate the registry
    import repro.neon  # noqa: F401 - register the Neon families

    result = {"cold": _child_cold, "fill": _child_fill}[job["kind"]](job)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
