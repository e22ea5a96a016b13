"""Helpers shared by the benchmark's processes.

Paths, the 42 (kernel, target) pairs, seeded request streams, percentiles,
process clocks and memory, and the host-speed calibration.  Nothing here
imports ``repro`` at module load: :func:`use_source_tree` puts ``src/`` on
the path first.
"""

from __future__ import annotations

import math
import os
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

TARGETS = ("hvx", "neon")

#: percentiles the tail metric may report, highest first
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: a reported tail percentile needs at least this many samples beyond it
TAIL_MIN_BEYOND = 10

#: iterations of the calibration loop (:func:`calibrate`)
CALIB_LOOPS = 30000

#: seconds the calibration loop takes on the reference host; request and
#: set-up times are reported at that host's speed (the README says which)
REF_CALIB_S = 0.020

#: calibrations on each side of a sample that :func:`host_scales` pools
CALIB_HALF_WINDOW = 2


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/``; exit 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(run_dir: Path) -> dict:
    """Environment for benchmark subprocesses: the source tree on the
    path and every default cache location inside the run directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_CACHE_DIR"] = str(run_dir / "default-cache")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def all_pairs() -> list:
    """The 42 inputs: every paper kernel on every target, in a fixed order."""
    from repro.workloads.base import names

    return [(kernel, target) for target in TARGETS for kernel in names()]


def permutation(pairs: list, seed: int, salt: str) -> list:
    """A seeded shuffle of ``pairs``; ``salt`` separates independent draws."""
    order = list(pairs)
    random.Random(f"{seed}:{salt}").shuffle(order)
    return order


def request_stream(pairs: list, seed: int):
    """Endless seeded stream with repeats: shuffled rounds of all pairs,
    so every pair recurs and the mix is the same for every seed."""
    rnd = 0
    while True:
        yield from permutation(pairs, seed, f"round{rnd}")
        rnd += 1


def quantile(sorted_values: list, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of a sorted list."""
    if not sorted_values:
        raise ValueError("quantile of no samples")
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def tail_percentile(n: int) -> float:
    """The highest grid percentile with at least ten of ``n`` samples
    beyond it (the median when there are fewer than twenty samples)."""
    for pct in TAIL_GRID:
        if n * (1 - pct / 100) >= TAIL_MIN_BEYOND:
            return pct
    return 50.0


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes now.

    The loop does what compiles do most in the interpreter (dictionary
    updates, tuple hashing, integer arithmetic) and calls nothing of
    ``repro``, so its time follows the speed the shared host gives this
    process at the moment and never the program's.
    """
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(CALIB_LOOPS):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + i
        acc ^= hash((key, i & 7))
    return time.perf_counter() - start


def calibrations() -> list:
    """Three :func:`calibrate` runs in a row."""
    return [calibrate() for _ in range(3)]


def host_scale(calibs: list) -> float:
    """Factor turning a time measured next to ``calibs`` into the time
    on the reference host (below 1 on a slower host)."""
    return REF_CALIB_S / sorted(calibs)[len(calibs) // 2]


def host_scales(calibs: list) -> list:
    """Per sample, :func:`host_scale` of the calibrations within
    :data:`CALIB_HALF_WINDOW` of it, so one disturbed calibration does
    not move its sample."""
    n = len(calibs)
    return [host_scale(calibs[max(0, i - CALIB_HALF_WINDOW):
                              i + CALIB_HALF_WINDOW + 1])
            for i in range(n)]


def scaled(records: list) -> list:
    """Give each record of one caller, as ``scale``, the host scale of the
    calibrations (``calib_s``) run before it and its neighbours."""
    scales = host_scales([r["calib_s"] for r in records])
    for rec, scale in zip(records, scales):
        rec["scale"] = scale
    return records


def busy_s(records: list) -> float:
    """The one caller's time inside requests, at reference-host speed."""
    return sum((r["end"] - r["start"]) * r["scale"] for r in records)


def launch_monotonic() -> float:
    """``time.monotonic()`` at the moment this process was started.

    ``/proc/self/stat`` gives the start in clock ticks since boot; the
    boot-time clock converts it, so interpreter start-up is included.
    """
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    since = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    return time.monotonic() - since


def self_maxrss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss``), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
