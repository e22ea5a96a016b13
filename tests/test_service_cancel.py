"""Cancellation soundness: a cancelled job never poisons the caches.

Satellite of the service PR: cancellation is observed only *between*
oracle queries, so every verdict that reaches the in-process or on-disk
cache is a complete differential pass.  These tests cancel real
compilations at controlled points in the search (first check, deep in
sketch enumeration, deep in swizzle concretization) and then prove the
caches are still sound by recompiling against them and demanding results
byte-identical to a clean-cache compile.
"""

import json
import threading
import time

import pytest

import repro.workloads  # noqa: F401 - populate the registry
from repro.cancel import CancelToken
from repro.errors import CancelledError, DeadlineExceededError
from repro.hvx import program_listing
from repro.pipeline import compile_pipeline
from repro.service.protocol import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_QUEUED,
    JOB_TIMEOUT,
    CompileRequest,
)
from repro.service.scheduler import JobScheduler, default_compile_fn
from repro.synthesis.engine import OracleCache
from repro.synthesis.stats import SynthesisStats
from repro.workloads.base import get

WORKLOAD = "mul"


class TripAfter(CancelToken):
    """A token that cancels itself on its Nth :meth:`check` call.

    Deterministically stops a compilation mid-search without relying on
    wall-clock timing: check #1 is the first query boundary, larger trip
    points land inside sketch enumeration / swizzle scoring loops.
    """

    def __init__(self, trip_at: int):
        super().__init__()
        self.trip_at = trip_at
        self.calls = 0

    def check(self) -> None:
        self.calls += 1
        if self.calls >= self.trip_at:
            self.cancel("tripped by test")
        super().check()


class ExpireAfter(TripAfter):
    """A token whose deadline passes at its Nth :meth:`check` call, so
    the real deadline path fires mid-search at a fixed boundary instead
    of at a wall-clock instant a fast compile may never reach."""

    def check(self) -> None:
        self.calls += 1
        if self.calls >= self.trip_at:
            self.deadline = time.monotonic()
        CancelToken.check(self)


def listings(compiled):
    return [
        (cs.name, ce.selector, program_listing(ce.program))
        for cs in compiled.stages for ce in cs.exprs
    ]


@pytest.fixture(scope="module")
def clean_reference():
    """Listings from a clean-cache compile — the soundness yardstick."""
    wl = get(WORKLOAD)
    stats = SynthesisStats()
    compiled = compile_pipeline(wl.build(), cache=OracleCache(), stats=stats)
    return listings(compiled), stats.total("cache_misses")


def assert_store_is_sound(path):
    """Every flushed line must be a complete, parseable map record of
    typed verdicts."""
    if not path.exists():
        return
    for line in path.read_text().splitlines():
        rec = json.loads(line)  # raises on a torn line
        assert rec["t"] == "m" and rec["m"]
        for key, verdict in rec["m"].items():
            assert key
            assert type(verdict) is int and verdict in (0, 1)


class TestCancelledCompileLeavesSoundCaches:
    # trip points chosen to land in different search phases: the very
    # first boundary, early lifting/sketching, and deep in the swizzle
    # search (mul issues ~90 queries cold).
    @pytest.mark.parametrize("trip_at", [1, 10, 60])
    def test_recompile_after_cancel_matches_clean_run(
        self, tmp_path, trip_at, clean_reference
    ):
        reference, clean_misses = clean_reference
        cache = OracleCache.with_disk(tmp_path)
        token = TripAfter(trip_at)
        wl = get(WORKLOAD)
        with pytest.raises(CancelledError):
            compile_pipeline(wl.build(), cache=cache, cancel=token)
        assert token.calls == trip_at  # stopped at the chosen boundary

        # Disk store: flushed lines are complete records, and a fresh
        # process loading them sees only full verdicts.
        cache.flush()
        store_path = tmp_path / "oracle.jsonl"
        assert_store_is_sound(store_path)
        reloaded = OracleCache.with_disk(tmp_path)
        for key, verdict in reloaded._verdicts.items():
            assert isinstance(verdict, bool)
            assert cache.lookup(key) == verdict  # duplicates are idempotent

        # The partial cache must be *usable*: a warm recompile completes
        # and selects byte-identical programs to the clean-cache run.
        warm_stats = SynthesisStats()
        warm = compile_pipeline(wl.build(), cache=cache, stats=warm_stats)
        assert listings(warm) == reference
        assert warm_stats.total("cache_misses") <= clean_misses

    def test_deadline_mid_compile_is_equally_sound(self, tmp_path,
                                                   clean_reference):
        reference, _ = clean_reference
        cache = OracleCache.with_disk(tmp_path)
        wl = get(WORKLOAD)
        token = ExpireAfter(30)  # inside synthesis: mul checks ~90 times
        with pytest.raises(DeadlineExceededError):
            compile_pipeline(wl.build(), cache=cache, cancel=token)
        assert token.calls == 30
        cache.flush()
        assert_store_is_sound(tmp_path / "oracle.jsonl")
        warm = compile_pipeline(wl.build(), cache=cache)
        assert listings(warm) == reference


class TestSchedulerCancelRealCompile:
    def test_cancel_running_job_frees_slot_and_keeps_store_sound(
        self, tmp_path, clean_reference
    ):
        reference, _ = clean_reference
        started = threading.Event()
        proceed = threading.Event()

        def gated(request, cancel, cache, **_):
            # Hold the worker at a query boundary so the test can land a
            # cancel while the job is deterministically RUNNING; the real
            # compile then observes the tripped token at its first check.
            started.set()
            proceed.wait(timeout=30)
            return default_compile_fn(request, cancel, cache)

        s = JobScheduler(workers=1, cache_dir=str(tmp_path), compile_fn=gated)
        try:
            job, _ = s.submit(CompileRequest(workload=WORKLOAD))
            assert started.wait(timeout=30)
            assert s.cancel(job.id)
            proceed.set()
            assert s.wait(job.id, timeout=30).state == JOB_CANCELLED

            # The single worker slot is free again, and a rerun of the
            # *same* request (a new coalescing generation) completes with
            # programs identical to the clean-cache reference.
            rerun, coalesced = s.submit(CompileRequest(workload=WORKLOAD))
            assert not coalesced and rerun.id != job.id
            done = s.wait(rerun.id, timeout=120)
            assert done.state == JOB_DONE
            assert [
                (p["stage"], p["selector"], p["listing"])
                for p in done.result.programs
            ] == [row for row in reference if row[1] != "trivial"]
        finally:
            s.shutdown()
        assert_store_is_sound(tmp_path / "oracle.jsonl")

    def test_deadline_times_out_real_compile(self, tmp_path):
        def late(request, cancel, cache, **_):
            # A warm process can compile mul in under 20 ms, so the real
            # compile starts once the deadline has passed.
            time.sleep(cancel.remaining() + 0.01)
            return default_compile_fn(request, cancel, cache)

        s = JobScheduler(workers=1, cache_dir=str(tmp_path), compile_fn=late)
        try:
            job, _ = s.submit(
                CompileRequest(workload=WORKLOAD, deadline_s=0.02))
            done = s.wait(job.id, timeout=30)
            assert done.state == JOB_TIMEOUT
            assert done.error
        finally:
            s.shutdown()
        assert_store_is_sound(tmp_path / "oracle.jsonl")

    def test_queued_job_with_passed_deadline_never_compiles(self):
        ran = []

        def tattling(request, cancel, cache, **_):
            ran.append(request)  # pragma: no cover - must not happen
            return default_compile_fn(request, cancel, cache)

        s = JobScheduler(workers=1, compile_fn=tattling, paused=True)
        try:
            job, _ = s.submit(
                CompileRequest(workload=WORKLOAD, deadline_s=0.01))
            time.sleep(0.05)  # deadline passes while queued
            assert job.state == JOB_QUEUED
            s.resume()
            done = s.wait(job.id, timeout=10)
            assert done.state == JOB_TIMEOUT
            assert ran == []
        finally:
            s.shutdown()
