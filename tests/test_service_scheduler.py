"""Scheduler tests: admission, priority aging, coalescing, deadlines.

All tests drive :class:`JobScheduler` directly with stub compile
functions, so scheduling policy is pinned without paying for synthesis.
The ``paused`` constructor flag holds workers before they pick jobs,
which is what makes queue-state assertions deterministic.
"""

import hashlib
import threading
import time

import pytest

import repro.workloads  # noqa: F401 - populate the registry
from repro.errors import ProtocolError, QueueFullError, ServiceError
from repro.frontend import lower_pipeline
from repro.service.coalesce import Coalescer, request_key
from repro.service.protocol import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_TIMEOUT,
    CompileRequest,
    CompileResult,
)
from repro.service.scheduler import JobScheduler
from repro.synthesis.engine import canonical_spec
from repro.targets import resolve_target
from repro.workloads.base import get, names


def quick_compile(request, cancel, cache, **_):
    return CompileResult(workload=request.workload, backend=request.backend,
                         total_cycles=1)


def cancellable_compile(request, cancel, cache, **_):
    """Spin at query-boundary granularity until cancelled/timed out."""
    for _ in range(2000):
        cancel.check()
        time.sleep(0.005)
    return quick_compile(request, cancel, cache)


def make_scheduler(**kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("compile_fn", quick_compile)
    return JobScheduler(**kwargs)


def distinct_requests(n):
    """n requests with distinct coalescing keys (different image widths)."""
    return [CompileRequest(workload="mul", width=64 + i) for i in range(n)]


class TestRequestKey:
    def test_identical_requests_share_a_key(self):
        assert request_key(CompileRequest(workload="mul")) == \
            request_key(CompileRequest(workload="mul"))

    def test_scheduling_knobs_do_not_split_keys(self):
        patient = CompileRequest(workload="mul", priority=50,
                                 deadline_s=600)
        urgent = CompileRequest(workload="mul", priority=0)
        assert request_key(patient) == request_key(urgent)

    def test_result_knobs_split_keys(self):
        base = CompileRequest(workload="mul")
        assert request_key(base) != \
            request_key(CompileRequest(workload="mul", backend="baseline"))
        assert request_key(base) != \
            request_key(CompileRequest(workload="mul", width=64))
        assert request_key(base) != \
            request_key(CompileRequest(workload="mul", rules=True))

    def test_different_workloads_differ(self):
        assert request_key(CompileRequest(workload="mul")) != \
            request_key(CompileRequest(workload="add"))

    def test_target_splits_keys(self):
        # An HVX job and a Neon job for the same workload must never
        # coalesce — their results differ in every way that matters.
        assert request_key(CompileRequest(workload="mul")) != \
            request_key(CompileRequest(workload="mul", target="neon"))
        assert request_key(CompileRequest(workload="mul", target="neon")) == \
            request_key(CompileRequest(workload="mul", target="neon"))

    def test_keys_of_the_42_pairs_keep_their_formula(self):
        """The cluster router shards by these keys, so every pair's key,
        with rules on and off, is the one this inline formula computes:
        the sha256 of the lowered stage expressions' canonical renderings,
        joined with the result-affecting knobs."""

        def formula(request):
            lowered = lower_pipeline(
                get(request.workload).build(),
                vector_bytes=resolve_target(request.target).vbytes)
            parts = [canonical_spec(expr)
                     for stage in lowered.stages for expr in stage.exprs]
            spec = hashlib.sha256("|".join(parts).encode()).hexdigest()
            raw = "|".join((spec, request.backend, request.target,
                            str(request.width), str(request.height),
                            str(bool(request.rules))))
            return hashlib.sha256(raw.encode()).hexdigest()

        requests = [CompileRequest(workload=kernel, target=target,
                                   rules=rules)
                    for target in ("hvx", "neon") for kernel in names()
                    for rules in (False, True)]
        assert len(requests) == 84
        for request in requests:
            assert request_key(request) == formula(request)


class TestCoalescer:
    def test_leader_then_follower(self):
        c = Coalescer()
        job_id, coalesced = c.claim("k", lambda: "job-1")
        assert (job_id, coalesced) == ("job-1", False)
        job_id, coalesced = c.claim("k", lambda: "job-2")
        assert (job_id, coalesced) == ("job-1", True)
        assert c.waiters("k") == 1
        assert c.coalesced_total == 1

    def test_release_opens_a_new_generation(self):
        c = Coalescer()
        c.claim("k", lambda: "job-1")
        c.release("k")
        job_id, coalesced = c.claim("k", lambda: "job-2")
        assert (job_id, coalesced) == ("job-2", False)

    def test_failed_mint_leaves_no_claim(self):
        c = Coalescer()

        def boom():
            raise QueueFullError("full")

        with pytest.raises(QueueFullError):
            c.claim("k", boom)
        assert c.active() == 0


class TestAdmission:
    def test_submit_runs_to_done(self):
        s = make_scheduler()
        try:
            job, coalesced = s.submit(CompileRequest(workload="mul"))
            assert not coalesced
            done = s.wait(job.id, timeout=10)
            assert done.state == JOB_DONE
            assert done.result.total_cycles == 1
            assert done.wait_s is not None and done.run_s is not None
        finally:
            s.shutdown()

    def test_queue_bound_rejects(self):
        s = make_scheduler(queue_size=2, paused=True)
        try:
            reqs = distinct_requests(3)
            s.submit(reqs[0])
            s.submit(reqs[1])
            with pytest.raises(QueueFullError):
                s.submit(reqs[2])
            assert s.metrics.counter("repro_jobs_rejected_total").value == 1
        finally:
            s.shutdown(drain=False)

    def test_invalid_request_rejected_before_queueing(self):
        s = make_scheduler(paused=True)
        try:
            with pytest.raises(ProtocolError):
                s.submit(CompileRequest(workload="mul", backend="llvm"))
            assert s.queue_depth() == 0
        finally:
            s.shutdown(drain=False)

    def test_submit_after_shutdown_rejected(self):
        s = make_scheduler()
        s.shutdown()
        with pytest.raises(ServiceError):
            s.submit(CompileRequest(workload="mul"))

    def test_worker_survives_failing_job(self):
        def flaky(request, cancel, cache, **_):
            if request.width == 64:
                raise RuntimeError("boom")
            return quick_compile(request, cancel, cache)

        s = make_scheduler(compile_fn=flaky)
        try:
            bad, _ = s.submit(CompileRequest(workload="mul", width=64))
            assert s.wait(bad.id, timeout=10).state == JOB_FAILED
            assert "boom" in s.get(bad.id).error
            good, _ = s.submit(CompileRequest(workload="mul", width=65))
            assert s.wait(good.id, timeout=10).state == JOB_DONE
        finally:
            s.shutdown()


class TestCoalescingIntegration:
    def test_identical_inflight_submissions_share_one_job(self):
        s = make_scheduler(paused=True)
        try:
            leader, coalesced1 = s.submit(CompileRequest(workload="mul"))
            follower, coalesced2 = s.submit(CompileRequest(workload="mul"))
            third, coalesced3 = s.submit(
                CompileRequest(workload="mul", priority=0))
            assert not coalesced1 and coalesced2 and coalesced3
            assert leader.id == follower.id == third.id
            assert s.queue_depth() == 1
            assert s.metrics.counter("repro_jobs_coalesced_total").value == 2
            s.resume()
            done = s.wait(leader.id, timeout=10)
            assert done.state == JOB_DONE
            assert done.coalesced_waiters == 2
        finally:
            s.shutdown()

    def test_completed_job_does_not_coalesce_new_submissions(self):
        s = make_scheduler()
        try:
            first, _ = s.submit(CompileRequest(workload="mul"))
            s.wait(first.id, timeout=10)
            second, coalesced = s.submit(CompileRequest(workload="mul"))
            assert not coalesced
            assert second.id != first.id
        finally:
            s.shutdown()


class TestPriorityAging:
    _width = 64

    def _queued(self, s, priority, age_s):
        # Unique width per job: keep coalescing out of these tests.
        type(self)._width += 1
        job, _ = s.submit(
            CompileRequest(workload="mul", width=self._width,
                           priority=priority))
        job.submitted_mono -= age_s  # backdate: pretend it has waited
        return job

    def test_lower_priority_value_runs_first(self):
        s = make_scheduler(paused=True, aging_rate=0.0)
        try:
            low = self._queued(s, priority=20, age_s=0)
            high = self._queued(s, priority=1, age_s=0)
            with s._cond:
                assert s._pick_locked() is high
                assert s._pick_locked() is low
        finally:
            s.shutdown(drain=False)

    def test_aging_lets_old_jobs_overtake(self):
        s = make_scheduler(paused=True, aging_rate=1.0)
        try:
            # A bulk job that has waited 30s has effective priority
            # 50 - 30 = 20; a fresh urgent job sits at 5.
            bulk = self._queued(s, priority=50, age_s=30)
            urgent = self._queued(s, priority=5, age_s=0)
            with s._cond:
                assert s._pick_locked() is urgent
            # Once the bulk job has waited long enough, it wins even
            # against a fresh priority-5 submission.
            bulk.submitted_mono -= 30  # now 60s old: 50 - 60 = -10
            urgent2 = self._queued(s, priority=5, age_s=0)
            with s._cond:
                assert s._pick_locked() is bulk
                assert s._pick_locked() is urgent2
        finally:
            s.shutdown(drain=False)

    def test_fifo_between_equal_scores(self):
        s = make_scheduler(paused=True, aging_rate=0.0)
        try:
            first = self._queued(s, priority=10, age_s=0)
            second = self._queued(s, priority=10, age_s=0)
            first.submitted_mono = second.submitted_mono - 1.0
            with s._cond:
                assert s._pick_locked() is first
        finally:
            s.shutdown(drain=False)


class TestCancellationAndDeadlines:
    def test_cancel_queued_job_never_runs(self):
        ran = []

        def tattling(request, cancel, cache, **_):
            ran.append(request)
            return quick_compile(request, cancel, cache)

        s = make_scheduler(paused=True, compile_fn=tattling)
        try:
            job, _ = s.submit(CompileRequest(workload="mul"))
            assert s.cancel(job.id)
            assert job.state == JOB_CANCELLED
            assert s.queue_depth() == 0
            s.resume()
            assert ran == []
            assert not s.cancel(job.id)  # already terminal
        finally:
            s.shutdown()

    def test_cancel_running_job_frees_the_worker(self):
        s = make_scheduler(compile_fn=cancellable_compile)
        try:
            job, _ = s.submit(CompileRequest(workload="mul"))
            deadline = time.monotonic() + 5
            while job.state == JOB_QUEUED and time.monotonic() < deadline:
                time.sleep(0.01)
            assert s.cancel(job.id)
            assert s.wait(job.id, timeout=10).state == JOB_CANCELLED
            # The (single) worker slot must be free again.
            after = CompileRequest(workload="mul", width=99)
            done, _ = s.submit(after)
            s.compile_fn = quick_compile
            assert s.wait(done.id, timeout=10).state == JOB_DONE
        finally:
            s.shutdown()

    def test_deadline_times_out_the_job(self):
        s = make_scheduler(compile_fn=cancellable_compile)
        try:
            job, _ = s.submit(
                CompileRequest(workload="mul", deadline_s=0.2))
            done = s.wait(job.id, timeout=10)
            assert done.state == JOB_TIMEOUT
            assert s.metrics.counter("repro_jobs_timeout_total").value == 1
        finally:
            s.shutdown()


class TestShutdown:
    def test_drain_finishes_queued_work(self):
        s = make_scheduler(paused=True)
        jobs = [s.submit(r)[0] for r in distinct_requests(3)]
        s.resume()
        assert s.shutdown(drain=True, timeout=10)
        assert all(j.state == JOB_DONE for j in jobs)

    def test_non_drain_cancels_queued_work(self):
        s = make_scheduler(paused=True)
        jobs = [s.submit(r)[0] for r in distinct_requests(3)]
        s.shutdown(drain=False, timeout=10)
        assert all(j.state == JOB_CANCELLED for j in jobs)

    def test_shutdown_flushes_shared_disk_store(self, tmp_path):
        from repro.synthesis.engine import OracleCache

        cache = OracleCache.with_disk(tmp_path)

        def recording(request, cancel, cache, **_):
            cache.record("k" * 64, True)
            return quick_compile(request, cancel, cache)

        s = make_scheduler(cache=cache, compile_fn=recording)
        job, _ = s.submit(CompileRequest(workload="mul"))
        s.wait(job.id, timeout=10)
        s.shutdown()
        assert (tmp_path / "oracle.jsonl").read_text().strip() != ""


class TestConcurrentSubmissions:
    def test_many_threads_one_leader(self):
        s = make_scheduler(paused=True, queue_size=64)
        try:
            results = []
            barrier = threading.Barrier(8)

            def submit():
                barrier.wait()
                results.append(s.submit(CompileRequest(workload="mul")))

            threads = [threading.Thread(target=submit) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            ids = {job.id for job, _ in results}
            assert len(ids) == 1
            assert sum(1 for _, coalesced in results if coalesced) == 7
            s.resume()
            assert s.wait(ids.pop(), timeout=10).state == JOB_DONE
        finally:
            s.shutdown()


class TestIdempotency:
    def test_retried_key_replays_onto_the_original_job(self):
        s = make_scheduler(paused=True)
        try:
            request = CompileRequest(workload="mul", idempotency_key="k1")
            first, coalesced1 = s.submit(request)
            second, coalesced2 = s.submit(request)
            assert second.id == first.id
            assert not coalesced1
            assert coalesced2 == "idempotent"  # truthy, but distinguishable
            metrics = s.metrics.as_dict()
            assert metrics["repro_jobs_idempotent_total"] == 1
            assert metrics["repro_jobs_submitted_total"] == 1
        finally:
            s.resume()
            s.shutdown()

    def test_replay_works_after_the_job_went_terminal(self):
        # Coalescing releases its key at terminal states; idempotency
        # must NOT — a retry of a finished submission gets the finished
        # job back, never a re-run.
        s = make_scheduler()
        try:
            request = CompileRequest(workload="mul", idempotency_key="k2")
            job, _ = s.submit(request)
            assert s.wait(job.id, timeout=10).state == JOB_DONE
            replay, coalesced = s.submit(request)
            assert replay.id == job.id
            assert coalesced == "idempotent"
            assert replay.state == JOB_DONE
        finally:
            s.shutdown()

    def test_distinct_keys_mint_distinct_jobs(self):
        s = make_scheduler(paused=True)
        try:
            a, _ = s.submit(CompileRequest(workload="mul", width=64,
                                           idempotency_key="ka"))
            b, _ = s.submit(CompileRequest(workload="mul", width=65,
                                           idempotency_key="kb"))
            assert a.id != b.id
        finally:
            s.resume()
            s.shutdown()

    def test_coalesced_submission_key_replays_onto_leader(self):
        s = make_scheduler(paused=True)
        try:
            leader, _ = s.submit(CompileRequest(workload="mul"))
            follower_req = CompileRequest(workload="mul",
                                          idempotency_key="kc")
            follower, coalesced = s.submit(follower_req)
            assert follower.id == leader.id and coalesced is True
            replay, coalesced2 = s.submit(follower_req)
            assert replay.id == leader.id
            assert coalesced2 == "idempotent"
        finally:
            s.resume()
            s.shutdown()

    def test_node_identity_stamped_into_views(self):
        s = make_scheduler(node_id="node-x")
        try:
            job, _ = s.submit(CompileRequest(workload="mul"),
                              routed_by="router-1")
            view = s.wait(job.id, timeout=10).view()
            assert view.node_id == "node-x"
            assert view.routed_by == "router-1"
        finally:
            s.shutdown()


class TestCompletionSignal:
    def test_wait_returns_after_the_job_is_in_metrics_and_telemetry(
            self, tmp_path, monkeypatch):
        import repro.telemetry as telemetry

        emit = telemetry.emit

        def slow_emit(store, record):
            time.sleep(0.2)
            return emit(store, record)

        monkeypatch.setattr(telemetry, "emit", slow_emit)
        sched = make_scheduler(telemetry_dir=str(tmp_path))
        try:
            job, _ = sched.submit(CompileRequest(workload="mul"))
            assert sched.wait(job.id, timeout=10).state == JOB_DONE
            assert len(telemetry.read_store(str(tmp_path)).records) == 1
            assert sched.metrics.as_dict()["repro_jobs_completed_total"] == 1
        finally:
            sched.shutdown()
