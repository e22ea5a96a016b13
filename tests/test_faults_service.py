"""Service resilience: circuit breaker, load shedding, client retry.

Scheduler tests drive :class:`JobScheduler` directly with stub compile
functions (crashes are untyped exceptions, typed failures are healthy);
HTTP tests boot the real server and assert the 503 + ``Retry-After``
shedding contract, the client's transient-retry behaviour and its
keep-alive connections.
"""

import json
import socket
import threading
import time
import urllib.request

import pytest

import repro.workloads  # noqa: F401 - populate the registry
from repro import faults
from repro.errors import (
    CircuitOpenError,
    ProtocolError,
    ServiceError,
    ServiceUnavailable,
)
from repro.faults import FaultPlan, FaultRule, RetryPolicy
from repro.reporting import job_summary, service_summary
from repro.service import CompileRequest, CompileServer, ServiceClient
from repro.service.protocol import JOB_DONE, JOB_FAILED
from repro.service.scheduler import CompileResult, JobScheduler
from repro.service.server import DaemonHTTPServer, JsonHandler


@pytest.fixture(autouse=True)
def no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


def quick_compile(request, cancel, cache, **_):
    return CompileResult(workload=request.workload, backend=request.backend,
                         total_cycles=1)


def crash_compile(request, cancel, cache, **_):
    raise RuntimeError("synthesis exploded")  # untyped: a real crash


def typed_failure_compile(request, cancel, cache, **_):
    raise ProtocolError("bad request, healthy worker")


def distinct_requests(n):
    return [CompileRequest(workload="mul", width=64 + i) for i in range(n)]


def make_scheduler(**kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("compile_fn", quick_compile)
    return JobScheduler(**kwargs)


class TestSchedulerBreaker:
    def test_consecutive_crashes_trip_and_shed(self):
        sched = make_scheduler(compile_fn=crash_compile, breaker_threshold=2)
        try:
            for request in distinct_requests(2):
                job, _ = sched.submit(request)
                assert sched.wait(job.id, timeout=5).state == JOB_FAILED
            with pytest.raises(CircuitOpenError) as err:
                sched.submit(CompileRequest(workload="mul", width=999))
            assert err.value.retry_after_s > 0
            metrics = sched.metrics.as_dict()
            assert metrics["repro_breaker_state"] == 2  # open
            assert metrics["repro_jobs_shed_total"] == 1
            assert metrics["repro_jobs_rejected_total"] == 1
        finally:
            sched.shutdown(drain=False)

    def test_typed_failures_never_trip(self):
        sched = make_scheduler(compile_fn=typed_failure_compile,
                               breaker_threshold=1)
        try:
            job, _ = sched.submit(CompileRequest(workload="mul"))
            assert sched.wait(job.id, timeout=5).state == JOB_FAILED
            # A typed failure proves the worker ran fine: still admitting.
            job, _ = sched.submit(CompileRequest(workload="mul", width=70))
            sched.wait(job.id, timeout=5)
            assert sched.metrics.as_dict()["repro_breaker_state"] == 0
        finally:
            sched.shutdown(drain=False)

    def test_half_open_probe_recovers(self):
        calls = {"n": 0}
        healthy = threading.Event()

        def flaky(request, cancel, cache, **_):
            calls["n"] += 1
            if not healthy.is_set():
                raise RuntimeError("still broken")
            return quick_compile(request, cancel, cache)

        sched = make_scheduler(compile_fn=flaky, breaker_threshold=1,
                               breaker_cooldown_s=0.1)
        try:
            job, _ = sched.submit(CompileRequest(workload="mul"))
            sched.wait(job.id, timeout=5)
            with pytest.raises(CircuitOpenError):
                sched.submit(CompileRequest(workload="mul", width=70))
            healthy.set()
            time.sleep(0.15)  # past the cooldown: half-open
            probe, _ = sched.submit(CompileRequest(workload="mul", width=71))
            assert sched.wait(probe.id, timeout=5).state == JOB_DONE
            # Probe succeeded: breaker closed, admission restored.
            job, _ = sched.submit(CompileRequest(workload="mul", width=72))
            assert sched.wait(job.id, timeout=5).state == JOB_DONE
            assert sched.metrics.as_dict()["repro_breaker_state"] == 0
        finally:
            sched.shutdown(drain=False)

    def test_degraded_results_counted_and_flagged(self):
        def degraded_compile(request, cancel, cache, **_):
            return CompileResult(workload=request.workload,
                                 backend=request.backend,
                                 total_cycles=9, fallbacks=1, degraded=True)

        sched = make_scheduler(compile_fn=degraded_compile)
        try:
            job, _ = sched.submit(CompileRequest(workload="mul"))
            view = sched.wait(job.id, timeout=5).view()
            assert view.state == JOB_DONE
            assert view.degraded
            assert "(degraded)" in job_summary(view)
            assert sched.metrics.as_dict()["repro_degraded_jobs_total"] == 1
        finally:
            sched.shutdown(drain=False)

    def test_injected_scheduler_crash_counts_as_failure(self):
        sched = make_scheduler(breaker_threshold=1)
        try:
            with faults.injected(FaultPlan(rules=[
                FaultRule(site=faults.SITE_SCHEDULER_JOB, kind="error",
                          on_nth=1, max_fires=1),
            ])):
                job, _ = sched.submit(CompileRequest(workload="mul"))
                assert sched.wait(job.id, timeout=5).state == JOB_FAILED
                with pytest.raises(CircuitOpenError):
                    sched.submit(CompileRequest(workload="mul", width=70))
            metrics = sched.metrics.as_dict()
            assert metrics[
                'repro_faults_injected_total{site="scheduler.job"}'] == 1
        finally:
            sched.shutdown(drain=False)

    def test_service_summary_renders_resilience_line(self):
        sched = make_scheduler(compile_fn=crash_compile, breaker_threshold=1)
        try:
            job, _ = sched.submit(CompileRequest(workload="mul"))
            sched.wait(job.id, timeout=5)
            text = service_summary({"status": "ok", "v": 1, "uptime_s": 1.0},
                                   sched.metrics.as_dict())
            assert "breaker open" in text
        finally:
            sched.shutdown(drain=False)


class TestHttpShedding:
    def test_open_breaker_answers_503_with_retry_after(self):
        server = CompileServer(workers=1, quiet=True, compile_fn=crash_compile,
                               breaker_threshold=1).start()
        try:
            client = ServiceClient(server.url)
            view = client.compile(CompileRequest(workload="mul"), timeout=10)
            assert view.state == JOB_FAILED
            with pytest.raises(CircuitOpenError) as err:
                client.submit(CompileRequest(workload="mul", width=70))
            assert err.value.retry_after_s > 0
            # The raw response carries the Retry-After header.
            req = urllib.request.Request(
                server.url + "/compile",
                data=json.dumps(
                    CompileRequest(workload="mul", width=71).to_dict()
                ).encode(),
                headers={"Content-Type": "application/json"}, method="POST")
            with pytest.raises(urllib.error.HTTPError) as raw:
                urllib.request.urlopen(req, timeout=5)
            assert raw.value.code == 503
            assert int(raw.value.headers["Retry-After"]) >= 1
        finally:
            server.shutdown()


class TestClientRetry:
    def unreachable_client(self, attempts=2):
        # TEST-NET-1 with an instant-failing port: connection refused on
        # loopback-adjacent stacks without waiting on timeouts.
        return ServiceClient(
            "http://127.0.0.1:9",  # discard port: nothing listens
            timeout=0.5,
            retry=RetryPolicy(attempts=attempts, base_s=0.0, jitter=0.0),
        )

    def test_get_surfaces_typed_service_unavailable(self):
        client = self.unreachable_client(attempts=2)
        with pytest.raises(ServiceUnavailable, match="after 3 attempts"):
            client.healthz()

    def test_submit_post_is_retried_via_idempotency_key(self):
        # submit() stamps a client-generated idempotency key, which is
        # what makes retrying the POST safe: a replay lands on the job
        # the first attempt minted instead of double-submitting.
        client = self.unreachable_client(attempts=2)
        with pytest.raises(ServiceUnavailable, match="after 3 attempts"):
            client.submit(CompileRequest(workload="mul"))
        assert client.stats["post_retries"] == 2

    def test_non_idempotent_posts_are_never_retried(self):
        # cancel/shutdown POSTs carry no idempotency key: no retry.
        client = self.unreachable_client(attempts=2)
        with pytest.raises(ServiceError) as err:
            client.cancel("deadbeef")
        assert not isinstance(err.value, ServiceUnavailable)
        assert "attempts" not in str(err.value)
        assert client.stats["post_retries"] == 0

    def test_service_unavailable_is_a_service_error(self):
        # Pollers catching ServiceError keep working across the upgrade.
        assert issubclass(ServiceUnavailable, ServiceError)

    def test_client_honors_retry_after_on_queue_full(self):
        # Fill a size-1 queue behind a paused scheduler, then resume it
        # shortly after the shed: the client sleeps out the server's
        # Retry-After hint and its resubmission is admitted.
        server = CompileServer(workers=1, queue_size=1, quiet=True,
                               compile_fn=quick_compile).start()
        try:
            server.scheduler.pause()
            client = ServiceClient(server.url)
            first = client.submit(CompileRequest(workload="mul", width=64))
            timer = threading.Timer(0.2, server.scheduler.resume)
            timer.start()
            try:
                reply = client.submit(
                    CompileRequest(workload="mul", width=65)
                )
            finally:
                timer.cancel()
            assert reply["id"] != first["id"]
            assert client.stats["shed_retries"] >= 1
            assert client.wait(reply["id"], timeout=10).state == JOB_DONE
        finally:
            server.shutdown()

    def test_breaker_shed_with_long_cooldown_fails_fast(self):
        # A Retry-After hint past the client's cap (a breaker deep in
        # its cooldown) is not worth waiting out: surface it at once.
        server = CompileServer(workers=1, quiet=True,
                               compile_fn=crash_compile,
                               breaker_threshold=1,
                               breaker_cooldown_s=60.0).start()
        try:
            client = ServiceClient(server.url)
            view = client.compile(CompileRequest(workload="mul"), timeout=10)
            assert view.state == JOB_FAILED
            start = time.monotonic()
            with pytest.raises(CircuitOpenError):
                client.submit(CompileRequest(workload="mul", width=70))
            assert time.monotonic() - start < 2.0  # no 60 s wait
            assert client.stats["shed_retries"] == 0
        finally:
            server.shutdown()

    def test_injected_socket_reset_is_absorbed_by_retry(self):
        server = CompileServer(workers=1, quiet=True,
                               compile_fn=quick_compile).start()
        try:
            client = ServiceClient(
                server.url,
                retry=RetryPolicy(attempts=3, base_s=0.0, jitter=0.0))
            plan = FaultPlan(rules=[
                FaultRule(site=faults.SITE_SERVER_REQUEST,
                          kind="socket_reset", on_nth=2, max_fires=1),
            ])
            with faults.injected(plan):
                for _ in range(4):
                    assert client.healthz()["status"] == "ok"
            assert plan.injected_total() == 1
        finally:
            server.shutdown()


class TestKeepAlive:
    def test_idle_connection_closed_by_the_server_is_reopened(
            self, held_server):
        client = ServiceClient(held_server.url)
        assert client.healthz()["status"] == "ok"
        # The listener stays up; only the kept-alive connection goes.
        held_server._httpd.close_connections()
        deadline = time.monotonic() + 5
        while held_server._httpd._open and time.monotonic() < deadline:
            time.sleep(0.01)
        assert client.healthz()["status"] == "ok"
        held_server._httpd.close_connections()
        # A POST that is never retried goes out on a fresh connection too.
        assert client.cancel("feedface0000") is False
        assert client.stats == {
            "get_retries": 0, "post_retries": 0, "shed_retries": 0}

    def test_unread_request_body_never_reaches_the_next_request(
            self, held_server):
        client = ServiceClient(held_server.url)
        status, _body, _headers = client._request(
            "POST", "/nope", {"workload": "mul"})
        assert status == 404
        # Same kept-alive connection: the body above must be consumed.
        assert client.healthz()["status"] == "ok"
        assert client.stats["get_retries"] == 0

    def test_listener_queues_a_burst_of_connects(self):
        # Nothing accepts: every handshake must complete in the backlog.
        httpd = DaemonHTTPServer(("127.0.0.1", 0), JsonHandler)
        conns = []
        try:
            for _ in range(32):
                conns.append(socket.create_connection(
                    httpd.server_address, timeout=0.5))
        finally:
            for conn in conns:
                conn.close()
            httpd.server_close()

    def test_truncated_reply_is_retried_then_typed(self, truncating_server):
        client = ServiceClient(
            truncating_server,
            retry=RetryPolicy(attempts=2, base_s=0.0, jitter=0.0))
        with pytest.raises(ServiceUnavailable, match="after 3 attempts"):
            client.status("stub-job")
        assert client.stats["get_retries"] == 2
