"""Cluster chaos proofs: kill a node mid-job, lose the cache tier,
drain under concurrent submitters.

These are the acceptance tests behind ``docs/cluster.md``'s failure
matrix:

* a worker killed while owning accepted jobs loses nothing — the router
  fails the jobs over and every one completes ``degraded: false`` with
  selections **byte-identical** to a single-node run (compiles are
  deterministic pure functions of the request, which is what makes the
  re-dispatch sound);
* a total cache-tier outage (the seeded ``cachetier-outage`` builtin
  plan) never fails a compile — the tier is an accelerator, not a
  dependency;
* graceful shutdown under a storm of concurrent submitters never
  strands an accepted job, and the ``/metrics`` counters balance.
"""

import threading

import pytest

import repro.workloads  # noqa: F401 - populate the registry
from repro import faults
from repro.cluster import CacheTierServer, ClusterRouter
from repro.errors import ServiceError
from repro.faults import FaultPlan, FaultRule
from repro.service import CompileRequest, CompileServer, ServiceClient
from repro.service.coalesce import request_key
from repro.service.protocol import JOB_DONE, TERMINAL_STATES


@pytest.fixture(autouse=True)
def no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


def _listings(view):
    """The selection fingerprint: every program listing, in order."""
    assert view.result is not None
    return [p["listing"] for p in view.result.programs]


def _kill(server: CompileServer) -> None:
    """Make a worker vanish from the network without draining it — the
    in-process equivalent of SIGKILL for everything the router can see."""
    server._httpd.shutdown()
    server._httpd.server_close()


class TestKillANodeMidJob:
    def test_jobs_on_killed_node_fail_over_byte_identical(self):
        # The reference: the same compile on one plain single-node server.
        request = CompileRequest(workload="mul")
        single = CompileServer(workers=1, quiet=True).start()
        try:
            reference = ServiceClient(single.url).compile(request, timeout=60)
        finally:
            single.shutdown()
        assert reference.state == JOB_DONE

        nodes = {
            "node-a": CompileServer(workers=1, quiet=True,
                                    node_id="node-a").start(),
            "node-b": CompileServer(workers=1, quiet=True,
                                    node_id="node-b").start(),
        }
        router = ClusterRouter(
            {name: server.url for name, server in nodes.items()},
            quiet=True, health_interval_s=30.0,  # probes driven by hand
        ).start()
        try:
            client = ServiceClient(router.url)
            # Find the key's home node and accept the job there — but
            # paused, so the kill lands while the job is still owned.
            home = next(iter(router._ring.walk(request_key(request))))
            victim = nodes[home.node_id]
            victim.scheduler.pause()
            submitted = client.submit(request)
            assert submitted["node_id"] == home.node_id

            _kill(victim)
            for _ in range(2):
                router.probe_all()
            assert router.health()["eligible_nodes"] == 1

            view = client.wait(submitted["id"], timeout=60)
            assert view.state == JOB_DONE
            assert view.degraded is False
            assert view.id == submitted["id"]  # public id survived
            assert view.node_id != home.node_id  # ran on the survivor
            assert _listings(view) == _listings(reference)
            metrics = router.metrics.as_dict()
            assert metrics["repro_router_failovers_total"] == 1
        finally:
            router.shutdown()
            for server in nodes.values():
                server.scheduler.shutdown(drain=False, timeout=5)
                try:
                    _kill(server)
                except OSError:
                    pass

    def test_failover_respects_exhausted_deadline(self):
        nodes = {
            "node-a": CompileServer(workers=1, quiet=True,
                                    node_id="node-a").start(),
            "node-b": CompileServer(workers=1, quiet=True,
                                    node_id="node-b").start(),
        }
        router = ClusterRouter(
            {name: server.url for name, server in nodes.items()},
            quiet=True, health_interval_s=30.0,
        ).start()
        try:
            request = CompileRequest(workload="mul", deadline_s=0.05)
            home = next(iter(router._ring.walk(request_key(request))))
            victim = nodes[home.node_id]
            victim.scheduler.pause()
            client = ServiceClient(router.url)
            submitted = client.submit(request)
            _kill(victim)
            import time

            time.sleep(0.06)  # burn the whole budget while stranded
            view = client.wait(submitted["id"], timeout=10)
            assert view.state == "timeout"
            assert "deadline exhausted" in (view.error or "")
            metrics = router.metrics.as_dict()
            assert metrics["repro_router_deadline_exhausted_total"] == 1
            assert metrics.get("repro_router_failovers_total", 0) == 0
        finally:
            router.shutdown()
            for server in nodes.values():
                server.scheduler.shutdown(drain=False, timeout=5)
                try:
                    _kill(server)
                except OSError:
                    pass


class TestCacheTierOutage:
    def test_seeded_outage_plan_never_fails_a_compile(self):
        tier = CacheTierServer().start()
        server = CompileServer(workers=1, quiet=True, node_id="solo",
                               cache_tier=tier.endpoint).start()
        try:
            client = ServiceClient(server.url)
            with faults.injected(faults.builtin_plans()["cachetier-outage"]):
                for workload in ("mul", "add"):
                    view = client.compile(CompileRequest(workload=workload),
                                          timeout=60)
                    assert view.state == JOB_DONE
                    assert view.degraded is False
        finally:
            server.shutdown()
            tier.shutdown()

    def test_tier_dead_from_the_start_never_fails_a_compile(self):
        # No tier ever listened on this address: every tier interaction
        # is an immediate connection failure.
        server = CompileServer(workers=1, quiet=True, node_id="solo",
                               cache_tier="127.0.0.1:9").start()
        try:
            view = ServiceClient(server.url).compile(
                CompileRequest(workload="mul"), timeout=60
            )
            assert view.state == JOB_DONE
            assert view.degraded is False
        finally:
            server.shutdown()


class TestDrainUnderConcurrentSubmitters:
    def test_drain_never_strands_an_accepted_job(self):
        from repro.service.scheduler import CompileResult

        def slow_compile(request, cancel, cache, **_):
            return CompileResult(workload=request.workload,
                                 backend=request.backend, total_cycles=1)

        # Seeded latency makes the drain window non-trivial without
        # making the test slow or flaky.
        plan = FaultPlan(name="drain-storm", seed=11, rules=[
            FaultRule(site=faults.SITE_SCHEDULER_JOB, kind="latency",
                      latency_s=0.01, every=2),
        ])
        server = CompileServer(workers=2, quiet=True,
                               compile_fn=slow_compile, grace_s=0.0).start()
        client_urls = server.url
        accepted: list = []
        accepted_lock = threading.Lock()
        stop = threading.Event()

        def submitter(i: int) -> None:
            client = ServiceClient(client_urls)
            n = 0
            while not stop.is_set():
                n += 1
                try:
                    reply = client.submit(
                        CompileRequest(workload="mul", width=64 + (n % 7),
                                       idempotency_key=f"storm-{i}-{n}"),
                        honor_retry_after=False,
                    )
                except ServiceError:
                    return  # admission closed under us: expected
                with accepted_lock:
                    accepted.append(reply["id"])

        with faults.injected(plan):
            threads = [threading.Thread(target=submitter, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            import time

            time.sleep(0.15)  # let the storm build a queue
            clean = server.shutdown()
            stop.set()
            for t in threads:
                t.join(timeout=10)

        assert clean  # the drain finished; nothing was abandoned
        assert accepted  # the storm actually landed submissions
        # Every accepted job reached a terminal state before the
        # scheduler stopped.
        for job_id in set(accepted):
            job = server.scheduler.get(job_id)
            assert job is not None and job.state in TERMINAL_STATES
        # And the ledger balances: everything admitted is accounted for.
        metrics = server.scheduler.metrics.as_dict()
        terminal = sum(metrics.get(name, 0) for name in (
            "repro_jobs_completed_total", "repro_jobs_failed_total",
            "repro_jobs_cancelled_total", "repro_jobs_timeout_total",
        ))
        assert metrics["repro_jobs_submitted_total"] == terminal
        assert metrics["repro_queue_depth"] == 0
        assert metrics["repro_jobs_inflight"] == 0
