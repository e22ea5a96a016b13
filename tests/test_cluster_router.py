"""The cluster router: sharding, health gating, proxying, id aliasing.

Real sockets end to end: stub-compile :class:`CompileServer` workers
behind a real :class:`ClusterRouter`, driven through the unmodified
:class:`ServiceClient` — the point of the router speaking the worker
wire API is that this client needs no cluster awareness, and these
tests hold it to that.
"""

import threading
import time

import pytest

import repro.workloads  # noqa: F401 - populate the registry
from repro import faults
from repro.cluster import ClusterRouter
from repro.cluster.membership import WorkerNode
from repro.cluster.router import _Ring
from repro.errors import ServiceError
from repro.service import CompileRequest, CompileServer, ServiceClient
from repro.service.coalesce import request_key
from repro.service.protocol import JOB_DONE
from repro.service.scheduler import CompileResult


@pytest.fixture(autouse=True)
def no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


def quick_compile(request, cancel, cache, **_):
    return CompileResult(workload=request.workload, backend=request.backend,
                         total_cycles=1)


@pytest.fixture
def cluster():
    nodes = {
        "node-a": CompileServer(workers=1, quiet=True, node_id="node-a",
                                compile_fn=quick_compile).start(),
        "node-b": CompileServer(workers=1, quiet=True, node_id="node-b",
                                compile_fn=quick_compile).start(),
    }
    router = ClusterRouter(
        {name: server.url for name, server in nodes.items()},
        quiet=True, health_interval_s=30.0,  # probes driven by hand
    ).start()
    yield router, nodes
    router.shutdown()
    for server in nodes.values():
        server.shutdown()


class TestRing:
    def test_identical_keys_share_a_home(self, cluster):
        router, _ = cluster
        homes = {next(iter(router._ring.walk("some-key"))).node_id
                 for _ in range(5)}
        assert len(homes) == 1

    def test_walk_yields_each_node_once(self, cluster):
        router, _ = cluster
        ids = [node.node_id for node in router._ring.walk("k")]
        assert sorted(ids) == ["node-a", "node-b"]

    def test_ring_spreads_keys(self, cluster):
        router, _ = cluster
        homes = {next(iter(router._ring.walk(f"key-{i}"))).node_id
                 for i in range(64)}
        assert homes == {"node-a", "node-b"}  # both sides get work

    def test_ring_is_stable_across_instances(self, cluster):
        router, _ = cluster
        rebuilt = _Ring(router.nodes)
        for i in range(16):
            key = f"key-{i}"
            assert (next(iter(rebuilt.walk(key))).node_id
                    == next(iter(router._ring.walk(key))).node_id)


class TestRouting:
    def test_compile_through_router_matches_worker_api(self, cluster):
        router, _ = cluster
        client = ServiceClient(router.url)
        view = client.compile(CompileRequest(workload="mul"), timeout=20)
        assert view.state == JOB_DONE
        assert view.node_id in ("node-a", "node-b")
        assert view.routed_by == "router"
        assert not view.degraded

    def test_identical_requests_land_on_one_node_and_coalesce(self, cluster):
        router, nodes = cluster
        for server in nodes.values():
            server.scheduler.pause()
        client = ServiceClient(router.url)
        replies = [client.submit(CompileRequest(workload="mul",
                                                idempotency_key=f"key-{i}"))
                   for i in range(3)]
        owners = {r["node_id"] for r in replies}
        assert len(owners) == 1  # sharded by coalescing key
        assert len({r["id"] for r in replies}) == 1  # coalesced there
        assert sum(1 for r in replies if r["coalesced"]) == 2
        for server in nodes.values():
            server.scheduler.resume()
        assert client.wait(replies[0]["id"], timeout=20).state == JOB_DONE

    def test_retried_submission_replays_idempotently(self, cluster):
        router, nodes = cluster
        for server in nodes.values():
            server.scheduler.pause()
        client = ServiceClient(router.url)
        request = CompileRequest(workload="mul", idempotency_key="retry-me")
        first = client.submit(request)
        second = client.submit(request)
        assert second["id"] == first["id"]
        assert second["idempotent"] is True
        assert second["coalesced"] is False
        for server in nodes.values():
            server.scheduler.resume()
        assert client.wait(first["id"], timeout=20).state == JOB_DONE

    def test_unknown_job_404s(self, cluster):
        router, _ = cluster
        client = ServiceClient(router.url)
        with pytest.raises(ServiceError, match="unknown job"):
            client.status("feedface0000")

    def test_cancel_proxies_to_owning_node(self, cluster):
        router, nodes = cluster
        for server in nodes.values():
            server.scheduler.pause()
        client = ServiceClient(router.url)
        submitted = client.submit(CompileRequest(workload="mul"))
        assert client.cancel(submitted["id"]) is True
        view = client.status(submitted["id"])
        assert view.state == "cancelled"
        assert view.id == submitted["id"]

    def test_router_health_reports_membership(self, cluster):
        router, _ = cluster
        client = ServiceClient(router.url)
        health = client.healthz()
        assert health["role"] == "router"
        assert health["eligible_nodes"] == 2
        assert {n["node_id"] for n in health["nodes"]} == {"node-a", "node-b"}

    def test_router_metrics_render(self, cluster):
        router, _ = cluster
        client = ServiceClient(router.url)
        client.compile(CompileRequest(workload="mul"), timeout=20)
        text = client.metrics_text()
        assert "repro_router_forwards_total" in text
        assert client.metrics()["repro_router_nodes"] == 2


class TestHealthGating:
    def test_dead_node_is_probed_down_and_routed_around(self, cluster):
        router, nodes = cluster
        nodes["node-a"].shutdown()
        for _ in range(2):
            router.probe_all()
        health = router.health()
        assert health["eligible_nodes"] == 1
        client = ServiceClient(router.url)
        # Every submission now lands on the survivor, including keys
        # whose ring home was the dead node.
        for workload in ("mul", "add", "dilate3x3"):
            view = client.compile(CompileRequest(workload=workload),
                                  timeout=20)
            assert view.state == JOB_DONE
            assert view.node_id == "node-b"

    def test_one_missed_probe_does_not_down_a_node(self, cluster):
        router, nodes = cluster
        with faults.injected(faults.FaultPlan(rules=[
            faults.FaultRule(site=faults.SITE_WORKER_HEALTH, kind="oserror",
                             on_nth=1, max_fires=1),
        ])):
            router.probe_all()  # node-a's probe fails once
        assert router.health()["eligible_nodes"] == 2

    def test_all_nodes_down_sheds_503_with_retry_after(self, cluster):
        router, nodes = cluster
        for server in nodes.values():
            server.shutdown()
        for _ in range(2):
            router.probe_all()
        client = ServiceClient(router.url)
        with pytest.raises(ServiceError, match="no healthy worker node"):
            client.submit(CompileRequest(workload="mul"),
                          honor_retry_after=False)
        metrics = router.metrics.as_dict()
        assert metrics["repro_router_sheds_total"] >= 1

    def test_injected_forward_fault_walks_the_ring(self, cluster):
        router, _ = cluster
        client = ServiceClient(router.url)
        with faults.injected(faults.FaultPlan(rules=[
            faults.FaultRule(site=faults.SITE_ROUTER_FORWARD, kind="oserror",
                             on_nth=1, max_fires=1),
        ])):
            view = client.compile(CompileRequest(workload="mul"), timeout=20)
        assert view.state == JOB_DONE  # second ring node absorbed it
        metrics = router.metrics.as_dict()
        assert metrics["repro_router_forward_errors_total"] == 1

    def test_recovered_node_is_probed_back_in(self, cluster):
        router, nodes = cluster
        node_a = next(n for n in router.nodes if n.node_id == "node-a")
        node_a.mark_dead()
        router._refresh_eligible_gauge()
        assert router.health()["eligible_nodes"] == 1
        router.probe_all()  # node-a still answers /healthz: back in
        assert router.health()["eligible_nodes"] == 2


def _home_id(request, node_ids=("node-a", "node-b")) -> str:
    """The id of the node the ring sends ``request`` to first."""
    ring = _Ring([WorkerNode(node_id=n, url="") for n in node_ids])
    return next(iter(ring.walk(request_key(request)))).node_id


def _vanish(server: CompileServer) -> None:
    """Take a worker off the network without draining it."""
    server._httpd.shutdown()
    server._httpd.server_close()


class TestLongPollThroughRouter:
    def test_long_poll_outlasts_the_hop_timeout(self):
        nodes = {
            name: CompileServer(workers=1, quiet=True, node_id=name,
                                compile_fn=quick_compile).start()
            for name in ("node-a", "node-b")
        }
        router = ClusterRouter(
            {name: server.url for name, server in nodes.items()},
            quiet=True, health_interval_s=30.0, hop_timeout_s=0.5,
        ).start()
        try:
            request = CompileRequest(workload="mul")
            home = nodes[_home_id(request)]
            home.scheduler.pause()
            client = ServiceClient(router.url)
            job_id = client.submit(request)["id"]
            timer = threading.Timer(1.0, home.scheduler.resume)
            timer.start()
            start = time.monotonic()
            view = client.status(job_id, wait=5)
            timer.cancel()
            assert view.state == JOB_DONE
            assert view.node_id == home.node_id
            assert time.monotonic() - start >= 0.9
            metrics = router.metrics.as_dict()
            assert metrics.get("repro_router_failovers_total", 0) == 0
        finally:
            router.shutdown()
            for server in nodes.values():
                server.shutdown()

    def test_node_killed_during_a_long_poll_fails_over(self):
        request = CompileRequest(workload="mul")
        single = CompileServer(workers=1, quiet=True).start()
        try:
            reference = ServiceClient(single.url).compile(request, timeout=60)
        finally:
            single.shutdown()
        nodes = {
            name: CompileServer(workers=1, quiet=True, node_id=name).start()
            for name in ("node-a", "node-b")
        }
        router = ClusterRouter(
            {name: server.url for name, server in nodes.items()},
            quiet=True, health_interval_s=30.0,
        ).start()
        try:
            victim = nodes[_home_id(request)]
            victim.scheduler.pause()
            polled = threading.Event()
            get = victim.scheduler.get

            def spy(job_id):
                polled.set()
                return get(job_id)

            victim.scheduler.get = spy
            client = ServiceClient(router.url)
            submitted = client.submit(request)
            outcome = {}
            waiter = threading.Thread(target=lambda: outcome.update(
                view=client.wait(submitted["id"], timeout=60)))
            waiter.start()
            assert polled.wait(10)
            time.sleep(0.1)  # the victim now holds the router's long-poll
            _vanish(victim)
            waiter.join(60)
            assert not waiter.is_alive()
            view = outcome["view"]
            assert view.state == JOB_DONE
            assert view.degraded is False
            assert view.id == submitted["id"]
            assert view.node_id != victim.node_id
            assert ([p["listing"] for p in view.result.programs]
                    == [p["listing"] for p in reference.result.programs])
            metrics = router.metrics.as_dict()
            assert metrics["repro_router_failovers_total"] == 1
        finally:
            router.shutdown()
            for server in nodes.values():
                server.scheduler.shutdown(drain=False, timeout=5)
                _vanish(server)

    def test_truncated_reply_marks_the_node_dead_and_fails_over(
            self, truncating_server):
        request = CompileRequest(workload="mul")
        stub_id = _home_id(request)
        other_id = "node-b" if stub_id == "node-a" else "node-a"
        worker = CompileServer(workers=1, quiet=True, node_id=other_id,
                               compile_fn=quick_compile).start()
        router = ClusterRouter(
            {stub_id: truncating_server, other_id: worker.url},
            quiet=True, health_interval_s=30.0,
        ).start()
        try:
            client = ServiceClient(router.url)
            submitted = client.submit(request)
            assert submitted["node_id"] == "stub"
            view = client.wait(submitted["id"], timeout=30)
            assert view.state == JOB_DONE
            assert view.id == submitted["id"]
            assert view.node_id == other_id
            stub = next(n for n in router.nodes if n.node_id == stub_id)
            assert not stub.alive
            metrics = router.metrics.as_dict()
            assert metrics["repro_router_failovers_total"] == 1
        finally:
            router.shutdown()
            worker.shutdown()
