"""End-to-end HTTP tests: real sockets, real compiles, real shutdown.

The ``CompileServer`` is booted on an ephemeral port per test class and
driven exclusively through :class:`ServiceClient` — the same path the
CLI's ``submit``/``status`` subcommands use — so these tests pin the wire
format, not just the Python API.
"""

import json
import time
import urllib.request

import pytest

import repro.workloads  # noqa: F401 - populate the registry
from repro.errors import ServiceError
from repro.hvx import program_listing
from repro.pipeline import compile_pipeline
from repro.service import CompileRequest, CompileServer, ServiceClient
from repro.service.protocol import JOB_DONE
from repro.service.scheduler import CompileResult
from repro.workloads.base import get


def quick_compile(request, cancel, cache, **_):
    return CompileResult(workload=request.workload, backend=request.backend,
                         total_cycles=1)


@pytest.fixture
def server():
    srv = CompileServer(workers=2, quiet=True).start()
    yield srv
    srv.shutdown()


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


class TestEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        from repro.service.protocol import PROTOCOL_VERSION

        assert health["status"] == "ok"
        assert health["v"] == PROTOCOL_VERSION
        assert health["workloads"] >= 21

    def test_unknown_routes_404(self, server):
        for method, path in (("GET", "/nope"), ("POST", "/nope")):
            req = urllib.request.Request(server.url + path, method=method)
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=5)
            assert err.value.code == 404

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError, match="unknown job"):
            client.status("feedface0000")

    def test_bad_request_body_400(self, server):
        req = urllib.request.Request(
            server.url + "/compile", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=5)
        assert err.value.code == 400

    def test_unknown_workload_400(self, client):
        with pytest.raises(ServiceError, match="unknown workload"):
            client.submit(CompileRequest(workload="not-a-kernel"))

    def test_metrics_text_and_json(self, client):
        text = client.metrics_text()
        assert "# TYPE repro_jobs_submitted_total counter" in text
        data = client.metrics()
        assert "repro_jobs_submitted_total" in data


class TestCompileFlow:
    def test_server_matches_one_shot_compile(self, client):
        """Acceptance: served selections are byte-identical to the CLI's."""
        view = client.compile(CompileRequest(workload="mul", backend="rake"),
                              timeout=120)
        assert view.state == JOB_DONE

        wl = get("mul")
        compiled = compile_pipeline(wl.build(), backend="rake")
        expected = [
            {"stage": cs.name, "selector": ce.selector,
             "listing": program_listing(ce.program),
             "rule_hit": False}
            for cs in compiled.stages for ce in cs.exprs
            if ce.selector != "trivial"
        ]
        assert list(view.result.programs) == expected

        from repro.sim import measure
        assert view.result.total_cycles == \
            measure(compiled, wl.width, wl.height).total

    def test_warm_second_run_hits_cache(self, client):
        cold = client.compile(CompileRequest(workload="mul"), timeout=120)
        warm = client.compile(CompileRequest(workload="mul"), timeout=120)
        assert cold.result.stats["totals"]["cache_misses"] > 0
        assert warm.result.stats["totals"]["cache_misses"] == 0
        assert warm.result.programs == cold.result.programs


class TestCoalescingOverHTTP:
    def test_identical_submissions_coalesce(self):
        server = CompileServer(workers=1, quiet=True,
                               compile_fn=quick_compile).start()
        try:
            client = ServiceClient(server.url)
            server.scheduler.pause()
            first = client.submit(CompileRequest(workload="mul"))
            second = client.submit(CompileRequest(workload="mul"))
            distinct = client.submit(CompileRequest(workload="add"))
            assert not first["coalesced"]
            assert second["coalesced"] and second["id"] == first["id"]
            assert not distinct["coalesced"]
            server.scheduler.resume()
            view = client.wait(first["id"], timeout=30)
            assert view.coalesced_waiters == 1
            assert client.metrics()["repro_jobs_coalesced_total"] == 1
            assert "repro_jobs_coalesced_total 1" in client.metrics_text()
        finally:
            server.shutdown()


class TestCancelOverHTTP:
    def test_cancel_queued_job(self):
        server = CompileServer(workers=1, quiet=True,
                               compile_fn=quick_compile).start()
        try:
            client = ServiceClient(server.url)
            server.scheduler.pause()
            submitted = client.submit(CompileRequest(workload="mul"))
            assert client.cancel(submitted["id"])
            view = client.status(submitted["id"])
            assert view.state == "cancelled"
            assert not client.cancel(submitted["id"])  # already terminal
        finally:
            server.shutdown()


class TestGracefulShutdown:
    def test_drain_completes_inflight_jobs_and_flushes_cache(self, tmp_path):
        server = CompileServer(workers=1, quiet=True,
                               cache_dir=str(tmp_path)).start()
        client = ServiceClient(server.url)
        submitted = client.submit(CompileRequest(workload="mul"))
        assert client.shutdown() == {"draining": True}
        # Polls must keep working through the drain window.
        view = client.wait(submitted["id"], timeout=120)
        assert view.state == JOB_DONE
        # The HTTP loop stops shortly after the drain finishes.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                client.healthz()
            except ServiceError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("server kept serving after graceful shutdown")
        store = tmp_path / "oracle.jsonl"
        assert store.exists()
        # Every flushed line is a complete map record.
        for line in store.read_text().splitlines():
            assert json.loads(line)["t"] == "m"

    def test_submissions_after_shutdown_are_rejected(self):
        server = CompileServer(workers=1, quiet=True,
                               compile_fn=quick_compile).start()
        client = ServiceClient(server.url)
        server.scheduler.shutdown()  # close admission, keep HTTP up
        with pytest.raises(ServiceError):
            client.submit(CompileRequest(workload="mul"))
        server.shutdown()
