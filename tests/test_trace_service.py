"""Traced jobs in the compilation service.

Covers the wire contract added for observability: ``trace: true`` in a
:class:`CompileRequest` gives the job a ``trace_id``, the span tree is
retrievable via ``GET /jobs/<id>?trace=1``, traced spans fold into
``/metrics`` histograms, and legacy compile functions that predate the
``tracer`` keyword keep working untouched.
"""

import json
import urllib.request

import pytest

import repro.workloads  # noqa: F401 - populate the registry
from repro.service import CompileRequest, CompileServer, ServiceClient
from repro.service.protocol import JOB_DONE, JobView, ProtocolError
from repro.service.scheduler import CompileResult, JobScheduler
from repro.trace.export import validate_chrome_trace  # noqa: F401


def traced_compile(request, cancel, cache, tracer=None, **_):
    """Stub compile that records a tiny span tree when traced."""
    if tracer is not None:
        with tracer.span("pipeline.compile", backend=request.backend):
            with tracer.span("oracle.query", cache="miss"):
                pass
    return CompileResult(workload=request.workload, backend=request.backend,
                         total_cycles=1)


class TestProtocol:
    def test_trace_defaults_false_and_roundtrips(self):
        req = CompileRequest(workload="mul")
        assert req.trace is False
        from repro.service.protocol import PROTOCOL_VERSION

        wire = CompileRequest.from_dict(
            {"v": PROTOCOL_VERSION, "workload": "mul", "trace": True})
        assert wire.trace is True

    def test_trace_must_be_boolean(self):
        with pytest.raises(ProtocolError, match="trace must be a boolean"):
            CompileRequest(workload="mul", trace=1).validate()

    def test_jobview_trace_id_roundtrips(self):
        view = JobView(id="j1", state=JOB_DONE, request=CompileRequest(
            workload="mul"), trace_id="cafe")
        assert JobView.from_dict(view.to_dict()).trace_id == "cafe"
        assert JobView.from_dict(
            JobView(id="j2", state=JOB_DONE,
                    request=CompileRequest(workload="mul")).to_dict()
        ).trace_id is None


class TestScheduler:
    def test_traced_job_records_tree(self):
        s = JobScheduler(workers=1, compile_fn=traced_compile)
        try:
            job, _ = s.submit(CompileRequest(workload="mul", trace=True))
            done = s.wait(job.id, timeout=10)
            assert done.state == JOB_DONE
            assert done.trace_id is not None
            assert done.trace["trace_id"] == done.trace_id
            names = [sp["name"] for sp in done.trace["spans"]]
            assert names == ["pipeline.compile"]
            assert done.view().trace_id == done.trace_id
        finally:
            s.shutdown(drain=False)

    def test_untraced_job_has_no_tracer(self):
        s = JobScheduler(workers=1, compile_fn=traced_compile)
        try:
            job, _ = s.submit(CompileRequest(workload="mul"))
            done = s.wait(job.id, timeout=10)
            assert done.state == JOB_DONE
            assert done.trace_id is None
            assert done.trace is None
        finally:
            s.shutdown(drain=False)

    def test_traced_spans_fold_into_metrics(self):
        s = JobScheduler(workers=1, compile_fn=traced_compile)
        try:
            job, _ = s.submit(CompileRequest(workload="mul", trace=True))
            assert s.wait(job.id, timeout=10).state == JOB_DONE
            metrics = s.metrics.as_dict()
            assert "repro_span_pipeline_compile_seconds" in metrics
            assert "repro_span_oracle_query_seconds" in metrics
            assert metrics["repro_span_oracle_query_seconds"]["count"] == 1
        finally:
            s.shutdown(drain=False)


@pytest.fixture
def server():
    srv = CompileServer(workers=1, compile_fn=traced_compile,
                        quiet=True).start()
    yield srv
    srv.shutdown()


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


class TestHttp:
    def test_trace_query_returns_tree(self, client):
        reply = client.submit(CompileRequest(workload="mul", trace=True))
        view = client.wait(reply["id"], timeout=10)
        assert view.state == JOB_DONE
        assert view.trace_id is not None
        tree = client.trace(reply["id"])
        assert tree["trace_id"] == view.trace_id
        assert [sp["name"] for sp in tree["spans"]] == ["pipeline.compile"]

    def test_default_view_omits_tree(self, server, client):
        reply = client.submit(CompileRequest(workload="mul", trace=True))
        client.wait(reply["id"], timeout=10)
        raw = urllib.request.urlopen(
            server.url + f"/jobs/{reply['id']}", timeout=5).read()
        payload = json.loads(raw)
        assert "trace" not in payload
        assert payload["trace_id"] is not None

    def test_untraced_job_trace_is_null(self, client):
        reply = client.submit(CompileRequest(workload="mul"))
        view = client.wait(reply["id"], timeout=10)
        assert view.trace_id is None
        assert client.trace(reply["id"]) is None
