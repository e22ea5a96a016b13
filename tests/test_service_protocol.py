"""Wire-protocol tests: round trips, validation, versioning, and the
long-poll ``GET /jobs/<id>?wait=S`` over real sockets."""

import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.workloads  # noqa: F401 - populate the registry
from repro.errors import ProtocolError, ServiceError
from repro.service import ServiceClient, protocol
from repro.service.protocol import (
    JOB_DONE,
    JOB_QUEUED,
    MAX_WAIT_S,
    PROTOCOL_VERSION,
    CompileRequest,
    CompileResult,
    JobView,
    parse_wait,
)


class TestCompileRequest:
    def test_roundtrip(self):
        req = CompileRequest(workload="sobel", backend="rake", width=128,
                             height=32, priority=3, deadline_s=10.0,
                             rules=True)
        data = req.to_dict()
        assert data["v"] == PROTOCOL_VERSION
        assert CompileRequest.from_dict(data) == req

    def test_defaults(self):
        req = CompileRequest.from_dict({"workload": "mul"})
        assert req.backend == "rake"
        assert req.width is None and req.height is None
        assert req.priority == 10 and req.deadline_s is None
        assert req.trace is False and req.rules is False

    def test_unknown_fields_tolerated(self):
        req = CompileRequest.from_dict(
            {"workload": "mul", "future_flag": True})
        assert req.workload == "mul"

    def test_jobs_from_older_clients_is_ignored(self):
        req = CompileRequest.from_dict(
            {"workload": "mul", "jobs": 4, "v": PROTOCOL_VERSION})
        assert req == CompileRequest(workload="mul")
        assert "jobs" not in req.to_dict()

    def test_batch_eval_from_older_clients_is_ignored(self):
        # Every oracle check runs one plan over the whole bank, so the
        # switch selects nothing: the body is accepted and keys (and so
        # coalesces and shards) like the same body without it.
        from repro.service.coalesce import request_key

        body = {"workload": "mul", "v": PROTOCOL_VERSION}
        req = CompileRequest.from_dict({**body, "batch_eval": False})
        assert req == CompileRequest.from_dict(body)
        assert "batch_eval" not in req.to_dict()
        assert request_key(req) == request_key(CompileRequest.from_dict(body))

    def test_version_mismatch_rejected(self):
        with pytest.raises(ProtocolError, match="version"):
            CompileRequest.from_dict({"workload": "mul", "v": 99})

    @pytest.mark.parametrize("patch", [
        {"workload": ""},
        {"backend": "llvm"},
        {"width": -1},
        {"height": 0},
        {"priority": "high"},
        {"deadline_s": -2},
        {"trace": "false"},
        {"width": True},
        {"height": False},
        {"priority": True},
        {"rules": 1},
        {"deadline_s": True},
        {"deadline_s": False},
    ])
    def test_invalid_fields_rejected(self, patch):
        data = {"workload": "mul", **patch}
        with pytest.raises(ProtocolError):
            CompileRequest.from_dict(data)

    def test_unknown_workload_with_registry(self):
        with pytest.raises(ProtocolError, match="unknown workload"):
            CompileRequest(workload="nope").validate(
                known_workloads={"mul", "sobel"})

    def test_non_dict_body(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            CompileRequest.from_dict([1, 2, 3])

    def test_target_defaults_to_hvx_and_roundtrips(self):
        assert CompileRequest.from_dict({"workload": "mul"}).target == "hvx"
        req = CompileRequest(workload="mul", target="neon")
        assert CompileRequest.from_dict(req.to_dict()) == req

    def test_unknown_target_rejected(self):
        with pytest.raises(ProtocolError, match="unknown target"):
            CompileRequest.from_dict({"workload": "mul", "target": "sse42"})


class TestCompileResult:
    def test_roundtrip(self):
        result = CompileResult(
            workload="mul", backend="rake", total_cycles=384,
            stage_cycles=({"name": "out", "total": 384, "compute_ii": 2,
                           "memory_cycles": 64, "bound": "compute"},),
            programs=({"stage": "out", "selector": "rake",
                       "listing": "v0 = vmpy(a, b)"},),
            optimized_exprs=1, fallbacks=0,
            stats={"totals": {"queries": 93}},
        )
        assert CompileResult.from_dict(result.to_dict()) == result

    def test_missing_field_rejected(self):
        with pytest.raises(ProtocolError, match="missing field"):
            CompileResult.from_dict({"workload": "mul", "backend": "rake"})


class TestJobView:
    def _view(self, **kwargs):
        defaults = dict(
            id="abc123", state=JOB_QUEUED,
            request=CompileRequest(workload="mul"),
            key="deadbeef", submitted_at=1000.0,
        )
        defaults.update(kwargs)
        return JobView(**defaults)

    def test_roundtrip_queued(self):
        view = self._view()
        restored = JobView.from_dict(view.to_dict())
        assert restored == view
        assert not restored.terminal

    def test_roundtrip_with_result(self):
        result = CompileResult(workload="mul", backend="rake",
                               total_cycles=384)
        view = self._view(state=JOB_DONE, started_at=1000.5,
                          finished_at=1001.0, wait_s=0.5, run_s=0.5,
                          coalesced_waiters=2, result=result)
        restored = JobView.from_dict(view.to_dict())
        assert restored == view
        assert restored.terminal
        assert restored.result.total_cycles == 384

    def test_unknown_state_rejected(self):
        data = self._view().to_dict()
        data["state"] = "exploded"
        with pytest.raises(ProtocolError, match="unknown state"):
            JobView.from_dict(data)

    def test_version_mismatch_rejected(self):
        data = self._view().to_dict()
        data["v"] = 0
        with pytest.raises(ProtocolError, match="version"):
            JobView.from_dict(data)


class TestParseWait:
    def test_absent_means_answer_at_once(self):
        assert parse_wait(None) == 0.0
        assert parse_wait("trace=1") == 0.0

    def test_window_is_read_in_seconds(self):
        assert parse_wait("wait=2.5") == 2.5
        assert parse_wait("trace=1&wait=0") == 0.0

    def test_window_above_the_cap_is_clamped(self):
        assert parse_wait("wait=1e9") == MAX_WAIT_S

    @pytest.mark.parametrize("value", ["abc", "-1", "nan", "inf", "-inf", ""])
    def test_malformed_window_is_a_protocol_error(self, value):
        with pytest.raises(ProtocolError, match="wait"):
            parse_wait(f"wait={value}")


def resume_after(server, delay_s):
    timer = threading.Timer(delay_s, server.scheduler.resume)
    timer.start()
    return timer


class TestLongPoll:
    def test_wait_answers_as_soon_as_the_job_finishes(self, held_server):
        client = ServiceClient(held_server.url)
        job_id = client.submit(CompileRequest(workload="mul"))["id"]
        timer = resume_after(held_server, 0.3)
        start = time.monotonic()
        view = client.status(job_id, wait=5)
        elapsed = time.monotonic() - start
        timer.cancel()
        assert view.state == JOB_DONE
        assert 0.25 <= elapsed < 2.5

    def test_held_job_answers_its_live_view_after_the_window(
            self, held_server):
        client = ServiceClient(held_server.url)
        job_id = client.submit(CompileRequest(workload="mul"))["id"]
        start = time.monotonic()
        view = client.status(job_id, wait=0.3)
        assert view.state == JOB_QUEUED
        assert 0.3 <= time.monotonic() - start < 2.0

    def test_malformed_wait_is_400(self, held_server):
        job_id = ServiceClient(held_server.url).submit(
            CompileRequest(workload="mul"))["id"]
        for value in ("abc", "-1", "nan", "inf"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"{held_server.url}/jobs/{job_id}?wait={value}",
                    timeout=5)
            assert err.value.code == 400, value

    def test_wait_above_the_cap_is_clamped(self, held_server, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_WAIT_S", 0.3)
        client = ServiceClient(held_server.url)
        job_id = client.submit(CompileRequest(workload="mul"))["id"]
        start = time.monotonic()
        view = client.status(job_id, wait=1000)
        assert view.state == JOB_QUEUED
        assert 0.3 <= time.monotonic() - start < 5.0

    def test_client_wait_makes_one_status_call_for_a_job_done_in_one_window(
            self, held_server, monkeypatch):
        client = ServiceClient(held_server.url)
        job_id = client.submit(CompileRequest(workload="mul"))["id"]
        calls = []
        status = client.status

        def counted(job_id, wait=0.0):
            calls.append(wait)
            return status(job_id, wait=wait)

        monkeypatch.setattr(client, "status", counted)
        timer = resume_after(held_server, 0.2)
        view = client.wait(job_id, timeout=30)
        timer.cancel()
        assert view.state == JOB_DONE
        assert len(calls) == 1

    def test_client_wait_timeout_raises_after_about_the_timeout(
            self, held_server):
        client = ServiceClient(held_server.url)
        job_id = client.submit(CompileRequest(workload="mul"))["id"]
        start = time.monotonic()
        with pytest.raises(ServiceError, match="timed out"):
            client.wait(job_id, timeout=0.3)
        assert 0.3 <= time.monotonic() - start < 2.0
