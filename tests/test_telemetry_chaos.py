"""Telemetry must never hurt its producer, and the service must feed it.

The chaos half injects every relevant failure kind at the
``telemetry.flush`` site — in-process error, disk ``OSError``, torn
write — plus an unwritable store directory, and proves the compile that
produced the records always exits clean, never degrades, and (for the
cache path) still replays the verdict store byte-for-byte with zero
misses.  The service half asserts the scheduler emits one record per
completed job and serves the corpus through ``GET /telemetry/summary``
and the labeled ``repro_compile_seconds`` histogram in ``/metrics``.
"""

import json
import urllib.request

import pytest

import repro.workloads  # noqa: F401 - populate the registry
from repro import faults
from repro.cli import main
from repro.faults import FaultPlan, FaultRule
from repro.telemetry import TelemetryStore, build_record, emit, read_store
from repro.service import CompileRequest, CompileServer, ServiceClient

WORKLOAD = "mul"  # fastest full compile in the suite


@pytest.fixture(autouse=True)
def no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


def flush_plan(kind, every=1):
    return FaultPlan(name=f"tel-{kind}", seed=3, rules=[
        FaultRule(site=faults.SITE_TELEMETRY_FLUSH, kind=kind, every=every),
    ])


def cli_compile(tmp_path, telemetry_dir, cache_dir=None):
    """One rake compile through the real CLI; returns its stats payload."""
    stats = tmp_path / "stats.json"
    argv = ["compile", WORKLOAD, "--backend", "rake",
            "--telemetry-dir", str(telemetry_dir),
            "--stats-json", str(stats)]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    code = main(argv)
    return code, json.loads(stats.read_text())


class TestFlushFaults:
    @pytest.mark.parametrize("kind", [faults.KIND_ERROR, faults.KIND_OSERROR])
    def test_raising_kinds_are_swallowed(self, tmp_path, kind):
        store = TelemetryStore(tmp_path)
        plan = flush_plan(kind)
        with faults.injected(plan):
            rid = emit(store, build_record(
                source="test", workload=WORKLOAD, target="hvx", wall_s=1.0))
        assert rid is not None  # append succeeded; the flush ate the fault
        assert plan.injected_total() >= 1
        assert store.log.write_errors >= 1
        assert read_store(tmp_path).records == []  # batch dropped, not torn

    def test_torn_write_caught_by_crc_and_quarantined(self, tmp_path):
        store = TelemetryStore(tmp_path)
        good = build_record(source="test", workload=WORKLOAD,
                            target="hvx", wall_s=1.0)
        emit(store, good)  # clean first line
        with faults.injected(flush_plan(faults.KIND_TORN_WRITE)):
            emit(store, build_record(source="test", workload="add",
                                     target="hvx", wall_s=2.0))
        report = read_store(tmp_path, repair=True)
        assert report.corrupt_lines == 1
        assert [r["id"] for r in report.records] == [good["id"]]
        assert len(report.quarantined) == 1
        # the compacted store reads clean and keeps accepting records
        emit(store, build_record(source="test", workload="sub",
                                 target="hvx", wall_s=3.0))
        again = read_store(tmp_path)
        assert again.corrupt_lines == 0 and len(again.records) == 2

    @pytest.mark.parametrize("kind", [
        faults.KIND_ERROR, faults.KIND_OSERROR, faults.KIND_TORN_WRITE])
    def test_cli_compile_survives_flush_faults(self, tmp_path, kind):
        plan = flush_plan(kind)
        faults.activate(plan)
        try:
            code, payload = cli_compile(tmp_path, tmp_path / "tel")
        finally:
            faults.deactivate()
        assert code == 0
        assert plan.injected_total() >= 1
        assert payload["totals"]["queries"] > 0  # real synthesis happened
        # every flush failed (raised or landed torn), so the corpus reads
        # empty — the loss shows up in counters, never in the exit code
        assert read_store(tmp_path / "tel").records == []

    def test_unwritable_store_fails_fast_before_synthesis(self, tmp_path,
                                                          capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["compile", WORKLOAD, "--backend", "rake",
                     "--telemetry-dir", str(blocker / "tel")])
        assert code == 1  # explicit opt-in: one-line error, no compile paid
        assert "--telemetry" in capsys.readouterr().err

    def test_store_turning_unwritable_mid_run_never_raises(self, tmp_path):
        # Past the pre-flight the contract flips to best-effort: a store
        # that becomes unwritable after the compile started only counts.
        store = TelemetryStore(tmp_path / "gone" / "deeper")
        (tmp_path / "gone").write_text("now a file")
        rid = emit(store, build_record(source="test", workload=WORKLOAD,
                                       target="hvx", wall_s=1.0))
        assert rid is not None
        assert store.log.write_errors == 1


class TestWarmReplayWithTelemetry:
    def test_verdict_cache_replay_zero_misses(self, tmp_path):
        cache = tmp_path / "cache"
        tel = tmp_path / "tel"
        code, cold = cli_compile(tmp_path, tel, cache_dir=cache)
        assert code == 0 and cold["totals"]["cache_misses"] > 0
        code, warm = cli_compile(tmp_path, tel, cache_dir=cache)
        assert code == 0
        assert warm["totals"]["cache_misses"] == 0
        assert warm["totals"]["cache_hits"] > 0
        # both compiles landed in the corpus, stamped with their ids
        records = read_store(tel).records
        assert {r["id"] for r in records} >= {
            cold["telemetry"]["record_id"], warm["telemetry"]["record_id"]}
        by_id = {r["id"]: r for r in records}
        assert by_id[warm["telemetry"]["record_id"]]["totals"][
            "cache_misses"] == 0
        assert not any(r["degraded"] for r in records)


class TestServiceTelemetry:
    def test_scheduler_emits_and_serves_summary(self, tmp_path):
        tel = tmp_path / "tel"
        server = CompileServer(workers=1, quiet=True, grace_s=0.0,
                               telemetry_dir=str(tel)).start()
        try:
            client = ServiceClient(server.url)
            view = client.compile(CompileRequest(workload=WORKLOAD),
                                  timeout=300)
            assert view.state == "done"

            summary = json.load(urllib.request.urlopen(
                server.url + "/telemetry/summary"))
            assert summary["enabled"] is True
            assert summary["records"] >= 1
            (group,) = [g for g in summary["groups"]
                        if g["workload"] == WORKLOAD]
            assert group["target"] == "hvx" and group["n"] >= 1

            metrics = urllib.request.urlopen(
                server.url + "/metrics").read().decode()
            assert (f'repro_compile_seconds_count{{target="hvx",'
                    f'workload="{WORKLOAD}"}}') in metrics
        finally:
            server.shutdown()

        # on disk: one record per completed job, source-stamped
        records = read_store(tel).records
        assert len(records) == 1
        (record,) = records
        assert record["source"] == "service"
        assert record["workload"] == WORKLOAD
        assert record["queue_wait_s"] is not None
        assert record["extra"]["job_id"]

    def test_summary_reports_disabled_without_store(self):
        from repro.service.scheduler import JobScheduler

        sched = JobScheduler(workers=1)
        try:
            assert sched.telemetry_summary() == {"enabled": False}
        finally:
            sched.shutdown()
