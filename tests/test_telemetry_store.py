"""The telemetry corpus: record schema, segment store, aggregation.

Each segment is an append log, whose shared contract (torn/corrupt
lines, quarantine + atomic compaction, batching, dropped failed flushes)
is in ``test_append_log.py``.  This suite covers what telemetry adds:
roundtrip, multi-segment merge, the schema gate (records from an unknown
future schema are skipped, not fatal), read-only reads, and the
aggregation layer the ``repro perf`` commands sit on.
"""

import json
import os
import shutil
import subprocess

import pytest

from repro.fsutil import decode_record, encode_record
from repro.telemetry import (
    TelemetryStore,
    build_record,
    corpus_geomean,
    emit,
    filter_records,
    is_record,
    metric_value,
    read_store,
    result_envelope,
    segment_files,
    summarize,
    summarize_groups,
    write_result_json,
)
from repro.telemetry import record
from repro.telemetry.record import SCHEMA_VERSION
from repro.synthesis.stats import SynthesisStats


def make_record(workload="mul", target="hvx", wall_s=1.0, **kw):
    return build_record(source="test", workload=workload, target=target,
                        wall_s=wall_s, **kw)


class TestRecord:
    def test_build_record_shape(self):
        stats = SynthesisStats()
        stats.stages["sketching"].queries = 7
        rec = make_record(stats=stats, degraded=True, queue_wait_s=0.5,
                          knobs={"cache": True}, extra={"phase": "cold"})
        assert rec["schema"] == SCHEMA_VERSION
        assert len(rec["id"]) == 12
        assert rec["workload"] == "mul" and rec["target"] == "hvx"
        assert rec["totals"]["queries"] == 7
        assert rec["degraded"] is True
        assert rec["queue_wait_s"] == 0.5
        assert rec["knobs"] == {"cache": True}
        assert rec["extra"] == {"phase": "cold"}
        assert rec["stage_time_s"]["sketching"] >= 0.0

    def test_is_record_gates_schema_and_fields(self):
        assert is_record(make_record())
        assert not is_record({**make_record(), "schema": SCHEMA_VERSION + 1})
        assert not is_record({**make_record(), "workload": 3})
        assert not is_record({**make_record(), "wall_s": "fast"})
        assert not is_record("nope")
        assert not is_record({})

    def test_record_is_json_and_crc_roundtrippable(self):
        rec = make_record(stats=SynthesisStats())
        assert decode_record(encode_record(rec)) == rec


class TestStore:
    def test_emit_and_read_roundtrip(self, tmp_path):
        store = TelemetryStore(tmp_path)
        rid = emit(store, make_record())
        assert rid is not None and len(rid) == 12
        report = read_store(tmp_path)
        assert report.segments == 1
        assert report.corrupt_lines == 0
        assert [r["id"] for r in report.records] == [rid]

    def test_multi_segment_merge_sorted_by_ts(self, tmp_path):
        for i in range(3):
            store = TelemetryStore(tmp_path)
            rec = make_record(workload=f"wl{i}")
            rec["ts"] = float(10 - i)  # reverse chronological insertion
            emit(store, rec)
        assert len(segment_files(tmp_path)) == 3
        report = read_store(tmp_path)
        assert [r["workload"] for r in report.records] == [
            "wl2", "wl1", "wl0"]  # ts order, not segment order

    def test_repair_false_leaves_segment_untouched(self, tmp_path):
        store = TelemetryStore(tmp_path)
        emit(store, make_record())
        with open(store.segment, "a") as fh:
            fh.write("torn\n")
        before = store.segment.read_bytes()
        report = read_store(tmp_path, repair=False)
        assert report.corrupt_lines == 1
        assert not report.quarantined
        assert store.segment.read_bytes() == before

    def test_unknown_schema_skipped_but_kept_on_disk(self, tmp_path):
        store = TelemetryStore(tmp_path)
        emit(store, make_record())
        future = {**make_record(), "schema": SCHEMA_VERSION + 7}
        with open(store.segment, "a") as fh:
            fh.write(encode_record(future) + "\n")
        fh_corrupt = open(store.segment, "a")
        fh_corrupt.write("broken\n")
        fh_corrupt.close()

        report = read_store(tmp_path, repair=True)
        assert report.skipped_records == 1
        assert len(report.records) == 1
        # compaction preserved the future-schema record for newer readers
        survivors = [decode_record(line)
                     for line in store.segment.read_text().splitlines()]
        assert any(r["schema"] == SCHEMA_VERSION + 7 for r in survivors)

    def test_unwritable_directory_never_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        store = TelemetryStore(blocker / "store")  # parent is a file
        assert emit(store, make_record()) is not None  # id still returned
        store.flush()
        assert store.log.write_errors >= 1
        assert read_store(blocker / "store").records == []

    def test_missing_directory_reads_empty(self, tmp_path):
        report = read_store(tmp_path / "nope")
        assert report.records == [] and report.segments == 0

    def test_unencodable_record_returns_none(self, tmp_path):
        store = TelemetryStore(tmp_path)
        assert store.append({"schema": 1, "oops": object()}) is None
        assert store.log.appended == 0

    def test_emit_through_none_store_is_noop(self):
        assert emit(None, make_record()) is None


class TestAggregation:
    def test_metric_value_dotted_paths(self):
        rec = make_record(stats=SynthesisStats())
        rec["totals"]["queries"] = 42
        assert metric_value(rec, "wall_s") == 1.0
        assert metric_value(rec, "totals.queries") == 42
        assert metric_value(rec, "totals.missing") is None
        assert metric_value(rec, "degraded") is None  # bool is not a metric
        assert metric_value(rec, "workload") is None

    def test_filter_records(self):
        recs = [make_record(workload="mul"), make_record(workload="add"),
                make_record(workload="mul", target="neon")]
        assert len(filter_records(recs, workload="mul")) == 2
        assert len(filter_records(recs, workload="mul", target="neon")) == 1
        assert len(filter_records(recs, source="test")) == 3
        assert len(filter_records(recs, source="cli")) == 0

    def test_summarize_nearest_rank(self):
        recs = [make_record(wall_s=v) for v in (3.0, 1.0, 2.0)]
        stats = summarize(recs, "wall_s")
        assert stats["n"] == 3
        assert stats["min"] == 1.0 and stats["max"] == 3.0
        assert stats["p50"] == 2.0
        assert summarize([], "wall_s") is None

    def test_summarize_groups_and_geomean(self):
        recs = ([make_record(workload="mul", wall_s=2.0)] * 2
                + [make_record(workload="add", wall_s=8.0)] * 2)
        rows = summarize_groups(recs, "wall_s")
        assert [r["workload"] for r in rows] == ["add", "mul"]
        assert corpus_geomean(rows) == 4.0  # sqrt(8 * 2)


class TestResultEnvelope:
    def test_envelope_stamps_provenance(self):
        doc = result_envelope("bench_x", {"rows": [1, 2]})
        assert doc["result_schema"] == 1
        assert doc["bench"] == "bench_x"
        assert doc["rows"] == [1, 2]
        assert "rev" in doc and "generated_utc" in doc

    def test_write_result_json_is_atomic_and_parseable(self, tmp_path):
        out = tmp_path / "deep" / "r.json"
        write_result_json(out, "bench_y", {"ok": True})
        loaded = json.loads(out.read_text())
        assert loaded["bench"] == "bench_y" and loaded["ok"] is True
        assert not [p for p in os.listdir(out.parent)
                    if p != out.name]  # no tmp litter


class TestGitRev:
    """``git_rev`` names the checkout's commit, marked ``-dirty`` when a
    tracked file differs from it."""

    @staticmethod
    def _repo(tmp_path):
        def git(*args):
            return subprocess.run(
                ["git", *args], cwd=tmp_path, check=True,
                capture_output=True, text=True).stdout.strip()

        git("init", "-q")
        git("config", "user.email", "rev@example.com")
        git("config", "user.name", "rev")
        (tmp_path / "tracked.txt").write_text("one\n")
        git("add", "tracked.txt")
        git("commit", "-q", "-m", "first")
        return git("rev-parse", "--short", "HEAD")

    @staticmethod
    def _rev(monkeypatch, directory):
        monkeypatch.delenv(record.GIT_REV_ENV, raising=False)
        monkeypatch.setattr(record, "_PACKAGE_DIR", directory)
        monkeypatch.setattr(record, "_git_rev_cache", None)
        return record.git_rev()

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_clean_and_dirty_checkouts(self, tmp_path, monkeypatch):
        sha = self._repo(tmp_path)
        # An untracked file leaves the checkout clean.
        (tmp_path / "untracked.txt").write_text("new\n")
        assert self._rev(monkeypatch, tmp_path) == sha
        (tmp_path / "tracked.txt").write_text("two\n")
        assert self._rev(monkeypatch, tmp_path) == f"{sha}-dirty"
        # The result envelope stamps the same revision.
        assert result_envelope("bench_z", {})["rev"] == f"{sha}-dirty"

    def test_environment_wins_and_failure_reads_unknown(self, tmp_path,
                                                        monkeypatch):
        # No checkout (git may not search above tmp_path), and no directory.
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        assert self._rev(monkeypatch, tmp_path) == "unknown"
        assert self._rev(monkeypatch, tmp_path / "absent") == "unknown"
        monkeypatch.setenv(record.GIT_REV_ENV, "9764468-dirty")
        assert record.git_rev() == "9764468-dirty"
