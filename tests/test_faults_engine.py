"""Verdict-store resilience under injected faults.

The verdict store's CRC-checksummed records under its ``cache.load`` /
``cache.flush`` fault sites (the log contract every store shares is in
``test_append_log.py``).
"""

import json
import zlib

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule
from repro.fsutil import decode_record, encode_record
from repro.synthesis.engine import OracleCache


@pytest.fixture(autouse=True)
def no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


class TestCrcRecords:
    def test_round_trip(self):
        line = encode_record({"t": "v", "k": "key", "v": 1})
        assert decode_record(line) == {"t": "v", "k": "key", "v": 1}

    def test_crc_mismatch_rejected(self):
        rec = json.loads(encode_record({"t": "v", "k": "key", "v": 1}))
        rec["v"] = 0  # flip the verdict without restamping
        assert decode_record(json.dumps(rec)) is None

    def test_unparseable_and_non_dict_rejected(self):
        assert decode_record("{torn off mid-li") is None
        assert decode_record("[1, 2, 3]") is None

    def test_legacy_record_without_crc_still_loads(self):
        legacy = json.dumps({"t": "v", "k": "key", "v": 1})
        assert decode_record(legacy) == {"t": "v", "k": "key", "v": 1}

    def test_crc_matches_zlib_of_canonical_body(self):
        body = {"t": "v", "k": "key", "v": 1}
        rec = json.loads(encode_record(body))
        expected = zlib.crc32(
            json.dumps(body, separators=(",", ":"), sort_keys=True).encode()
        )
        assert rec["crc"] == expected


class TestDiskStoreResilience:
    """The verdict store on disk under its fault sites."""

    def write_store(self, directory, verdicts):
        store = OracleCache.with_disk(directory)
        for key, verdict in verdicts.items():
            store.record(key, verdict)
        store.flush()
        return store

    def test_duplicate_records_are_idempotent(self, tmp_path):
        path = tmp_path / "oracle.jsonl"
        line = encode_record({"t": "v", "k": "a", "v": 1})
        path.write_text(line + "\n" + line + "\n")
        store = OracleCache.with_disk(tmp_path)
        assert store.store.corrupt_lines == 0
        assert store.lookup("a") is True

    def test_legacy_store_without_crcs_warm_loads(self, tmp_path):
        path = tmp_path / "oracle.jsonl"
        path.write_text(
            json.dumps({"t": "v", "k": "old", "v": 1}) + "\n"
            + json.dumps({"t": "c", "k": "spec", "i": 4}) + "\n"
        )
        store = OracleCache.with_disk(tmp_path)
        assert store.store.corrupt_lines == 0
        assert store.store.quarantined is None
        assert store.lookup("old") is True

    def test_injected_torn_flush_never_corrupts_reload(self, tmp_path):
        """A flush torn mid-line costs at most the torn record, here one
        map of 8 verdicts: the next load skips it, quarantines, and
        compacts to a fully valid file."""
        path = tmp_path / "oracle.jsonl"
        store = OracleCache.with_disk(tmp_path)
        for i in range(8):
            store.record(f"k{i}", i % 2 == 0)
        with faults.injected(FaultPlan(rules=[
            FaultRule(site=faults.SITE_CACHE_FLUSH, kind="torn_write",
                      every=1),
        ])):
            store.flush()

        reloaded = OracleCache.with_disk(tmp_path)
        assert reloaded.store.corrupt_lines == 1     # exactly the torn tail
        for i in range(8):
            verdict = reloaded.lookup(f"k{i}")
            assert verdict in (None, i % 2 == 0)   # right or absent
        for line in path.read_text().splitlines():
            assert decode_record(line) is not None

    def test_injected_flush_oserror_requeues_pending(self, tmp_path):
        path = tmp_path / "oracle.jsonl"
        store = OracleCache.with_disk(tmp_path)
        store.record("a", True)
        with faults.injected(FaultPlan(rules=[
            FaultRule(site=faults.SITE_CACHE_FLUSH, kind="oserror",
                      every=1),
        ])):
            store.flush()
        assert store.store.write_errors == 1  # one per failed flush
        assert not path.exists()
        store.record("b", False)
        store.flush()  # fault cleared: the re-queued record lands
        assert store.store.write_errors == 1
        reloaded = OracleCache.with_disk(tmp_path)
        assert reloaded.lookup("a") is True and reloaded.lookup("b") is False
        # The queued map and the next one, whole, each verdict once.
        assert [decode_record(x) for x in path.read_text().splitlines()] \
            == [{"t": "m", "m": {"a": 1}}, {"t": "m", "m": {"b": 0}}]

    def test_torn_map_flush_costs_only_its_own_batch(self, tmp_path):
        """A torn flush (a writer dying mid-write) loses its own map of
        verdicts, whole: not the batch written before it, and not one
        that the next process writes after loading the store."""
        path = tmp_path / "oracle.jsonl"
        store = OracleCache.with_disk(tmp_path)
        for i in range(128):  # a full batch, written at once
            store.record(f"a{i}", True)
        for i in range(5):
            store.record(f"b{i}", False)
        with faults.injected(FaultPlan(rules=[
            FaultRule(site=faults.SITE_CACHE_FLUSH, kind="torn_write",
                      every=1),
        ])):
            store.flush()
        assert len(path.read_text().splitlines()) == 2

        restarted = OracleCache.with_disk(tmp_path)
        assert restarted.store.corrupt_lines == 1  # the torn batch alone
        assert restarted._verdicts == {f"a{i}": True for i in range(128)}
        restarted.record("c", True)
        restarted.flush()
        reloaded = OracleCache.with_disk(tmp_path)
        assert reloaded.store.corrupt_lines == 0
        assert reloaded._verdicts == {
            **{f"a{i}": True for i in range(128)}, "c": True}

    def test_flush_after_a_torn_one_starts_a_new_line(self, tmp_path):
        """A torn flush leaves the file mid-line; the same cache's next
        flush opens with a newline, so it is not joined to the torn line
        and lost with it."""
        store = OracleCache.with_disk(tmp_path)
        for i in range(5):
            store.record(f"a{i}", True)
        with faults.injected(FaultPlan(rules=[
            FaultRule(site=faults.SITE_CACHE_FLUSH, kind="torn_write",
                      every=1),
        ])):
            store.flush()
        for i in range(100):
            store.record(f"b{i}", i % 2 == 0)
        store.flush()
        reloaded = OracleCache.with_disk(tmp_path)
        assert reloaded.store.corrupt_lines == 1  # the torn batch alone
        assert reloaded._verdicts == {f"b{i}": i % 2 == 0 for i in range(100)}

    def test_line_separators_inside_strings_do_not_split_lines(self,
                                                             tmp_path):
        """Lines end at newlines only: a raw U+2028 or U+0085 inside a
        legacy line's JSON string keeps the line whole."""
        path = tmp_path / "oracle.jsonl"
        stamped = encode_record({"t": "v", "k": "a\u2028b", "v": 1})
        legacy = json.dumps({"t": "v", "k": "c\x85d", "v": 0},
                            ensure_ascii=False)
        raw = stamped.replace("\\u2028", "\u2028")
        assert "\u2028" in raw and "\x85" in legacy
        path.write_text(raw + "\n" + legacy + "\n", encoding="utf-8")
        store = OracleCache.with_disk(tmp_path)
        assert store.store.corrupt_lines == 0
        assert store.store.quarantined is None
        assert store._verdicts == {"a\u2028b": True, "c\x85d": False}

    def test_crlf_store_loads_unquarantined(self, tmp_path):
        path = tmp_path / "oracle.jsonl"
        lines = [encode_record({"t": "m", "m": {"a": 1, "b": 0}}),
                 encode_record({"t": "v", "k": "c", "v": 1})]
        path.write_bytes("".join(line + "\r\n" for line in lines).encode())
        store = OracleCache.with_disk(tmp_path)
        assert store.store.corrupt_lines == 0
        assert store.store.quarantined is None
        assert store._verdicts == {"a": True, "b": False, "c": True}

    def test_injected_load_oserror_starts_empty_not_crashed(self, tmp_path):
        self.write_store(tmp_path, {"a": True})
        with faults.injected(FaultPlan(rules=[
            FaultRule(site=faults.SITE_CACHE_LOAD, kind="oserror",
                      every=1),
        ])):
            store = OracleCache.with_disk(tmp_path)
        assert store.store.load_errors == 1
        assert store.lookup("a") is None
        assert len(store) == 0
