"""Tests for the memoization layer (:mod:`repro.synthesis.engine`).

Covers canonical query keying (rename-insensitive, layout/seed/tag
sensitive), the verdict store on disk (``OracleCache.with_disk``; the
append log it sits on has its own contract suite in
``test_append_log.py``), and verdict persistence across Oracle
instances.
"""

import json

import pytest

from repro.hvx import isa as H
from repro.fsutil import decode_record, encode_record
from repro.ir import builder as B
from repro.synthesis import valuation
from repro.synthesis.engine import (
    CACHE_DIR_ENV,
    CACHE_FILE_NAME,
    OracleCache,
    default_cache_dir,
)
from repro.synthesis.oracle import LAYOUT_DEINTERLEAVED, LAYOUT_INORDER, Oracle
from repro.types import U8, U16


def u8v(buffer="in", offset=0, lanes=8):
    return B.load(buffer, offset, lanes, U8)


def query_key(spec, cand, layout, seed=0, rounds=0, tag="full"):
    """One query's key from a fresh oracle (an empty rendering memo)."""
    oracle = Oracle(seed=seed, extra_random_rounds=rounds)
    return oracle.query_key(spec, cand, layout, tag=tag)


class TestQueryKey:
    def test_deterministic(self):
        spec = B.widen(u8v()) * 2
        cand = B.shl(B.widen(u8v()), B.broadcast(1, 8, U16))
        assert query_key(spec, cand, LAYOUT_INORDER) == \
            query_key(spec, cand, LAYOUT_INORDER)

    def test_rename_insensitive(self):
        # The same query over a renamed buffer must share one cache entry.
        k1 = query_key(B.widen(u8v("in")) * 2, B.widen(u8v("in")) * 2,
                       LAYOUT_INORDER)
        k2 = query_key(B.widen(u8v("input")) * 2, B.widen(u8v("input")) * 2,
                       LAYOUT_INORDER)
        assert k1 == k2

    def test_rename_map_shared_with_candidate(self):
        # A candidate reading a *different* buffer than its spec is a
        # different query from one reading the same buffer.
        spec = u8v("a")
        same = query_key(spec, u8v("a"), LAYOUT_INORDER)
        other = query_key(spec, u8v("b"), LAYOUT_INORDER)
        assert same != other

    def test_layout_sensitive(self):
        spec, cand = u8v(), u8v()
        assert query_key(spec, cand, LAYOUT_INORDER) != \
            query_key(spec, cand, LAYOUT_DEINTERLEAVED)

    def test_seed_and_rounds_sensitive(self):
        spec, cand = u8v(), u8v()
        base = query_key(spec, cand, LAYOUT_INORDER, seed=0, rounds=4)
        assert base != query_key(spec, cand, LAYOUT_INORDER, seed=1, rounds=4)
        assert base != query_key(spec, cand, LAYOUT_INORDER, seed=0, rounds=5)

    def test_tag_separates_full_from_lane0(self):
        spec, cand = u8v(), u8v()
        assert query_key(spec, cand, LAYOUT_INORDER, tag="full") != \
            query_key(spec, cand, LAYOUT_INORDER, tag="lane0")

    def test_expression_kind_matters(self):
        # An IR load and the HVX load denote the same lanes but are
        # different candidates (different cost, different printing).
        spec = u8v()
        assert query_key(spec, u8v(), LAYOUT_INORDER) != \
            query_key(spec, H.HvxLoad("in", 0, 8, U8), LAYOUT_INORDER)

    def test_oracle_key_matches_module_key(self):
        """A key served through the oracle's memoized spec rendering equals
        a fresh oracle's, even after a candidate named an extra buffer."""
        spec = B.widen(u8v()) * 2
        cand = B.widen(u8v()) * 3
        oracle = Oracle(seed=7, extra_random_rounds=2)
        oracle.query_key(spec, B.widen(u8v("other")) * 2, LAYOUT_INORDER)
        assert oracle.query_key(spec, cand, LAYOUT_INORDER) == \
            query_key(spec, cand, LAYOUT_INORDER, seed=7, rounds=2)


class TestDiskStore:
    """The verdict store on disk, opened by ``OracleCache.with_disk``."""

    def test_missing_file_is_empty(self, tmp_path):
        store = OracleCache.with_disk(tmp_path)
        assert len(store) == 0
        assert store.lookup("nope") is None

    def test_roundtrip(self, tmp_path):
        store = OracleCache.with_disk(tmp_path)
        store.record("k1", True)
        store.record("k2", False)
        store.flush()

        reloaded = OracleCache.with_disk(tmp_path)
        assert reloaded.lookup("k1") is True
        assert reloaded.lookup("k2") is False

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "oracle.jsonl"
        path.write_text(
            json.dumps({"t": "v", "k": "good", "v": 1}) + "\n"
            + "{not json at all\n"
            + json.dumps(["wrong", "shape"]) + "\n"
            + json.dumps({"t": "??", "k": "x"}) + "\n"
            + json.dumps({"t": "c", "k": "s", "i": 2}) + "\n"  # older store
            + '{"t": "v", "k": "trunc'  # interrupted final write
        )
        store = OracleCache.with_disk(tmp_path)
        assert store.lookup("good") is True
        assert len(store) == 1
        assert store.store.corrupt_lines == 4

    @pytest.mark.parametrize("record", [
        {"t": "v", "k": "K", "v": "0"},    # truthy string: a false accept
        {"t": "v", "k": "K", "v": True},   # bool, not the int 0 or 1
        {"t": "v", "k": "K", "v": 2},
        {"t": "v", "k": "K", "v": 1.0},
        {"t": "v", "k": 7, "v": 1},        # non-string key
        {"t": "v", "k": "K"},              # no verdict
        {"t": "c", "k": "K", "i": "x"},    # later compared with 0 <= i
        {"t": "c", "k": "K", "i": -1},
        {"t": "c", "k": "K", "i": 2.0},
        {"t": "c", "k": None, "i": 2},
        # A map record is corrupt whole, its well-typed verdict "J" too.
        {"t": "m", "m": {"J": 1, "K": True}},
        {"t": "m", "m": {"J": 1, "K": "1"}},
        {"t": "m", "m": {"J": 1, "K": 2}},
        {"t": "m", "m": {"J": 1, "K": 1.0}},
        {"t": "m", "m": {"J": 1, "K": None}},
        {"t": "m", "k": "K", "v": 1},      # no map, though a verdict's shape
        {"t": "m", "m": [["K", 1]]},       # not an object
        {"t": "m", "m": {}},
    ])
    def test_mistyped_records_are_corrupt(self, tmp_path, record):
        """A CRC-valid (or legacy) record with a wrongly typed field is
        counted and quarantined like a CRC failure, never replayed."""
        path = tmp_path / "oracle.jsonl"
        good = {"t": "v", "k": "good", "v": 0}
        for line in (encode_record(record), json.dumps(record)):
            path.write_text(encode_record(good) + "\n" + line + "\n")
            store = OracleCache.with_disk(tmp_path)
            assert store.store.corrupt_lines == 1
            assert store.store.quarantined is not None
            assert store.lookup("K") is None
            assert store.lookup("J") is None
            assert store.lookup("good") is False
            assert [decode_record(x) for x in path.read_text().splitlines()] \
                == [good]

    def test_writes_are_buffered_until_flush(self, tmp_path):
        path = tmp_path / "oracle.jsonl"
        store = OracleCache.with_disk(tmp_path)
        store.record("k", True)
        assert not path.exists()  # buffered
        store.flush()
        assert path.exists()
        rec = json.loads(path.read_text())
        crc = rec.pop("crc")
        assert isinstance(crc, int)  # every new record is checksummed
        assert rec == {"t": "m", "m": {"k": 1}}

    def test_map_records_round_trip(self, tmp_path):
        """300 fresh verdicts land as two full map records and the flushed
        rest: three lines, typed ints, and the same map on reload."""
        path = tmp_path / "oracle.jsonl"
        store = OracleCache.with_disk(tmp_path)
        verdicts = {f"k{i}": i % 3 == 0 for i in range(300)}
        for key, verdict in verdicts.items():
            store.record(key, verdict)
        store.flush()
        recs = [decode_record(x) for x in path.read_text().splitlines()]
        assert [len(rec["m"]) for rec in recs] == [128, 128, 44]
        assert all(rec["t"] == "m" and set(rec) == {"t", "m"}
                   and {type(v) for v in rec["m"].values()} == {int}
                   for rec in recs)
        reloaded = OracleCache.with_disk(tmp_path)
        assert reloaded._verdicts == verdicts
        assert reloaded.store.corrupt_lines == 0

    def test_mixed_store_loads_as_one_verdict_per_line(self, tmp_path):
        """Legacy verdict and counterexample lines and map records load
        the same map as the same verdicts written one per line."""
        verdicts = {f"k{i}": i % 2 == 0 for i in range(10)}
        per_line = tmp_path / "per-line"
        per_line.mkdir()
        (per_line / CACHE_FILE_NAME).write_text("".join(
            encode_record({"t": "v", "k": k, "v": int(v)}) + "\n"
            for k, v in verdicts.items()))
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        items = [(k, int(v)) for k, v in verdicts.items()]
        lines = [
            encode_record({"t": "m", "m": dict(items[:4])}),
            encode_record({"t": "v", "k": items[4][0], "v": items[4][1]}),
            json.dumps({"t": "v", "k": items[5][0], "v": items[5][1]}),
            encode_record({"t": "c", "k": "spec", "i": 3}),
            json.dumps({"t": "m", "m": dict(items[6:9])}),  # no crc
            encode_record({"t": "m", "m": dict(items[8:])}),  # a duplicate
        ]
        (mixed / CACHE_FILE_NAME).write_text("\n".join(lines) + "\n")
        before = (mixed / CACHE_FILE_NAME).read_bytes()
        store = OracleCache.with_disk(mixed)
        assert store._verdicts == OracleCache.with_disk(per_line)._verdicts
        assert store._verdicts == verdicts
        assert store.store.corrupt_lines == 0
        assert (mixed / CACHE_FILE_NAME).read_bytes() == before

    def test_repr_leaves_out_the_verdicts(self, tmp_path):
        """A cache's repr names its store, not its ~7k verdicts; nor does
        an oracle's repr after a compile list the cache's."""
        path = tmp_path / CACHE_FILE_NAME
        path.write_text("".join(
            encode_record({"t": "m", "m": {
                f"{b:03d}-{i:064d}": i % 2 for i in range(128)}}) + "\n"
            for b in range(56)))
        cache = OracleCache.with_disk(tmp_path)
        cache.record("fresh", True)  # pending, unwritten
        assert len(cache) == 56 * 128 + 1
        assert len(repr(cache)) < 200
        oracle = Oracle(cache=cache)
        spec = B.widen(u8v()) * 2
        assert oracle.equivalent(spec, B.shl(B.widen(u8v()),
                                             B.broadcast(1, 8, U16)))
        assert len(repr(oracle)) < len(repr(Oracle())) + 200

    def test_duplicates_not_rewritten(self, tmp_path):
        path = tmp_path / "oracle.jsonl"
        store = OracleCache.with_disk(tmp_path)
        store.record("k", True)
        store.record("k", True)
        store.flush()
        assert len(path.read_text().splitlines()) == 1


class TestOracleMemoization:
    def test_second_query_hits_cache(self):
        oracle = Oracle()
        spec = B.widen(u8v()) * 2
        cand = B.shl(B.widen(u8v()), B.broadcast(1, 8, U16))
        assert oracle.equivalent(spec, cand)
        assert oracle.equivalent(spec, cand)
        assert oracle.stats.total("cache_hits") == 1
        assert oracle.stats.total("cache_misses") == 1

    def test_negative_verdicts_cached(self):
        oracle = Oracle()
        spec = B.widen(u8v()) * 2
        wrong = B.widen(u8v()) * 3
        assert not oracle.equivalent(spec, wrong)
        assert not oracle.equivalent(spec, wrong)
        assert oracle.stats.total("cache_hits") == 1

    def test_lane0_queries_cached_separately(self):
        oracle = Oracle()
        spec, cand = u8v(), u8v()
        assert oracle.equivalent(spec, cand)
        assert oracle.equivalent_lane0(spec, cand)  # full hit can't answer
        assert oracle.stats.total("cache_misses") == 2
        assert oracle.equivalent_lane0(spec, cand)
        assert oracle.stats.total("cache_hits") == 1

    def test_out_of_stage_queries_attributed_to_verify(self):
        oracle = Oracle()
        oracle.equivalent(u8v(), u8v())
        assert oracle.stats.stages["verify"].queries == 1
        with oracle.stats.stage("lifting"):
            oracle.equivalent(u8v(), u8v())
        assert oracle.stats.stages["lifting"].queries == 1
        assert oracle.stats.stages["verify"].queries == 1

    def test_verdicts_persist_across_oracles(self, tmp_path):
        spec = B.widen(u8v()) * 2
        cand = B.shl(B.widen(u8v()), B.broadcast(1, 8, U16))

        first = Oracle(cache=OracleCache.with_disk(tmp_path))
        assert first.equivalent(spec, cand)
        first.cache.flush()

        second = Oracle(cache=OracleCache.with_disk(tmp_path))
        assert second.equivalent(spec, cand)
        assert second.stats.total("cache_hits") == 1
        assert second.stats.total("cache_misses") == 0

    def test_cached_verdict_needs_no_evaluation(self, tmp_path, monkeypatch):
        # A warm store answers without building a valuation bank at all.
        spec = B.widen(u8v()) * 2
        wrong = B.widen(u8v()) * 3
        warm = Oracle(cache=OracleCache.with_disk(tmp_path))
        assert not warm.equivalent(spec, wrong)
        warm.cache.flush()

        def boom(*args, **kwargs):
            raise AssertionError("bank should not be rebuilt on a cache hit")

        monkeypatch.setattr(valuation, "environment_bank", boom)
        cold = Oracle(cache=OracleCache.with_disk(tmp_path))
        assert not cold.equivalent(spec, wrong)

    def test_rename_shares_cache_entry(self):
        oracle = Oracle()
        assert oracle.equivalent(B.widen(u8v("a")) * 2, B.widen(u8v("a")) * 2)
        assert oracle.equivalent(B.widen(u8v("b")) * 2, B.widen(u8v("b")) * 2)
        assert oracle.stats.total("cache_hits") == 1


class TestConcurrentWriters:
    """The service shares one store across workers and cache dirs across
    processes; appends must interleave at line granularity."""

    def test_threads_sharing_one_store(self, tmp_path):
        import sys
        import threading

        path = tmp_path / "oracle.jsonl"
        store = OracleCache.with_disk(tmp_path)
        barrier = threading.Barrier(8)

        def writer(t):
            barrier.wait()
            for i in range(200):
                store.record(f"k{t}-{i}", (t + i) % 2 == 0)
                if i % 50 == 0:
                    store.flush()

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-record
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        store.flush()

        written = []
        for line in path.read_text().splitlines():
            rec = json.loads(line)  # raises if any line tore
            assert rec["t"] == "m"
            assert {type(v) for v in rec["m"].values()} == {int}
            written += rec["m"]
        # no duplicates, no losses
        assert sorted(written) == sorted(
            f"k{t}-{i}" for t in range(8) for i in range(200))
        reloaded = OracleCache.with_disk(tmp_path)
        assert len(reloaded) == 8 * 200
        assert reloaded.lookup("k3-101") is ((3 + 101) % 2 == 0)

    def test_two_stores_appending_to_one_file(self, tmp_path):
        # Two *instances* on one path model two processes sharing a cache
        # dir: each is blind to the other's in-memory state, so both may
        # prove the same verdict — the duplicate must be idempotent.
        path = tmp_path / "oracle.jsonl"
        first = OracleCache.with_disk(tmp_path)
        second = OracleCache.with_disk(tmp_path)
        first.record("shared", True)
        second.record("shared", True)
        first.record("first-only", False)
        second.record("second-only", True)
        first.flush()
        second.flush()

        for line in path.read_text().splitlines():
            assert isinstance(json.loads(line), dict)
        merged = OracleCache.with_disk(tmp_path)
        assert merged.lookup("shared") is True
        assert merged.lookup("first-only") is False
        assert merged.lookup("second-only") is True
        assert len(merged) == 3

    def test_interleaved_flushes_from_competing_threads(self, tmp_path):
        import threading

        path = tmp_path / "oracle.jsonl"
        barrier = threading.Barrier(4)

        def hammer(t):
            own = OracleCache.with_disk(tmp_path)
            barrier.wait()
            for i in range(100):
                own.record(f"w{t}-{i}", True)
                own.flush()  # every record races with the other writers

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(4)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

        keys = []
        for line in path.read_text().splitlines():
            rec = json.loads(line)  # a torn write would fail here
            assert rec["m"] and set(rec["m"].values()) == {1}
            keys += rec["m"]
        assert sorted(keys) == sorted(
            f"w{t}-{i}" for t in range(4) for i in range(100))


class TestCacheDir:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        path = default_cache_dir()
        assert path.name == "repro-rake"
        assert path.parent.name == ".cache"

    def test_with_disk_places_store_in_dir(self, tmp_path):
        cache = OracleCache.with_disk(tmp_path)
        cache.record("k", True)
        cache.flush()
        assert (tmp_path / CACHE_FILE_NAME).exists()

    def test_with_disk_uses_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        cache = OracleCache.with_disk()
        assert cache.store.path == tmp_path / CACHE_FILE_NAME
