"""The append-log contract, once for every store built on it.

:class:`repro.fsutil.AppendLog` is the one durable log under the verdict
store (``OracleCache.with_disk``), the rewrite-rule library and the
telemetry corpus.  Each case below runs against all three through a
small adapter, so a store that drifts from the shared contract — torn
tails, CRC checks, legacy lines, quarantine and atomic compaction,
batching, its flush-failure policy, lazy creation, load faults, and the
exit flush that must not keep a dropped store alive — fails here.
"""

import gc
import json
import weakref
import zlib

import pytest

from repro import faults
from repro import fsutil
from repro.faults import FaultPlan, FaultRule
from repro.fsutil import decode_record
from repro.ir import builder as B
from repro.rules import RuleLibrary, abstract_spec, rules_file
from repro.synthesis.engine import OracleCache
from repro.telemetry import TelemetryStore, build_record, read_store
from repro.types import U8


@pytest.fixture(autouse=True)
def no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


class Verdicts:
    # The cache batches its verdicts itself, 128 to one map record, and
    # the log writes each record at once.
    flush_every = 1
    batch, batch_lines = 128, 1
    requeue = True
    load_site = faults.SITE_CACHE_LOAD
    flush_site = faults.SITE_CACHE_FLUSH

    def open(self, directory):
        return OracleCache.with_disk(directory)

    def log(self, owner):
        return owner.store

    def add(self, owner, i):
        owner.record(f"k{i}", i % 2 == 0)

    def reload(self, directory, n):
        cache = OracleCache.with_disk(directory)
        present = {i for i in range(n) if cache.lookup(f"k{i}") is not None}
        return present, cache.store.corrupt_lines, cache.store.quarantined


class Rules:
    flush_every = 32
    batch = batch_lines = 32
    requeue = True
    load_site = faults.SITE_RULES_LOAD
    flush_site = None

    @staticmethod
    def spec(i):
        return B.widen(B.load("in", 0, 8, U8)) * (i + 2)

    def open(self, directory):
        return RuleLibrary(rules_file(directory, "hvx"), target="hvx")

    def log(self, owner):
        return owner.log

    def add(self, owner, i):
        assert owner.learn(self.spec(i), self.spec(i))

    def reload(self, directory, n):
        # By exact key: matching by LHS would let rule 1 answer spec 0.
        library = self.open(directory)
        present = {i for i in range(n)
                   if abstract_spec(self.spec(i)).exact in library._by_exact}
        return present, library.log.corrupt_lines, library.log.quarantined


class Telemetry:
    flush_every = 8
    batch = batch_lines = 8
    requeue = False
    load_site = None
    flush_site = faults.SITE_TELEMETRY_FLUSH

    def open(self, directory):
        return TelemetryStore(directory)

    def log(self, owner):
        return owner.log

    def add(self, owner, i):
        assert owner.append(build_record(
            source="test", workload=f"w{i}", target="hvx", wall_s=1.0))

    def reload(self, directory, n):
        report = read_store(directory)
        present = {int(r["workload"][1:]) for r in report.records}
        quarantined = report.quarantined[0] if report.quarantined else None
        return present, report.corrupt_lines, quarantined


@pytest.fixture(params=[Verdicts(), Rules(), Telemetry()],
                ids=["verdicts", "rules", "telemetry"])
def store(request):
    return request.param


def filled(store, directory, n):
    """A store on ``directory`` holding records ``0..n-1``, each flushed
    on its own so that it is one line; returns the log's path."""
    owner = store.open(directory)
    for i in range(n):
        store.add(owner, i)
        owner.flush()
    return store.log(owner).path


def test_store_wires_its_constants(store, tmp_path):
    log = store.log(store.open(tmp_path))
    assert (log.flush_every, log.requeue, log.load_site, log.flush_site) == (
        store.flush_every, store.requeue, store.load_site, store.flush_site)


def test_torn_tail_line_is_dropped(store, tmp_path):
    path = filled(store, tmp_path, 2)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"t": "v", "k": "torn')  # a crashed writer's tail
    present, corrupt, quarantined = store.reload(tmp_path, 2)
    assert present == {0, 1}
    assert corrupt == 1 and quarantined is not None


def test_crc_flip_is_rejected(store, tmp_path):
    path = filled(store, tmp_path, 2)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["crc"] ^= 1  # the body still parses; only the checksum catches it
    lines[0] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    present, corrupt, quarantined = store.reload(tmp_path, 2)
    assert present == {1}  # never a record whose checksum disagrees
    assert corrupt == 1 and quarantined is not None


def test_legacy_line_without_crc_loads(store, tmp_path):
    path = filled(store, tmp_path, 1)
    rec = json.loads(path.read_text())
    del rec["crc"]
    path.write_text(json.dumps(rec) + "\n")
    before = path.read_bytes()
    present, corrupt, quarantined = store.reload(tmp_path, 1)
    assert present == {0}
    assert corrupt == 0 and quarantined is None
    assert path.read_bytes() == before  # nothing to repair


def test_non_utf8_line_is_set_aside(store, tmp_path):
    path = filled(store, tmp_path, 2)
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe\n")  # one bad line, not a bad file
    log = fsutil.AppendLog(path)
    assert log.load(lambda rec: True, repair=False)
    assert log.corrupt_lines == 1 and log.quarantined is None  # only counted
    present, corrupt, quarantined = store.reload(tmp_path, 2)
    assert present == {0, 1}
    assert corrupt == 1 and quarantined is not None


def test_deeply_nested_line_is_set_aside(store, tmp_path):
    path = filled(store, tmp_path, 2)
    body = '{"a":' + "[" * 100000
    crc_first = '{"crc":%d,' % zlib.crc32(body.encode()) + body[1:]
    with open(path, "a", encoding="utf-8") as fh:
        # Deeper than a recursive JSON parser can go, in both layouts.
        fh.write("[" * 100000 + "\n" + crc_first + "\n")
    log = fsutil.AppendLog(path)
    assert log.load(lambda rec: True, repair=False)
    assert log.corrupt_lines == 2 and log.quarantined is None  # only counted
    present, corrupt, quarantined = store.reload(tmp_path, 2)
    assert present == {0, 1}
    assert corrupt == 2 and quarantined is not None


def test_undecodable_byte_inside_a_legacy_line_is_corrupt(tmp_path):
    """A line without a CRC is trusted as parsed, so an invalid byte
    inside one of its strings must not load as a replaced character."""
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"k":"a\xffb"}\n{"k":"\xc3\xa9"}\n')
    loaded = []
    log = fsutil.AppendLog(path)
    assert log.load(lambda rec: loaded.append(rec) or True, repair=False)
    assert loaded == [{"k": "\u00e9"}] and log.corrupt_lines == 1


def test_write_after_a_short_one_starts_a_new_line(tmp_path, monkeypatch):
    """A write that lands only part of its payload leaves the file
    mid-line; the log's next write opens with a newline, and a whole
    write adds no blank line."""
    import os

    path = tmp_path / "log.jsonl"
    log = fsutil.AppendLog(path)
    real_write = os.write
    monkeypatch.setattr(os, "write",
                        lambda fd, data: real_write(fd, data[:len(data) // 2]))
    log.append({"k": "short"})
    log.flush()
    monkeypatch.undo()
    for i in range(3):
        log.append({"k": i})
        log.flush()
    text = path.read_text()
    assert "\n\n" not in text and text.count("\n") == 4
    loaded = []
    reader = fsutil.AppendLog(path)
    assert reader.load(lambda rec: loaded.append(rec) or True, repair=False)
    assert loaded == [{"k": 0}, {"k": 1}, {"k": 2}]
    assert reader.corrupt_lines == 1


def test_corrupt_log_is_quarantined_and_compacted(store, tmp_path):
    path = filled(store, tmp_path, 3)
    lines = path.read_text().splitlines()
    lines.insert(1, "garbage, not a record")
    path.write_text("\n".join(lines) + "\n")
    damaged = path.read_bytes()

    present, corrupt, quarantined = store.reload(tmp_path, 3)
    assert present == {0, 1, 2} and corrupt == 1
    assert quarantined == path.with_name(path.name + ".quarantine")
    assert quarantined.read_bytes() == damaged
    # The compacted log holds exactly the survivors, all CRC-stamped, and
    # the temp file it was written through is gone.
    assert [decode_record(x) for x in path.read_text().splitlines()] == [
        decode_record(x) for x in lines if x != "garbage, not a record"]
    assert sorted(p.name for p in path.parent.iterdir()
                  if p.name.startswith(path.name)) == [
        path.name, quarantined.name]
    # A clean file needs no second repair.
    assert store.reload(tmp_path, 3)[1:] == (0, None)


def test_failed_compaction_keeps_the_quarantined_copy(store, tmp_path,
                                                      monkeypatch):
    path = filled(store, tmp_path, 2)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("torn")
    damaged = path.read_bytes()

    def crash(path, text):
        raise OSError("disk full")

    monkeypatch.setattr(fsutil, "atomic_write_text", crash)
    present, _, quarantined = store.reload(tmp_path, 2)
    assert present == {0, 1}  # the survivors are still served
    assert not path.exists()  # no half-written log in its place
    assert quarantined.read_bytes() == damaged


def test_flush_at_batch_size(store, tmp_path):
    owner = store.open(tmp_path)
    path = store.log(owner).path
    for i in range(store.batch - 1):
        store.add(owner, i)
    assert not path.exists()  # still queued
    store.add(owner, store.batch - 1)  # fills the batch
    assert len(path.read_text().splitlines()) == store.batch_lines
    present, corrupt, _ = store.reload(tmp_path, store.batch)
    assert present == set(range(store.batch)) and corrupt == 0


def test_failed_flush_requeues_or_drops(store, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the store's directory should be")
    directory = blocker / "store"
    owner = store.open(directory)
    store.add(owner, 0)
    owner.flush()  # never raises
    assert store.log(owner).write_errors == 1

    blocker.unlink()  # the disk recovers
    owner.flush()
    present, _, _ = store.reload(directory, 1)
    assert present == ({0} if store.requeue else set())


def test_log_file_is_created_lazily(store, tmp_path):
    directory = tmp_path / "fresh"
    owner = store.open(directory)
    assert not directory.exists()  # opening writes nothing
    store.add(owner, 0)
    owner.flush()
    assert store.log(owner).path.exists()


def test_load_fault_leaves_an_empty_store(store, tmp_path):
    path = filled(store, tmp_path, 2)
    before = path.read_bytes()
    if store.load_site is None:
        # No fault site on this load: make the file itself unreadable.
        path.unlink()
        path.mkdir()
        present, corrupt, quarantined = store.reload(tmp_path, 2)
        path.rmdir()
        path.write_bytes(before)
    else:
        with faults.injected(FaultPlan(rules=[
            FaultRule(site=store.load_site, kind="oserror", every=1),
        ])):
            present, corrupt, quarantined = store.reload(tmp_path, 2)
    assert present == set()
    assert corrupt == 0 and quarantined is None
    assert path.read_bytes() == before  # a failed read repairs nothing


def test_dropped_stores_are_freed_and_flushed(store, tmp_path):
    """The exit flush holds the log, not its store: 50 stores opened and
    dropped on one directory are all collected, and each one's queued,
    never-flushed record is on disk afterwards."""
    refs = []
    for i in range(50):
        owner = store.open(tmp_path)
        store.add(owner, i)  # queued, not flushed
        refs.append(weakref.ref(owner))
        del owner
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
    present, corrupt, _ = store.reload(tmp_path, 50)
    assert present == set(range(50)) and corrupt == 0
