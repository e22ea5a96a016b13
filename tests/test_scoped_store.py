"""Scoped opens of the verdict store (``OracleCache.with_disk(scope=...)``).

A compile that opens its store with its own scope (its
``engine.compile_digest``) parses its own map records, untagged records
and older lines at open, and keeps the map records of other scopes
unparsed until a lookup misses.  Every lookup and ``len()`` must answer
exactly as an unscoped open, which parses everything; a hit on another
scope's verdict is written once more, under the open's scope.
"""

import gc
import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.workloads  # noqa: F401 - populate the registry
from repro import faults
from repro.fsutil import decode_record, encode_record
from repro.hvx import program_listing
from repro.pipeline import compile_pipeline
from repro.service import coalesce
from repro.synthesis.engine import CACHE_FILE_NAME, OracleCache
from repro.workloads.base import get

#: scopes shaped like compile digests; a store draws from the first five
SCOPES = [hashlib.sha256(f"scope {i}".encode()).hexdigest()
          for i in range(6)]
#: every generated store holds each key with this one verdict
VERDICT = {f"k{i}": i % 3 != 0 for i in range(24)}
PROBES = [*VERDICT, "absent-0", "absent-1"]


@pytest.fixture(autouse=True)
def no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


def verdict_keys(rec: dict) -> set:
    """The keys a well-formed record gives a verdict for."""
    if rec["t"] == "m":
        return set(rec["m"])
    return {rec["k"]} if rec["t"] == "v" else set()


@st.composite
def store_lines(draw):
    """Lines of one store: map records tagged with up to five scopes or
    untagged, and older one-verdict and counterexample lines.  A tagged
    record is written as the cache writes it; the others also in the
    layout without a CRC."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["m", "m", "m", "v", "c"]))
        scope = None
        if kind == "m":
            keys = draw(st.lists(st.sampled_from(list(VERDICT)), min_size=1,
                                 max_size=6, unique=True))
            rec = {"t": "m", "m": {k: int(VERDICT[k]) for k in keys}}
            scope = draw(st.sampled_from([None, *SCOPES[:5]]))
            if scope is not None:
                rec["s"] = scope
        elif kind == "v":
            key = draw(st.sampled_from(list(VERDICT)))
            rec = {"t": "v", "k": key, "v": int(VERDICT[key])}
        else:
            rec = {"t": "c", "k": "spec", "i": draw(st.integers(0, 9))}
        legacy = scope is None and draw(st.booleans())
        lines.append(json.dumps(rec) if legacy else encode_record(rec))
    return lines


def open_copy(root: Path, name: str, data: bytes, scope=None) -> OracleCache:
    """A cache on its own copy of a store's bytes."""
    directory = root / name
    directory.mkdir()
    (directory / CACHE_FILE_NAME).write_bytes(data)
    return OracleCache.with_disk(directory, scope=scope)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lines=store_lines(), scope=st.sampled_from(SCOPES),
       probes=st.permutations(PROBES))
def test_a_scoped_open_answers_as_a_full_open(lines, scope, probes):
    data = "".join(line + "\n" for line in lines).encode()
    recs = [decode_record(line) for line in lines]
    other = [rec for rec in recs if rec.get("s") not in (None, scope)]
    own = set().union(*(verdict_keys(rec) for rec in recs
                        if rec.get("s") in (None, scope)))
    foreign = set().union(*(verdict_keys(rec) for rec in other)) - own
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        full = open_copy(root, "full", data)
        scoped = open_copy(root, "scoped", data, scope)
        assert scoped.store.corrupt_lines == 0
        # Other scopes' lines stay unparsed until a lookup misses.
        missed = False
        for key in probes:
            missed = missed or key not in own
            assert scoped.lookup(key) is full.lookup(key)
            assert scoped.deferred == (0 if missed else len(other))
        for key in probes:  # a second hit copies nothing more
            assert scoped.lookup(key) is full.lookup(key)
        assert len(scoped) == len(full)
        for cache in (full, scoped):
            cache.flush()
        assert (root / "full" / CACHE_FILE_NAME).read_bytes() == data
        # Each verdict found only in another scope is written once more,
        # under this one.
        written = (root / "scoped" / CACHE_FILE_NAME).read_bytes()
        assert written.startswith(data)
        copies = [decode_record(line)
                  for line in written[len(data):].decode().splitlines()]
        assert all(rec["s"] == scope for rec in copies)
        assert sum(len(rec["m"]) for rec in copies) == len(foreign)
        assert {k: v for rec in copies for k, v in rec["m"].items()} == {
            key: int(VERDICT[key]) for key in foreign}


def write_scoped(directory: Path, scope, verdicts: dict) -> None:
    cache = OracleCache.with_disk(directory, scope=scope)
    for key, verdict in verdicts.items():
        cache.record(key, verdict)
    cache.flush()


class TestScopedRecords:
    def test_fresh_records_carry_the_scope(self, tmp_path):
        write_scoped(tmp_path, SCOPES[0], {"k": True})
        line = (tmp_path / CACHE_FILE_NAME).read_text()
        assert line.endswith(f',"s":"{SCOPES[0]}","t":"m"}}\n')
        assert decode_record(line.strip()) == {
            "t": "m", "m": {"k": 1}, "s": SCOPES[0]}

    def test_an_unscoped_cache_writes_untagged_records(self, tmp_path):
        write_scoped(tmp_path, None, {"k": True})
        rec = decode_record((tmp_path / CACHE_FILE_NAME).read_text().strip())
        assert rec == {"t": "m", "m": {"k": 1}}

    def test_the_finalizer_writes_tagged_copies(self, tmp_path):
        write_scoped(tmp_path, SCOPES[1], {"k": False})
        cache = OracleCache.with_disk(tmp_path, scope=SCOPES[0])
        assert cache.lookup("k") is False  # queued, never flushed
        del cache
        gc.collect()
        recs = [decode_record(line) for line in
                (tmp_path / CACHE_FILE_NAME).read_text().splitlines()]
        assert recs[1] == {"t": "m", "m": {"k": 0}, "s": SCOPES[0]}

    @pytest.mark.parametrize("scope", [
        SCOPES[0].upper(), SCOPES[0][:-1], SCOPES[0] + "0", "", 7])
    def test_a_scope_is_64_lowercase_hex_digits(self, tmp_path, scope):
        with pytest.raises(ValueError):
            OracleCache.with_disk(tmp_path, scope=scope)

    def test_len_parses_the_deferred_lines(self, tmp_path):
        write_scoped(tmp_path, SCOPES[1], {"a": True, "b": False})
        write_scoped(tmp_path, SCOPES[0], {"b": False, "c": True})
        cache = OracleCache.with_disk(tmp_path, scope=SCOPES[0])
        assert cache.deferred == 1
        assert len(cache) == 3 and cache.deferred == 0
        # Parsed for len(), the verdict is still copied on its first hit.
        assert cache.lookup("a") is True
        assert cache._pending == {"a": 1}

    def test_a_hit_on_the_own_scope_parses_nothing(self, tmp_path):
        write_scoped(tmp_path, SCOPES[1], {"a": True})
        write_scoped(tmp_path, SCOPES[0], {"b": False})
        cache = OracleCache.with_disk(tmp_path, scope=SCOPES[0])
        assert cache.lookup("b") is False and cache.deferred == 1
        assert cache.lookup("zz") is None and cache.deferred == 0
        assert cache.lookup("a") is True


def listings(compiled) -> list:
    return [(cs.name, ce.selector, program_listing(ce.program))
            for cs in compiled.stages for ce in cs.exprs]


@pytest.fixture
def opened(monkeypatch):
    """Every cache ``OracleCache.with_disk`` opens, in order."""
    caches = []
    real = OracleCache.with_disk.__func__

    def spy(cls, *args, **kwargs):
        caches.append(real(cls, *args, **kwargs))
        return caches[-1]

    monkeypatch.setattr(OracleCache, "with_disk", classmethod(spy))
    return caches


def misses(compiled) -> int:
    return sum(stage.cache_misses for stage in compiled.stats.stages.values())


def test_a_copy_round_trip_through_two_compiles(tmp_path, opened):
    """mul, then mean, compiled into one store share verdicts.  Reopened
    for mean, the compile hits everything, parses no deferred line and
    writes nothing: each shared verdict is already under mean's scope,
    once."""
    store, path = str(tmp_path), tmp_path / CACHE_FILE_NAME
    compile_pipeline(get("mul").build(), cache_dir=store)
    compile_pipeline(get("mean").build(), cache_dir=store)
    x, y = (cache.scope for cache in opened)
    # The scope is the compile identity the request coalescer keys by.
    assert (x, y) == (coalesce._spec_hash("mul"), coalesce._spec_hash("mean"))

    recs = [decode_record(line) for line in path.read_text().splitlines()]
    assert {rec["s"] for rec in recs} == {x, y}
    x_keys = set().union(*(rec["m"] for rec in recs if rec["s"] == x))
    y_entries = [key for rec in recs if rec["s"] == y for key in rec["m"]]
    shared = x_keys & set(y_entries)
    assert shared
    assert all(y_entries.count(key) == 1 for key in shared)

    before = path.read_bytes()
    compiled = compile_pipeline(get("mean").build(), cache_dir=store)
    assert misses(compiled) == 0
    assert opened[-1].deferred == sum(rec["s"] == x for rec in recs)
    assert path.read_bytes() == before


# -- robustness --------------------------------------------------------------


def test_a_scoped_open_quarantines_and_keeps_deferred_lines(tmp_path):
    """A torn tail, a non-UTF-8 line and a CRC mismatch are quarantined at
    a scoped open as at any other; the rewrite keeps the deferred lines
    byte for byte and loses no verdict."""
    theirs = {f"t{i}": i % 2 == 0 for i in range(200)}
    ours = {f"o{i}": i % 3 == 0 for i in range(5)}
    write_scoped(tmp_path, SCOPES[1], theirs)
    write_scoped(tmp_path, SCOPES[0], ours)
    path = tmp_path / CACHE_FILE_NAME
    good = path.read_bytes()
    mismatch = json.loads(good.splitlines()[0])
    mismatch["crc"] ^= 1
    with open(path, "ab") as fh:
        fh.write(json.dumps(mismatch, separators=(",", ":")).encode()
                 + b"\n\xff\xfe\n" + b'{"crc":1,"m":{"torn')

    cache = OracleCache.with_disk(tmp_path, scope=SCOPES[0])
    assert cache.store.corrupt_lines == 3
    assert cache.store.quarantined is not None
    assert path.read_bytes() == good
    assert cache.deferred == 2  # the other scope's two records
    assert {key: cache.lookup(key) for key in {**theirs, **ours}} == {
        **theirs, **ours}
    assert len(cache) == len(theirs) + len(ours)


@pytest.mark.parametrize("value", [True, 2])
def test_a_mistyped_deferred_record_is_corrupt(tmp_path, value):
    """A CRC-valid record of another scope with a wrongly typed verdict
    is counted and logged when parsed, and never loaded; the store is not
    rewritten after its open."""
    write_scoped(tmp_path, SCOPES[0], {"good": True})
    path = tmp_path / CACHE_FILE_NAME
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(encode_record({"t": "m", "m": {"J": 1, "K": value},
                                "s": SCOPES[1]}) + "\n")
    before = path.read_bytes()
    cache = OracleCache.with_disk(tmp_path, scope=SCOPES[0])
    assert cache.store.corrupt_lines == 0 and cache.deferred == 1
    assert cache.lookup("K") is None and cache.lookup("J") is None
    assert cache.store.corrupt_lines == 1 and cache.deferred == 0
    assert cache.lookup("good") is True and len(cache) == 1
    assert cache.store.quarantined is None and path.read_bytes() == before


@pytest.mark.parametrize("scope", [
    SCOPES[1].upper(), SCOPES[1][:-1], 5, None, ""])
@pytest.mark.parametrize("opened_as", [None, SCOPES[0]])
def test_a_malformed_scope_is_corrupt(tmp_path, scope, opened_as):
    write_scoped(tmp_path, SCOPES[0], {"good": True})
    path = tmp_path / CACHE_FILE_NAME
    good = path.read_bytes()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(encode_record({"t": "m", "m": {"K": 1}, "s": scope}) + "\n")
    cache = OracleCache.with_disk(tmp_path, scope=opened_as)
    assert cache.lookup("K") is None and len(cache) == 1
    assert cache.store.corrupt_lines == 1
    assert cache.store.quarantined is not None and path.read_bytes() == good


def test_torn_cache_plan_under_scoped_opens(tmp_path):
    """The torn-cache plan tears every other flush of compiles that each
    open the store scoped: every selection is the fault-free one, the
    next open quarantines the torn tails, and warm reopens replay only
    whole records."""
    workloads = ("mul", "add")
    clean = {name: listings(compile_pipeline(get(name).build(),
                                             cache=OracleCache()))
             for name in workloads}
    store = str(tmp_path)
    with faults.injected(faults.load_plan("torn-cache")) as plan:
        for name in (*workloads, *workloads):
            compiled = compile_pipeline(get(name).build(), cache_dir=store)
            assert listings(compiled) == clean[name]
    assert plan.injected_total() > 0
    for name in workloads:
        compiled = compile_pipeline(get(name).build(), cache_dir=store)
        assert listings(compiled) == clean[name]
    assert (tmp_path / (CACHE_FILE_NAME + ".quarantine")).exists()
    for line in (tmp_path / CACHE_FILE_NAME).read_text().splitlines():
        assert decode_record(line) is not None
