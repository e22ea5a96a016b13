"""The append-log line codec against the decoder it replaced.

``reference_decode`` is the decoder from before the CRC moved to the
front of each line, kept verbatim: it parsed every line whole, popped its
``crc`` and re-serialized the rest canonically to check it.
:func:`repro.fsutil.decode_record` checks a line that opens
``{"crc":N,`` on the bytes it holds instead, and must return what the
reference returns on mutated encodings, on the edge cases of that head
and on lines of the older layout.  The encoder must keep verdict lines
byte-identical, and its lines must stay readable by the reference.
"""

import json
import zlib
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.fsutil import decode_record, encode_record
from repro.ir import builder as B
from repro.rules import RuleLibrary
from repro.synthesis.engine import OracleCache
from repro.synthesis.stats import SynthesisStats
from repro.telemetry import build_record
from repro.types import U8

FIXTURE = (Path(__file__).parent / "fixtures" / "prerefactor_store"
           / "oracle.jsonl")


def reference_decode(line: str):
    try:
        rec = json.loads(line)
    except (json.JSONDecodeError, ValueError):
        return None
    if not isinstance(rec, dict):
        return None
    if "crc" in rec:
        crc = rec.pop("crc")
        body = json.dumps(rec, separators=(",", ":"), sort_keys=True)
        if crc != zlib.crc32(body.encode()):
            return None
    return rec


def reference_encode(rec: dict) -> str:
    """The encoder of the older layout, verbatim: ``crc`` sorted in among
    the record's keys."""
    body = json.dumps(rec, separators=(",", ":"), sort_keys=True)
    stamped = dict(rec)
    stamped["crc"] = zlib.crc32(body.encode())
    return json.dumps(stamped, separators=(",", ":"), sort_keys=True)


def same(line: str) -> bool:
    """Both decoders return the same value, down to int versus float."""
    return repr(decode_record(line)) == repr(reference_decode(line))


def rule_record() -> dict:
    library = RuleLibrary()
    spec = B.widen(B.load("in", 0, 8, U8)) * 3
    assert library.learn(spec, spec)
    (rule,) = library._by_exact.values()
    return rule.to_record()


KEY = "45504fbc32d5297d7afa1272e8a037c13f8c57953968a4fbe43b7347e8d741b7"
RECORDS = {
    "verdict": {"t": "v", "k": KEY, "v": 1},
    "counterexample": {"t": "c", "k": KEY, "i": 3},
    "rule": rule_record(),
    "telemetry": build_record(source="test", workload="mul", target="hvx",
                              wall_s=0.25, stats=SynthesisStats()),
}
LINES = [encode(rec) for rec in RECORDS.values()
         for encode in (encode_record, reference_encode)]


def with_head(head: str, body: str) -> str:
    """A line ``{<head>,<body without its brace>``."""
    return "{" + head + "," + body[1:]


def canonical(rec: dict) -> str:
    return json.dumps(rec, separators=(",", ":"), sort_keys=True)


def crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8", "surrogatepass"))


# -- the encoder --------------------------------------------------------------


def test_every_record_round_trips():
    for rec in RECORDS.values():
        line = encode_record(rec)
        assert line.startswith('{"crc":')
        assert decode_record(line) == rec
        assert reference_decode(line) == rec  # readers of mixed versions


def test_verdict_lines_stay_byte_identical():
    lines = FIXTURE.read_text().splitlines()
    assert len(lines) == 168
    for line in lines:
        assert encode_record(decode_record(line)) == line
    for name in ("verdict", "counterexample"):
        rec = RECORDS[name]
        assert encode_record(rec) == reference_encode(rec)


def test_empty_record():
    line = encode_record({})
    assert line == '{"crc":%d}' % zlib.crc32(b"{}")
    assert decode_record(line) == {} == reference_decode(line)


def test_older_layout_lines_still_decode():
    for name in ("rule", "telemetry"):
        line = reference_encode(RECORDS[name])
        assert not line.startswith('{"crc":')  # crc in mid-line
        assert decode_record(line) == RECORDS[name] and same(line)


# -- mutations ----------------------------------------------------------------

characters = st.one_of(
    st.sampled_from([*'{}[]",:.-0123456789 \\eut', "\ud800", "\xe9"]),
    st.characters())


@st.composite
def mutated(draw):
    line = draw(st.sampled_from(LINES))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(line)))
        op = draw(st.sampled_from(["delete", "insert", "truncate", "space"]))
        if op == "delete":
            line = line[:i] + line[i + 1:]
        elif op == "insert":
            line = line[:i] + draw(characters) + line[i:]
        elif op == "truncate":
            line = line[:i]
        else:
            line = line[:i] + " " + line[i:]
    return line


@settings(max_examples=600, deadline=None)
@given(mutated())
def test_mutated_lines_decode_as_the_reference_does(line):
    assert same(line)


# -- edge lines ---------------------------------------------------------------


def test_crc_head_edge_lines():
    rec = RECORDS["verdict"]
    body = canonical(rec)
    n = zlib.crc32(body.encode())
    second = with_head(f'"crc":{n}', body)
    lines = [
        with_head(f'"crc":0{n}', body),  # a leading zero is not JSON
        with_head(f'"crc":{n}.0', body),  # a float the reference accepts
        with_head('"crc":1.0', body),
        with_head(f'"crc":-{n}', body),
        with_head(f'"crc":{n + 2**32}', body),
        with_head(f'"crc":{"9" * 5000}', body),
        with_head(f'"crc": {n}', body),
        # Two crc members whose first covers the rest of the line: the
        # reference keeps the second and checks that.
        with_head(f'"crc":{crc(second[1:])}', "{" + second[1:]),
        with_head(f'"crc":{crc("{" + second[1:])}', "{" + second[1:]),
        with_head(f'"crc":{n}', body[:-1] + f',"crc":{n}}}'),
        # An empty body: the line itself is not JSON.
        '{"crc":%d,}' % crc("{}"),
        '{"crc":%d, }' % crc("{ }"),
        '{"crc":%d}' % crc("{}"),
        # A body whose CRC covers it, then more after it.
        with_head(f'"crc":{crc(body + " x")}', body + " x"),
        with_head(f'"crc":{crc(body + "  ")}', body + "  "),
    ]
    for line in lines:
        assert same(line), line


def test_surrogates_in_the_body():
    # A lone surrogate, literal (it cannot be UTF-8 encoded) or escaped.
    rec = {"t": "v", "k": "\ud800", "v": 1}
    body = canonical(rec)  # escaped: "\\ud800"
    literal = body.replace("\\ud800", "\ud800")
    lines = [
        encode_record(rec),
        with_head(f'"crc":{crc(body)}', literal),
        with_head(f'"crc":{crc(literal)}', literal),
    ]
    assert decode_record(lines[0]) == rec
    for line in lines:
        assert same(line), ascii(line)


def test_non_ascii_body_takes_the_reference_path():
    rec = {"t": "v", "k": "é", "v": 1}
    raw = json.dumps(rec, separators=(",", ":"), sort_keys=True,
                     ensure_ascii=False)
    line = with_head(f'"crc":{crc(raw)}', raw)
    assert same(line) and decode_record(line) is None


# -- the fast path is the one taken -------------------------------------------


def test_store_loads_without_reserializing(tmp_path, monkeypatch):
    """A store this code wrote loads without a single ``json.dumps``:
    every line is checked on its own bytes, none re-serialized."""
    cache = OracleCache.with_disk(tmp_path)
    for i in range(300):
        cache.record(f"k{i}", i % 3 == 0)
    cache.flush()

    def no_dumps(*args, **kwargs):
        raise AssertionError("json.dumps called while loading")

    monkeypatch.setattr(json, "dumps", no_dumps)
    again = OracleCache.with_disk(tmp_path)
    assert again.store.corrupt_lines == 0
    assert all(again.lookup(f"k{i}") is (i % 3 == 0) for i in range(300))
