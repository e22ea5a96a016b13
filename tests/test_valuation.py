"""The valuation bank's contract.

Every value is a pure function of its buffer's name and element type, the
style, the seed and the offset: it does not change with the process's
``PYTHONHASHSEED``, nor with the footprint a buffer is cut for, and two
same-typed buffers never share one random stream.
"""

import functools
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EvaluationError
from repro.eval.plan import read_buffer
from repro.ir import builder as B
from repro.ir import expr as E
from repro.synthesis.oracle import Oracle
from repro.synthesis import valuation
from repro.synthesis.valuation import (
    BASE_STYLES,
    PAD_ELEMENTS,
    STRUCTURED_STYLES,
    BufferSpec,
    environment_bank,
    make_environment,
)
from repro.types import I8, I16, I32, I64, U16, U32, U64, U8, ScalarType

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: prints one fixed two-buffer spec's bank as JSON
DUMP_BANK = """
import json
from repro.ir import builder as B
from repro.ir import expr as E
from repro.synthesis.valuation import environment_bank
from repro.types import U8, U16
spec = (B.widen(B.load("in", -2, 16, U8)) + B.load("w", 5, 16, U16)
        + B.broadcast(E.ScalarVar("k", U16), 16))
bank = environment_bank(spec, n_random_extra=4, seed=7)
print(json.dumps([
    [[name, origin, data[i].tolist()]
     for name, (data, _elem, origin) in sorted(bank.buffers.items())]
    + [sorted((name, int(vals[i])) for name, vals in bank.scalars.items())]
    for i in range(bank.n_envs)
]))
"""


def run_python(args, hash_seed, cwd):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, check=True,
        capture_output=True, text=True, timeout=300,
    ).stdout


def test_bank_does_not_depend_on_the_hash_seed(tmp_path):
    banks = [run_python(["-c", DUMP_BANK], h, tmp_path) for h in (0, 1)]
    assert banks[0] == banks[1]
    assert len(json.loads(banks[0])) == len(BASE_STYLES) + 4


def _counts(stats):
    """A ``--stats-json`` document with its time fields dropped."""
    if isinstance(stats, dict):
        return {k: _counts(v) for k, v in stats.items() if k != "time_s"}
    return stats


def _selection(stdout):
    """The rake listing block of ``repro compile --show-programs``."""
    block = stdout.split("[rake] --", 1)[1]
    return block.split("[baseline]", 1)[0]


def test_compile_counts_do_not_depend_on_the_hash_seed(tmp_path):
    # At hash seeds 0 and 1 this compile once made 41 and 44 queries.
    runs = []
    for h in (0, 1):
        stats = tmp_path / f"stats{h}.json"
        out = run_python(
            ["-m", "repro", "compile", "softmax", "--target", "hvx",
             "--show-programs", "--stats-json", str(stats)], h, tmp_path)
        runs.append((_counts(json.loads(stats.read_text())), _selection(out)))
    assert runs[0] == runs[1]
    assert runs[0][0]["totals"]["queries"] > 0


@pytest.mark.parametrize("style", sorted(set(BASE_STYLES) | STRUCTURED_STYLES))
def test_values_do_not_depend_on_the_footprint(style):
    narrow = [BufferSpec("in", U8, 0, 8)]
    wide = [BufferSpec("in", U8, -40, 300)]
    with_a = [BufferSpec("a", U8, 0, 8), BufferSpec("in", U8, 0, 8)]
    reads = {
        make_environment(buffers, [], style, 3).buffer("in").read(0, 8)
        for buffers in (narrow, wide, with_a)
    }
    assert len(reads) == 1


@pytest.mark.parametrize("elem", [U8, I16, U32])
def test_same_typed_buffers_hold_different_random_data(elem):
    """One stream per element type, style and seed would give ``a`` and
    ``b`` equal data, and a candidate that reads the wrong buffer would
    then be accepted for ever."""
    a, b = B.load("a", 0, 16, elem), B.load("b", 0, 16, elem)
    bank = environment_bank(a + b, n_random_extra=4)
    styles = BASE_STYLES + ("random",) * 4
    random_envs = [env for env, style in zip(bank.envs, styles)
                   if style not in STRUCTURED_STYLES]
    assert len(random_envs) == 7
    for env in random_envs:
        assert env.buffer("a").read(0, 16) != env.buffer("b").read(0, 16)
    assert Oracle().equivalent(a, b) is False


@pytest.mark.parametrize(
    "elem", [U8, I16, U32, I64, U64, ScalarType(1, False)], ids=str)
def test_styles_match_their_scalar_definitions(elem):
    """The vectorized fills against the per-element definitions, on a
    footprint that spans several blocks and starts below the padding."""
    spec = BufferSpec("in", elem, -700, 1500)
    offsets = range(spec.lo - PAD_ELEMENTS, spec.hi + PAD_ELEMENTS)
    lo, hi = elem.min_value, elem.max_value
    want = {
        "ramp": [elem.wrap(3 * (x + PAD_ELEMENTS) + 1) for x in offsets],
        "alternate": [hi if (x + PAD_ELEMENTS) % 2 else lo for x in offsets],
        "max": [hi] * len(offsets),
        "min": [lo] * len(offsets),
        "zeros": [0] * len(offsets),
        "ones": [1] * len(offsets),
    }
    for style in sorted(set(BASE_STYLES) | STRUCTURED_STYLES):
        view = make_environment([spec], [], style, 0).buffer("in")
        assert view.origin == PAD_ELEMENTS - spec.lo
        assert not view.array.flags.writeable
        assert str(view.array.dtype) == ("uint64" if elem == U64 else "int64")
        if style in want:
            assert view.data == want[style], style
        else:
            top = min(15, hi) if style == "small_random" else hi
            assert all(lo <= v <= top for v in view.data), style
            assert len(set(view.data)) > 1, style


def test_block_cache_is_shared_safely_across_threads():
    specs = [B.load(name, at, 64, elem) + B.load(name, at + 900, 64, elem)
             for name in ("a", "b") for at in (-3000, 0, 2000)
             for elem in (U8, U16)]

    def rows():
        return [[(n, data.tolist()) for n, (data, _elem, _origin)
                 in sorted(environment_bank(spec).buffers.items())]
                for spec in specs]

    want = rows()
    valuation._block.cache_clear()
    got, errors = {}, []

    def worker(i):
        try:
            got[i] = rows()
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert [got[i] for i in range(8)] == [want] * 8
    assert valuation._block.cache_info().currsize <= valuation.MAX_BLOCKS


#: the dtype a bank matrix stores each element type in
BANK_DTYPES = {U8: np.uint8, I8: np.int8, U16: np.uint16, I16: np.int16,
               U32: np.uint32, I32: np.int32, U64: np.int64, I64: np.int64}
MASK64 = (1 << 64) - 1


def expected_rounds(n_random_extra, seed):
    """``(style, seed)`` of each environment of a bank, in bank order."""
    return ([(style, seed + i) for i, style in enumerate(BASE_STYLES)]
            + [("random", seed + 100 + i) for i in range(n_random_extra)])


@st.composite
def footprint_specs(draw):
    """An IR spec reading one to three buffers of any element type, each
    through one to three loads at random offsets and strides (so a
    footprint may span several blocks, below zero), and up to two free
    scalars."""
    lanes = draw(st.integers(2, 40))
    elems = st.sampled_from(list(BANK_DTYPES))
    terms = []
    for name in draw(st.lists(st.sampled_from("ABCD"), min_size=1,
                              max_size=3, unique=True)):
        elem = draw(elems)
        for offset in draw(st.lists(st.integers(-3000, 3000), min_size=1,
                                    max_size=3)):
            load = E.Load(name, offset, lanes, elem, draw(st.integers(1, 3)))
            terms.append(E.Cast(I64, load))
    for name in draw(st.lists(st.sampled_from("kst"), max_size=2,
                              unique=True)):
        scalar = E.Cast(I64, E.ScalarVar(name, draw(elems)))
        terms.append(E.Broadcast(scalar, lanes))
    return functools.reduce(E.Add, terms)


@settings(max_examples=40, deadline=None)
@given(footprint_specs(), st.integers(0, 3), st.integers(0, 1000),
       st.data())
def test_bank_rows_are_the_environments_windows(spec, extra, seed, data):
    """Each buffer is one matrix in its element's own dtype whose rows,
    widened, are ``make_environment``'s windows for the row's style and
    seed; scalars are int64 bit patterns of its values; the environments,
    built on first use, are ``make_environment``'s; and ``read_buffer``
    reads what ``BufferView.read`` reads, raising where it raises."""
    bank = environment_bank(spec, n_random_extra=extra, seed=seed)
    rounds = expected_rounds(extra, seed)
    buffers, scalars = valuation.footprint(spec)
    assert bank.n_envs == len(rounds)
    assert bank._envs is None
    want_envs = [make_environment(buffers, scalars, style, s)
                 for style, s in rounds]
    for buf in buffers:
        matrix, elem, origin = bank.buffers[buf.name]
        assert (elem, origin) == (buf.elem, PAD_ELEMENTS - buf.lo)
        assert matrix.dtype == BANK_DTYPES[elem]
        assert not matrix.flags.writeable
        assert matrix.shape == (len(rounds), buf.hi - buf.lo
                                + 2 * PAD_ELEMENTS)
        for row, env in zip(matrix, want_envs):
            window = env.buffer(buf.name).array
            assert np.array_equal(row.astype(np.int64),
                                  window.view(np.int64))
        if elem == U64:
            assert matrix.view(np.uint64).max() >= 1 << 63
    for name, dtype in scalars:
        assert bank.scalars[name].dtype == np.int64
        assert [int(v) & MASK64 for v in bank.scalars[name]] == \
            [env.scalars[name] & MASK64 for env in want_envs]
    assert bank.envs == want_envs
    assert bank.envs is bank.envs
    for buf in buffers:
        lo, hi = buf.lo - PAD_ELEMENTS, buf.hi + PAD_ELEMENTS
        for _ in range(4):
            lanes = data.draw(st.integers(1, 40))
            stride = data.draw(st.integers(1, 3))
            offset = data.draw(st.one_of(
                st.integers(lo - 3, lo + 3),
                st.integers(hi - (lanes - 1) * stride - 3, hi),
                st.integers(lo, hi)))
            try:
                want = [env.buffer(buf.name).read(offset, lanes, stride)
                        for env in bank.envs]
            except EvaluationError:
                with pytest.raises(EvaluationError):
                    read_buffer(bank, buf.name, offset, lanes, stride)
                continue
            got = read_buffer(bank, buf.name, offset, lanes, stride)
            assert got.dtype == np.int64
            assert [[int(v) & MASK64 for v in row] for row in got] == \
                [[v & MASK64 for v in row] for row in want]
