"""The valuation bank's contract.

Every value is a pure function of its buffer's name and element type, the
style, the seed and the offset: it does not change with the process's
``PYTHONHASHSEED``, nor with the footprint a buffer is cut for, and two
same-typed buffers never share one random stream.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.ir import builder as B
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
from repro.types import I16, I64, U16, U32, U64, U8, ScalarType

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
print(json.dumps([
    [[name, view.origin, view.data]
     for name, view in sorted(env.buffers.items())]
    + [sorted(env.scalars.items())]
    for env in environment_bank(spec, n_random_extra=4, seed=7)
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
    random_envs = [env for env, style in zip(bank, styles)
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
        return [[(n, v.data) for env in environment_bank(spec)
                 for n, v in sorted(env.buffers.items())] for spec in specs]

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
