"""Test-input generation for the equivalence oracle.

The oracle replaces Rosette/z3 verification with differential testing over
a bank of valuations (see DESIGN.md, substitution 1).  A valuation binds
every buffer and scalar variable an expression reads.  The bank mixes:

* boundary values that trigger wrap-around and saturation (0, 1, type
  min/max, alternating extremes),
* structured ramps that expose lane permutation mistakes (every lane value
  distinct — a swizzle error cannot cancel out), and
* seeded pseudo-random values.

Buffers are padded generously around the live range so candidate
implementations may read data the specification does not (e.g. a vtmpy
window or an aligned-load pair spanning the neighbourhood).

The value of buffer ``b`` at offset ``x`` in environment ``(style, seed)``
is a pure function of ``(b.name, b.elem, style, seed, x)``.  Random styles
take raw words from a PCG64 stream seeded by a sha256 digest of that key
(never ``hash()``, so a bank does not change with ``PYTHONHASHSEED``);
structured styles are computed from ``x`` alone.  Values are made in
blocks of :data:`BLOCK` offsets, kept in one bounded, thread-safe,
process-wide cache, and every buffer is a read-only window cut from them:
overlapping footprints share values, and a buffer's values do not depend
on the footprint it is cut for or on the other buffers of the spec.

:func:`environment_bank` cuts each buffer's windows straight into the rows
of one matrix in the element's own dtype (:class:`repro.eval.BankData`);
the bank's :class:`Environment` objects are built only when a fallback
step or ``Oracle.bank_for`` first reads them.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from ..eval.plan import BankData, wrap_array
from ..ir import expr as ir_expr
from ..ir.interp import BufferView, Environment
from ..types import ScalarType
from ..uber import instructions as U

#: extra elements materialized on each side of the live range
PAD_ELEMENTS = 512

#: a scalar's 64-bit two's-complement pattern (``environment_bank``)
_U64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class BufferSpec:
    """Shape of one buffer a specification reads."""

    name: str
    elem: ScalarType
    lo: int  # inclusive, elements relative to the tile origin
    hi: int  # exclusive


def buffer_specs_of(spec) -> list[BufferSpec]:
    """Buffer shapes read by an IR or uber expression, by name."""
    return list(footprint(spec)[0])


def scalar_names_of(spec) -> list[tuple[str, ScalarType]]:
    """Free scalar variables of an IR or uber expression (incl. broadcasts),
    by name."""
    return list(footprint(spec)[1])


#: bank order: the ramp goes first because it catches swizzle errors fastest
BASE_STYLES = ("ramp", "random", "alternate", "max", "small_random", "random")

#: styles whose values depend on the offset alone, so every buffer and seed
#: shares them; any other style draws from a per-buffer stream
STRUCTURED_STYLES = frozenset({"ramp", "alternate", "zeros", "ones", "max",
                               "min"})

#: offsets per cached block, and the most blocks the cache keeps.  A cold
#: pass over all 42 (kernel, target) pairs in one process reads 364
#: distinct blocks (20 to 89 per compile) and finds 99% of its block reads
#: cached; 512 blocks hold that with room, in at most 512 * 1024 * 8 B =
#: 4 MiB
BLOCK = 1024
MAX_BLOCKS = 512


def _digest(*key) -> int:
    """A stable 256-bit integer of ``key``: sha256, never ``hash()``, so it
    does not change with ``PYTHONHASHSEED``."""
    text = json.dumps(key, separators=(",", ":"))
    return int.from_bytes(hashlib.sha256(text.encode()).digest(), "little")


def _constant(style: str, elem: ScalarType) -> int | None:
    """The one value a constant style binds everywhere, else ``None``."""
    return {"zeros": 0, "ones": 1, "max": elem.max_value,
            "min": elem.min_value}.get(style)


def _typed(values, elem: ScalarType):
    """``elem.wrap`` of an int64 vector, as int64 (uint64 for u64)."""
    if elem.bits == 64:
        return values if elem.signed else values.astype(np.uint64)
    return wrap_array(values, elem)


@functools.lru_cache(maxsize=MAX_BLOCKS)
def _block(name: str, elem: ScalarType, style: str, seed: int, k: int):
    """The read-only values at offsets ``[k*BLOCK, (k+1)*BLOCK)``.

    Random styles take raw words of a PCG64 stream seeded by the digest of
    the whole key.  Raw bit-generator output, unlike ``Generator``
    methods, is kept stable across NumPy releases.  ``lru_cache`` is
    thread-safe, so the service's workers share the one cache.
    """
    x = np.arange(k * BLOCK, (k + 1) * BLOCK, dtype=np.int64) + PAD_ELEMENTS
    if style == "ramp":
        # Distinct small values per lane; offset keeps signed types happy.
        data = _typed(3 * x + 1, elem)
    elif style == "alternate":
        data = _typed(np.where(x % 2 == 1, elem.max_value, elem.min_value),
                      elem)
    elif style in STRUCTURED_STYLES:
        data = _typed(np.full(BLOCK, _constant(style, elem)), elem)
    else:
        words = np.random.PCG64(
            _digest(name, elem.name, style, seed, k)
        ).random_raw(BLOCK)
        if style == "small_random":
            words &= min(15, elem.max_value)
        data = _typed(words.view(np.int64), elem)
    data.flags.writeable = False
    return data


def _span(spec: BufferSpec) -> int:
    """Elements of the buffer's padded footprint."""
    return spec.hi - spec.lo + 2 * PAD_ELEMENTS


def _fill(out, spec: BufferSpec, style: str, seed: int) -> None:
    """Write the buffer's values over its padded footprint into ``out``,
    block by block, cast to ``out``'s dtype."""
    name = spec.name
    if style in STRUCTURED_STYLES:
        name, seed = "", 0
    lo = spec.lo - PAD_ELEMENTS
    hi = lo + len(out)
    for k in range(lo // BLOCK, (hi - 1) // BLOCK + 1):
        a, b = max(lo, k * BLOCK), min(hi, (k + 1) * BLOCK)
        block = _block(name, spec.elem, style, seed, k)
        out[a - lo:b - lo] = block[a - k * BLOCK:b - k * BLOCK]


def _window(spec: BufferSpec, style: str, seed: int):
    """The buffer's values over its padded footprint, cut from blocks, as
    int64 (uint64 for u64)."""
    elem = spec.elem
    data = np.empty(_span(spec), dtype=np.uint64 if elem.bits == 64
                    and not elem.signed else np.int64)
    _fill(data, spec, style, seed)
    data.flags.writeable = False
    return data


def _bank_dtype(elem: ScalarType):
    """The dtype a bank matrix holds ``elem``'s values in: its own width
    (a boolean's as uint8), and int64 for 64-bit types, a u64's values as
    their bit patterns."""
    if elem.bits == 64:
        return np.dtype(np.int64)
    kind = "i" if elem.signed else "u"
    return np.dtype(f"{kind}{max(elem.bits // 8, 1)}")


def _scalar(name: str, dtype: ScalarType, style: str, seed: int) -> int:
    """One scalar's value in environment ``(style, seed)``."""
    value = _constant(style, dtype)
    if value is None:
        value = dtype.wrap(_digest(name, dtype.name, style, seed))
    return value


def make_environment(
    buffers: list[BufferSpec],
    scalars: list[tuple[str, ScalarType]],
    style: str,
    seed: int,
) -> Environment:
    """Build one valuation for the given buffer and scalar shapes.

    Every value is a pure function of its buffer's ``(name, elem)`` (or
    scalar's ``(name, dtype)``), ``style``, ``seed`` and offset, so it
    does not depend on the footprint a buffer is cut for, on the other
    buffers, or on the process.
    """
    views = {
        spec.name: BufferView(
            data=_window(spec, style, seed), elem=spec.elem,
            origin=PAD_ELEMENTS - spec.lo, prewrapped=True,
        )
        for spec in buffers
    }
    scalar_vals = {name: _scalar(name, dtype, style, seed)
                   for name, dtype in scalars}
    return Environment(buffers=views, scalars=scalar_vals)


#: the footprint of a node that reads nothing
_NO_READS = ((), ())


def _footprint_parts(node) -> tuple:
    """``(own footprint, sub-expressions)`` of one IR or uber node.

    Loads read their window, scalar variables bind themselves, and a
    broadcast's scalar IR expression is a sub-expression, so the scalar
    loads and variables inside it count.
    """
    if isinstance(node, (ir_expr.Load, U.LoadData)):
        return ((BufferSpec(node.buffer, node.elem, node.offset,
                            node.offset + node.extent),), ()), ()
    if isinstance(node, ir_expr.ScalarVar):
        return ((), ((node.name, node.dtype),)), ()
    if isinstance(node, U.BroadcastScalar):
        return _NO_READS, (node.scalar,)
    return _NO_READS, node.children


def _merge(parts: list) -> tuple:
    """One footprint of ``parts``, given in pre-order: a buffer's span is
    the min/max of its spans, and the first element type of a buffer and
    dtype of a scalar win."""
    parts = [part for part in parts if part is not _NO_READS]
    if not parts:
        return _NO_READS
    if len(parts) == 1:
        return parts[0]
    buffers: dict = {}
    scalars: dict = {}
    for part_buffers, part_scalars in parts:
        for buf in part_buffers:
            cur = buffers.get(buf.name)
            if cur is None:
                buffers[buf.name] = buf
            elif buf.lo < cur.lo or buf.hi > cur.hi:
                buffers[buf.name] = BufferSpec(
                    buf.name, cur.elem, min(cur.lo, buf.lo),
                    max(cur.hi, buf.hi))
        for name, dtype in part_scalars:
            scalars.setdefault(name, dtype)
    return (tuple(sorted(buffers.values(), key=lambda b: b.name)),
            tuple(sorted(scalars.items())))


def footprint(spec, memo: dict | None = None) -> tuple:
    """``(buffers, scalars)`` of an IR or uber expression, as tuples sorted
    by name.

    A bank is a pure function of footprint, seed and round count, so specs
    with equal footprints share one bank.  Each node's footprint is merged
    from its own reads and its sub-expressions' footprints, in pre-order
    (:func:`_merge`).  ``memo`` maps nodes to their footprints: a node
    found there is not walked again, and every node the walk meets is
    added, so an oracle that keeps one memo for its lifetime merges each
    new spec's footprint from its children's.
    """
    if memo is None:
        memo = {}
    stack = [spec]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        own, subs = _footprint_parts(node)
        missing = [sub for sub in subs if sub not in memo]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        memo[node] = _merge([own, *[memo[sub] for sub in subs]])
    return memo[spec]


def bank_rounds(n_random_extra: int, seed: int) -> list:
    """``(style, seed)`` of each environment of a bank, in bank order."""
    rounds = [(style, seed + i) for i, style in enumerate(BASE_STYLES)]
    rounds += [("random", seed + 100 + i) for i in range(n_random_extra)]
    return rounds


def environment_bank(spec, n_random_extra: int = 2, seed: int = 0,
                     memo: dict | None = None) -> BankData:
    """The standard valuation bank for a specification expression.

    Works for both IR and uber expressions.  Each buffer's windows, one
    per environment, are cut from the block cache straight into the rows
    of one read-only ``(envs, span)`` matrix in the element's own dtype
    (:func:`_bank_dtype`); each scalar's values make one int64 vector, as
    bit patterns where they leave int64.  Row ``i`` holds what
    :func:`make_environment` binds for the ``i``-th ``(style, seed)`` of
    :func:`bank_rounds`, and the bank's environments are those
    ``make_environment`` calls, made the first time ``BankData.envs`` is
    read.  ``memo`` is a :func:`footprint` memo; when it holds ``spec``,
    as the oracle's does, the bank does not walk ``spec`` again.
    """
    buffers, scalars = footprint(spec, memo)
    rounds = bank_rounds(n_random_extra, seed)
    matrices = {}
    for buf in buffers:
        data = np.empty((len(rounds), _span(buf)),
                        dtype=_bank_dtype(buf.elem))
        for row, (style, s) in zip(data, rounds):
            _fill(row, buf, style, s)
        data.flags.writeable = False
        matrices[buf.name] = (data, buf.elem, PAD_ELEMENTS - buf.lo)
    vectors = {}
    for name, dtype in scalars:
        vals = np.array([_scalar(name, dtype, style, s) & _U64_MASK
                         for style, s in rounds], dtype=np.uint64)
        vals = vals.view(np.int64)
        vals.flags.writeable = False
        vectors[name] = vals

    def make_envs() -> list:
        return [make_environment(buffers, scalars, style, s)
                for style, s in rounds]

    return BankData(rounds=tuple(rounds), buffers=matrices, scalars=vectors,
                    make_envs=make_envs)


# Kept only because perfbench/spans.py wraps it; nothing in src/ calls it.
def environment_zero(spec, seed: int = 0) -> Environment:
    """Just the first environment of :func:`environment_bank`.

    Every value is a pure function of its buffer, style, seed and offset
    (see :func:`make_environment`), so this equals
    ``environment_bank(spec, seed=seed).envs[0]`` without paying for the
    bank.
    """
    buffers, scalars = footprint(spec)
    return make_environment(buffers, scalars, BASE_STYLES[0], seed)
