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
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from ..eval.plan import BankData, wrap_array
from ..ir import expr as ir_expr
from ..ir import traversal
from ..ir.interp import BufferView, Environment
from ..types import ScalarType
from ..uber import instructions as U

#: extra elements materialized on each side of the live range
PAD_ELEMENTS = 512

#: a scalar's 64-bit two's-complement pattern (``bank_arrays``)
_U64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class BufferSpec:
    """Shape of one buffer a specification reads."""

    name: str
    elem: ScalarType
    lo: int  # inclusive, elements relative to the tile origin
    hi: int  # exclusive


def buffer_specs_of(spec: ir_expr.Expr) -> list[BufferSpec]:
    """Buffer shapes read by an IR expression."""
    out: dict[str, BufferSpec] = {}
    for ld in traversal.loads_of(spec):
        cur = out.get(ld.buffer)
        lo, hi = ld.offset, ld.offset + ld.extent
        if cur is None:
            out[ld.buffer] = BufferSpec(ld.buffer, ld.elem, lo, hi)
        else:
            out[ld.buffer] = BufferSpec(
                ld.buffer, cur.elem, min(cur.lo, lo), max(cur.hi, hi)
            )
    return sorted(out.values(), key=lambda b: b.name)


def uber_buffer_specs(spec) -> list[BufferSpec]:
    """Buffer shapes read by an uber expression.

    Includes scalar loads hidden inside broadcast operands (a reduction's
    loop-invariant factor, e.g. ``x64(i32(A[k]))``).
    """
    out: dict[str, BufferSpec] = {}

    def add(buffer: str, elem: ScalarType, lo: int, hi: int) -> None:
        cur = out.get(buffer)
        if cur is None:
            out[buffer] = BufferSpec(buffer, elem, lo, hi)
        else:
            out[buffer] = BufferSpec(
                buffer, cur.elem, min(cur.lo, lo), max(cur.hi, hi)
            )

    for node in spec:
        if isinstance(node, U.LoadData):
            add(node.buffer, node.elem, node.offset, node.offset + node.extent)
        elif isinstance(node, U.BroadcastScalar):
            for sub in node.scalar:
                if isinstance(sub, ir_expr.Load):
                    add(sub.buffer, sub.elem, sub.offset,
                        sub.offset + sub.extent)
    return sorted(out.values(), key=lambda b: b.name)


def scalar_names_of(spec) -> list[tuple[str, ScalarType]]:
    """Free scalar variables of an IR or uber expression (incl. broadcasts)."""
    seen: dict[str, ScalarType] = {}
    for node in spec:
        scalar = None
        if isinstance(node, ir_expr.ScalarVar):
            scalar = node
        elif isinstance(node, (U.BroadcastScalar,)) or (
            hasattr(node, "scalar") and isinstance(
                getattr(node, "scalar", None), ir_expr.Expr)
        ):
            for sub in getattr(node, "scalar"):
                if isinstance(sub, ir_expr.ScalarVar):
                    seen.setdefault(sub.name, sub.dtype)
            continue
        if scalar is not None:
            seen.setdefault(scalar.name, scalar.dtype)
    return sorted(seen.items())


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


def _window(spec: BufferSpec, style: str, seed: int):
    """The buffer's values over its padded footprint, cut from blocks."""
    name = spec.name
    if style in STRUCTURED_STYLES:
        name, seed = "", 0
    lo, hi = spec.lo - PAD_ELEMENTS, spec.hi + PAD_ELEMENTS
    k0, k1 = lo // BLOCK, (hi - 1) // BLOCK
    parts = [_block(name, spec.elem, style, seed, k)
             for k in range(k0, k1 + 1)]
    data = np.concatenate(parts)[lo - k0 * BLOCK:hi - k0 * BLOCK].copy()
    data.flags.writeable = False
    return data


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
    scalar_vals = {}
    for name, dtype in scalars:
        value = _constant(style, dtype)
        if value is None:
            value = dtype.wrap(_digest(name, dtype.name, style, seed))
        scalar_vals[name] = value
    return Environment(buffers=views, scalars=scalar_vals)


def footprint(spec) -> tuple:
    """``(buffers, scalars)`` of an IR or uber expression, as tuples.

    A bank is a pure function of footprint, seed and round count, so specs
    with equal footprints share one bank.
    """
    if isinstance(spec, ir_expr.Expr):
        buffers = buffer_specs_of(spec)
    else:
        buffers = uber_buffer_specs(spec)
    return tuple(buffers), tuple(scalar_names_of(spec))


def environment_bank(spec, n_random_extra: int = 2, seed: int = 0) -> list[Environment]:
    """The standard valuation bank for a specification expression.

    Works for both IR and uber expressions.
    """
    buffers, scalars = footprint(spec)
    envs = [
        make_environment(buffers, scalars, style, seed + i)
        for i, style in enumerate(BASE_STYLES)
    ]
    for i in range(n_random_extra):
        envs.append(make_environment(buffers, scalars, "random", seed + 100 + i))
    return envs


# Kept only because perfbench/spans.py wraps it; nothing in src/ calls it.
def environment_zero(spec, seed: int = 0) -> Environment:
    """Just the first environment of :func:`environment_bank`.

    Every value is a pure function of its buffer, style, seed and offset
    (see :func:`make_environment`), so this equals
    ``environment_bank(spec, seed=seed)[0]`` without paying for the other
    environments.
    """
    buffers, scalars = footprint(spec)
    return make_environment(buffers, scalars, BASE_STYLES[0], seed)


def bank_arrays(bank: list[Environment]) -> BankData:
    """Stack a bank from :func:`environment_bank` into a
    :class:`repro.eval.BankData`.

    Each buffer's views are stacked into one read-only ``(envs, length)``
    int64 matrix, and each scalar's values into one int64 vector.  u64
    buffers and scalars outside int64 are stored as int64 bit patterns,
    which only re-wrapping loads and fallback steps read (a plan node
    wider than 32 bits is a fallback step).
    """
    first = bank[0]
    buffers: dict = {}
    for name, view0 in first.buffers.items():
        data = np.stack([env.buffers[name].array for env in bank])
        data = data.view(np.int64)
        data.flags.writeable = False
        buffers[name] = (data, view0.elem, view0.origin)
    scalars: dict = {}
    for name in first.scalars:
        vals = np.array([env.scalars[name] & _U64_MASK for env in bank],
                        dtype=np.uint64).view(np.int64)
        vals.flags.writeable = False
        scalars[name] = vals
    return BankData(
        n_envs=len(bank), envs=list(bank), buffers=buffers, scalars=scalars
    )
