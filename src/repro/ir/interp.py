"""Exact interpreter for the Halide-like IR.

Values are python ints (scalars) or tuples of python ints (vectors), so
arithmetic is exact until explicitly wrapped to the node's type — precisely
the two's-complement semantics the synthesis oracle must reason about.

Evaluation happens against an :class:`Environment`, which supplies the
contents of named buffers and the values of free scalar variables.  Buffer
reads are relative to a per-buffer *origin*, so loads at negative offsets
(stencil halos) are well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from ..errors import EvaluationError
from ..types import ScalarType, VectorType
from . import expr as E

Value = Union[int, tuple]


class BufferView:
    """A 1-D window of typed data with an origin for relative addressing.

    ``data[origin + offset]`` is the element at ``offset``; the workloads
    allocate enough halo that all offsets used by an expression are in range.

    ``data`` may be given as a NumPy vector (the valuation bank's read-only
    windows).  The vector stays in ``array`` for the batched evaluator, and
    ``data`` becomes its list of Python ints, built on the first read, so a
    view the scalar interpreters never read never pays for it.  Views
    compare by value.
    """

    __slots__ = ("array", "elem", "origin", "prewrapped", "_data")

    def __init__(self, data: Sequence[int], elem: ScalarType, origin: int = 0,
                 prewrapped: bool = False) -> None:
        self.array = data if isinstance(data, np.ndarray) else None
        self._data = None if self.array is not None else data
        self.elem = elem
        self.origin = origin
        #: set when ``data`` is already wrapped to ``elem`` (bank construction
        #: pre-wraps), letting the hot stride-1 read be a plain slice
        self.prewrapped = prewrapped

    @property
    def data(self) -> Sequence[int]:
        if self._data is None:
            self._data = self.array.tolist()
        return self._data

    def __eq__(self, other) -> bool:
        if not isinstance(other, BufferView):
            return NotImplemented
        return (self.data, self.elem, self.origin, self.prewrapped) == (
            other.data, other.elem, other.origin, other.prewrapped)

    def read(self, offset: int, lanes: int, stride: int = 1) -> tuple:
        data = self._data if self._data is not None else self.data
        start = self.origin + offset
        stop = start + (lanes - 1) * stride + 1
        if start < 0 or stop > len(data):
            raise EvaluationError(
                f"buffer read out of range: [{start}, {stop}) of {len(data)}"
            )
        if stride == 1:
            if self.prewrapped:
                return tuple(data[start:stop])
            return tuple(self.elem.wrap(v) for v in data[start:stop])
        if self.prewrapped:
            return tuple(data[start + i * stride] for i in range(lanes))
        return tuple(
            self.elem.wrap(data[start + i * stride]) for i in range(lanes)
        )


@dataclass
class Environment:
    """Bindings for buffers and free scalar variables."""

    buffers: Mapping[str, BufferView] = field(default_factory=dict)
    scalars: Mapping[str, int] = field(default_factory=dict)

    def buffer(self, name: str) -> BufferView:
        try:
            return self.buffers[name]
        except KeyError:
            raise EvaluationError(f"unbound buffer: {name!r}") from None

    def scalar(self, name: str) -> int:
        try:
            return self.scalars[name]
        except KeyError:
            raise EvaluationError(f"unbound scalar variable: {name!r}") from None


def _lanewise(f, *operands: Value) -> Value:
    vecs = [op for op in operands if isinstance(op, tuple)]
    if not vecs:
        return f(*operands)
    lanes = len(vecs[0])
    rows = [op if isinstance(op, tuple) else (op,) * lanes for op in operands]
    return tuple(f(*vals) for vals in zip(*rows))


def _div(a: int, b: int) -> int:
    return 0 if b == 0 else a // b  # floor division, Halide's x/0 == 0


def _mod(a: int, b: int) -> int:
    return 0 if b == 0 else a % b


def _shift_mask(amount: int, bits: int) -> int:
    return amount & (bits - 1)


def evaluate(node: E.Expr, env: Environment) -> Value:
    """Evaluate ``node`` under ``env``; vectors come back as tuples of ints."""
    t = node.type
    elem = E.elem_of(t)

    if isinstance(node, E.Const):
        return node.value
    if isinstance(node, E.ScalarVar):
        return node.dtype.wrap(env.scalar(node.name))
    if isinstance(node, E.Load):
        values = env.buffer(node.buffer).read(node.offset, node.lanes, node.stride)
        return values[0] if node.lanes == 1 else values
    if isinstance(node, E.Broadcast):
        return (evaluate(node.value, env),) * node.lanes
    if isinstance(node, E.Cast):
        v = evaluate(node.value, env)
        return _lanewise(node.target.wrap, v)
    if isinstance(node, E.SaturatingCast):
        v = evaluate(node.value, env)
        return _lanewise(node.target.saturate, v)
    if isinstance(node, E.Absd):
        a = evaluate(node.a, env)
        b = evaluate(node.b, env)
        return _lanewise(lambda x, y: elem.wrap(abs(x - y)), a, b)
    if isinstance(node, E.Select):
        cond = evaluate(node.cond, env)
        tv = evaluate(node.t, env)
        fv = evaluate(node.f, env)
        return _lanewise(lambda c, x, y: x if c else y, cond, tv, fv)
    if isinstance(node, E._Compare):
        a = evaluate(node.a, env)
        b = evaluate(node.b, env)
        op = {
            E.LT: lambda x, y: int(x < y),
            E.LE: lambda x, y: int(x <= y),
            E.EQ: lambda x, y: int(x == y),
            E.NE: lambda x, y: int(x != y),
            E.GT: lambda x, y: int(x > y),
            E.GE: lambda x, y: int(x >= y),
        }[type(node)]
        return _lanewise(op, a, b)
    if isinstance(node, E._Binary):
        a = evaluate(node.a, env)
        b = evaluate(node.b, env)
        bits = elem.bits
        op = {
            E.Add: lambda x, y: elem.wrap(x + y),
            E.Sub: lambda x, y: elem.wrap(x - y),
            E.Mul: lambda x, y: elem.wrap(x * y),
            E.Div: lambda x, y: elem.wrap(_div(x, y)),
            E.Mod: lambda x, y: elem.wrap(_mod(x, y)),
            E.Min: lambda x, y: min(x, y),
            E.Max: lambda x, y: max(x, y),
            E.Shl: lambda x, y: elem.wrap(x << _shift_mask(y, bits)),
            E.Shr: lambda x, y: elem.wrap(x >> _shift_mask(y, bits)),
        }[type(node)]
        return _lanewise(op, a, b)
    raise EvaluationError(f"cannot evaluate node type {type(node).__name__}")


def evaluate_vector(node: E.Expr, env: Environment) -> tuple:
    """Evaluate ``node`` and normalize the result to a tuple of lanes."""
    value = evaluate(node, env)
    if isinstance(value, tuple):
        return value
    return (value,)
