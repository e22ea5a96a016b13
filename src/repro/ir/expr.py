"""Halide-like vector IR expression nodes.

This is the target-independent IR that the frontend lowers algorithms into
and that both instruction selectors consume (Figure 3 of the paper shows an
example).  Expressions are immutable trees; every node knows its type.
A node computes its type from its children's on the first read and keeps
it (:class:`~repro.types.kept_property`), so building a node that checks
its operands' types costs O(1) however deep they are.

Scalar expressions (``Const``, ``ScalarVar`` and arithmetic over them) type
as :class:`~repro.types.ScalarType`; vector expressions type as
:class:`~repro.types.VectorType`.  Elementwise binary operations require both
operands to have identical types — widening must be made explicit with
``Cast`` nodes, exactly as in Halide's IR.

Memory access is modelled by :class:`Load`, which reads ``lanes`` contiguous
elements from a named buffer at a constant element offset relative to the
current tile origin.  The frontend computes these offsets when it vectorizes
an inner loop, flattening 2-D accesses with the buffer's row stride.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

from ..errors import TypeMismatchError
from ..types import (
    BOOL,
    ScalarType,
    VectorType,
    cache_expr_hash,
    kept_property,
    require_same_type,
)

Type = Union[ScalarType, VectorType]


def elem_of(t: Type) -> ScalarType:
    """The scalar element type of ``t`` (identity for scalars)."""
    return t.elem if isinstance(t, VectorType) else t


def lanes_of(t: Type) -> int:
    """Number of lanes of ``t`` (1 for scalars)."""
    return t.lanes if isinstance(t, VectorType) else 1


class Expr:
    """Base class for all IR expression nodes."""

    __slots__ = ()

    @property
    def type(self) -> Type:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def children(self) -> tuple["Expr", ...]:
        return ()

    def with_children(self, children: Sequence["Expr"]) -> "Expr":
        """Rebuild this node with new children (same arity and parameters)."""
        if children:
            raise TypeMismatchError(f"{type(self).__name__} takes no children")
        return self

    # Operator overloads live here so every subclass gets them.  They defer
    # to the builder module to insert broadcasts for python-int operands.
    def __add__(self, other):
        from . import builder

        return builder.add(self, builder.wrap_operand(other, self))

    def __radd__(self, other):
        from . import builder

        return builder.add(builder.wrap_operand(other, self), self)

    def __sub__(self, other):
        from . import builder

        return builder.sub(self, builder.wrap_operand(other, self))

    def __rsub__(self, other):
        from . import builder

        return builder.sub(builder.wrap_operand(other, self), self)

    def __mul__(self, other):
        from . import builder

        return builder.mul(self, builder.wrap_operand(other, self))

    def __rmul__(self, other):
        from . import builder

        return builder.mul(builder.wrap_operand(other, self), self)

    def __floordiv__(self, other):
        from . import builder

        return builder.div(self, builder.wrap_operand(other, self))

    def __mod__(self, other):
        from . import builder

        return builder.mod(self, builder.wrap_operand(other, self))

    def __lshift__(self, other):
        from . import builder

        return builder.shl(self, builder.wrap_operand(other, self))

    def __rshift__(self, other):
        from . import builder

        return builder.shr(self, builder.wrap_operand(other, self))

    def __iter__(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@cache_expr_hash
@dataclass(frozen=True)
class Const(Expr):
    """A scalar integer constant with an explicit type.

    The value must already be representable in ``dtype``; the builder wraps
    out-of-range python ints before constructing the node.
    """

    value: int
    dtype: ScalarType

    def __post_init__(self) -> None:
        if not self.dtype.contains(self.value):
            raise TypeMismatchError(
                f"constant {self.value} out of range for {self.dtype}"
            )

    @property
    def type(self) -> ScalarType:
        return self.dtype


@cache_expr_hash
@dataclass(frozen=True)
class ScalarVar(Expr):
    """A free scalar variable (e.g. a loop-invariant runtime parameter)."""

    name: str
    dtype: ScalarType

    @property
    def type(self) -> ScalarType:
        return self.dtype


@cache_expr_hash
@dataclass(frozen=True)
class Load(Expr):
    """A vector load of ``lanes`` elements from ``buffer``.

    ``offset`` is in elements, relative to the tile origin of the buffer;
    lane ``i`` reads element ``offset + i * stride``.  ``stride == 1`` is the
    common dense load; strided loads arise when a vectorized loop indexes
    with a scaled variable (e.g. pooling reads ``in(2x)``).  A scalar load
    is a ``Load`` with ``lanes == 1``.
    """

    buffer: str
    offset: int
    lanes: int
    elem: ScalarType
    stride: int = 1

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise TypeMismatchError(f"load stride must be >= 1: {self.stride}")

    @kept_property
    def type(self) -> Type:
        if self.lanes == 1:
            return self.elem
        return VectorType(self.elem, self.lanes)

    @property
    def extent(self) -> int:
        """Number of buffer elements spanned: offset .. offset + extent."""
        return (self.lanes - 1) * self.stride + 1


@cache_expr_hash
@dataclass(frozen=True)
class Broadcast(Expr):
    """Replicate a scalar expression across ``lanes`` vector lanes."""

    value: Expr
    lanes: int

    def __post_init__(self) -> None:
        if isinstance(self.value.type, VectorType):
            raise TypeMismatchError("broadcast operand must be scalar")

    @kept_property
    def type(self) -> VectorType:
        return VectorType(self.value.type, self.lanes)

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.value,)

    def with_children(self, children: Sequence[Expr]) -> "Broadcast":
        (value,) = children
        return Broadcast(value, self.lanes)


@cache_expr_hash
@dataclass(frozen=True)
class _Binary(Expr):
    """Shared shape for elementwise binary operations."""

    a: Expr
    b: Expr

    #: short operator name used by the printer, overridden per subclass
    op_name = "?"

    def __post_init__(self) -> None:
        require_same_type(self.a.type, self.b.type, type(self).__name__)

    @kept_property
    def type(self) -> Type:
        return self.a.type

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.a, self.b)

    def with_children(self, children: Sequence[Expr]):
        a, b = children
        return type(self)(a, b)


class Add(_Binary):
    op_name = "+"


class Sub(_Binary):
    op_name = "-"


class Mul(_Binary):
    op_name = "*"


class Div(_Binary):
    """Integer division, rounding toward negative infinity; x / 0 == 0."""

    op_name = "/"


class Mod(_Binary):
    """Euclidean remainder matching :class:`Div`; x % 0 == 0."""

    op_name = "%"


class Min(_Binary):
    op_name = "min"


class Max(_Binary):
    op_name = "max"


class Shl(_Binary):
    """Elementwise shift left; shift amounts are masked to the type width."""

    op_name = "<<"


class Shr(_Binary):
    """Elementwise shift right (arithmetic for signed types)."""

    op_name = ">>"


@cache_expr_hash
@dataclass(frozen=True)
class Absd(Expr):
    """Absolute difference; result is the unsigned type of the same width.

    ``absd(a, b) == max(a, b) - min(a, b)`` computed without overflow, which
    always fits in the unsigned type of the operand width.
    """

    a: Expr
    b: Expr

    def __post_init__(self) -> None:
        require_same_type(self.a.type, self.b.type, "Absd")

    @kept_property
    def type(self) -> Type:
        t = self.a.type
        unsigned = ScalarType(elem_of(t).bits, False)
        if isinstance(t, VectorType):
            return VectorType(unsigned, t.lanes)
        return unsigned

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.a, self.b)

    def with_children(self, children: Sequence[Expr]) -> "Absd":
        a, b = children
        return Absd(a, b)


@cache_expr_hash
@dataclass(frozen=True)
class Cast(Expr):
    """Elementwise conversion to ``target`` element type (C semantics).

    Narrowing truncates modulo the target width; widening sign- or
    zero-extends according to the *source* signedness.
    """

    target: ScalarType
    value: Expr

    @kept_property
    def type(self) -> Type:
        t = self.value.type
        if isinstance(t, VectorType):
            return VectorType(self.target, t.lanes)
        return self.target

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.value,)

    def with_children(self, children: Sequence[Expr]) -> "Cast":
        (value,) = children
        return Cast(self.target, value)


@cache_expr_hash
@dataclass(frozen=True)
class SaturatingCast(Expr):
    """Elementwise conversion to ``target``, clamping to its range."""

    target: ScalarType
    value: Expr

    @kept_property
    def type(self) -> Type:
        t = self.value.type
        if isinstance(t, VectorType):
            return VectorType(self.target, t.lanes)
        return self.target

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.value,)

    def with_children(self, children: Sequence[Expr]) -> "SaturatingCast":
        (value,) = children
        return SaturatingCast(self.target, value)


@cache_expr_hash
@dataclass(frozen=True)
class _Compare(Expr):
    """Shared shape for elementwise comparisons, producing bool lanes."""

    a: Expr
    b: Expr

    op_name = "?"

    def __post_init__(self) -> None:
        require_same_type(self.a.type, self.b.type, type(self).__name__)

    @kept_property
    def type(self) -> Type:
        t = self.a.type
        if isinstance(t, VectorType):
            return VectorType(BOOL, t.lanes)
        return BOOL

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.a, self.b)

    def with_children(self, children: Sequence[Expr]):
        a, b = children
        return type(self)(a, b)


class LT(_Compare):
    op_name = "<"


class LE(_Compare):
    op_name = "<="


class EQ(_Compare):
    op_name = "=="


class NE(_Compare):
    op_name = "!="


class GT(_Compare):
    op_name = ">"


class GE(_Compare):
    op_name = ">="


@cache_expr_hash
@dataclass(frozen=True)
class Select(Expr):
    """Elementwise select: lane i is ``t[i]`` where ``cond[i]`` else ``f[i]``."""

    cond: Expr
    t: Expr
    f: Expr

    def __post_init__(self) -> None:
        require_same_type(self.t.type, self.f.type, "Select arms")
        if elem_of(self.cond.type) != BOOL:
            raise TypeMismatchError("Select condition must be boolean")
        if lanes_of(self.cond.type) != lanes_of(self.t.type):
            raise TypeMismatchError("Select condition lane count mismatch")

    @kept_property
    def type(self) -> Type:
        return self.t.type

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.cond, self.t, self.f)

    def with_children(self, children: Sequence[Expr]) -> "Select":
        cond, t, f = children
        return Select(cond, t, f)


BINARY_OPS = (Add, Sub, Mul, Div, Mod, Min, Max, Shl, Shr)
COMPARE_OPS = (LT, LE, EQ, NE, GT, GE)
