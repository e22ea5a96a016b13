"""Uber-Instruction IR node definitions (paper Section 3).

Each uber-instruction unifies a family of related HVX intrinsics by
implementing their common high-level compute pattern (Figure 6 of the paper
shows the Racket originals).  The IR is *layout-free*: uber expressions
always denote logical, in-order lane sequences; data movement appears only
after lowering.

The derived set for HVX:

================  ==========================================================
uber-instruction  unifies (examples)
================  ==========================================================
vs-mpy-add        vadd, vmpy(vs), vmpyi, vmpa, vdmpy, vtmpy, vrmpy + accs
vv-mpy-add        vmpy(vv), vmpy_acc, vmpyie/vmpyio, vrmpy(vv)
widen             vzxt, vsxt, vmpy by 1
narrow            vpacke/o, vpackub, vsat, vasrn*, vshuffeb (fused
                  shift/round/saturate downcasts)
abs-diff          vabsdiff
minimum/maximum   vmin, vmax
average           vavg, vavg_rnd, vnavg
shift-right       vasr, vlsr, vasr_rnd
mux               vcmp_* + vmux
broadcast         vsplat
load-data         vmem/vmemu + swizzles
================  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import TypeMismatchError
from ..types import ScalarType, VectorType, cache_expr_hash, kept_property
from ..ir import expr as ir_expr


class UberExpr:
    """Base class of uber-instruction IR nodes."""

    __slots__ = ()

    @property
    def type(self) -> VectorType:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def children(self) -> tuple["UberExpr", ...]:
        return ()

    def with_children(self, children: Sequence["UberExpr"]) -> "UberExpr":
        if children:
            raise TypeMismatchError(f"{type(self).__name__} takes no children")
        return self

    def __iter__(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@cache_expr_hash
@dataclass(frozen=True)
class LoadData(UberExpr):
    """``load-data``: a read of ``lanes`` buffer elements (lane ``i`` reads
    element ``offset + i * stride``).

    In the Uber-Instruction IR this stands for "the data is available";
    how it reaches registers (alignment, shuffling) is synthesized later.
    """

    buffer: str
    offset: int
    lanes: int
    elem: ScalarType
    stride: int = 1

    @kept_property
    def type(self) -> VectorType:
        return VectorType(self.elem, self.lanes)

    @property
    def extent(self) -> int:
        return (self.lanes - 1) * self.stride + 1


@cache_expr_hash
@dataclass(frozen=True)
class BroadcastScalar(UberExpr):
    """``broadcast``: splat a loop-invariant scalar IR expression."""

    scalar: ir_expr.Expr
    elem: ScalarType
    lanes: int

    @kept_property
    def type(self) -> VectorType:
        return VectorType(self.elem, self.lanes)


@cache_expr_hash
@dataclass(frozen=True)
class Widen(UberExpr):
    """``widen``: numeric conversion to a wider element type."""

    value: UberExpr
    out_elem: ScalarType

    def __post_init__(self) -> None:
        if self.out_elem.bits < self.value.type.elem.bits:
            raise TypeMismatchError("widen cannot shrink the element type")

    @kept_property
    def type(self) -> VectorType:
        return VectorType(self.out_elem, self.value.type.lanes)

    @property
    def children(self) -> tuple[UberExpr, ...]:
        return (self.value,)

    def with_children(self, children):
        (value,) = children
        return Widen(value, self.out_elem)


@cache_expr_hash
@dataclass(frozen=True)
class VsMpyAdd(UberExpr):
    """``vs-mpy-add``: weighted sum of vectors with scalar weights.

    ``out[i] = reduce(sum_j widen(reads[j][i]) * weights[j])`` where widening
    is numeric (value-preserving) into ``out_elem``, the sum is exact, and
    ``reduce`` wraps or saturates to ``out_elem`` per the ``saturate`` flag.

    The weight vector doubles as the pattern length (paper Figure 9): the
    lifting algorithm grows it via *update* steps.
    """

    reads: tuple
    weights: tuple
    saturate: bool
    out_elem: ScalarType

    def __post_init__(self) -> None:
        if len(self.reads) != len(self.weights):
            raise TypeMismatchError("vs-mpy-add needs one weight per read")
        if not self.reads:
            raise TypeMismatchError("vs-mpy-add needs at least one operand")
        lanes = self.reads[0].type.lanes
        for r in self.reads:
            if r.type.lanes != lanes:
                raise TypeMismatchError("vs-mpy-add operands must share lanes")

    @kept_property
    def type(self) -> VectorType:
        return VectorType(self.out_elem, self.reads[0].type.lanes)

    @property
    def children(self) -> tuple[UberExpr, ...]:
        return self.reads

    def with_children(self, children):
        return VsMpyAdd(tuple(children), self.weights, self.saturate,
                        self.out_elem)


@cache_expr_hash
@dataclass(frozen=True)
class VvMpyAdd(UberExpr):
    """``vv-mpy-add``: sum of elementwise vector*vector products.

    ``out[i] = reduce(acc[i] + sum_j widen(a_j[i]) * widen(b_j[i]))``.
    ``acc`` may be None.  Unifies the vector-by-vector multiply families
    including the accumulating forms.
    """

    pairs: tuple  # tuple of (UberExpr, UberExpr)
    acc: UberExpr | None
    saturate: bool
    out_elem: ScalarType

    def __post_init__(self) -> None:
        if not self.pairs:
            raise TypeMismatchError("vv-mpy-add needs at least one pair")
        lanes = self.pairs[0][0].type.lanes
        for a, b in self.pairs:
            if a.type.lanes != lanes or b.type.lanes != lanes:
                raise TypeMismatchError("vv-mpy-add operands must share lanes")
        if self.acc is not None and self.acc.type.lanes != lanes:
            raise TypeMismatchError("vv-mpy-add accumulator lane mismatch")

    @kept_property
    def type(self) -> VectorType:
        return VectorType(self.out_elem, self.pairs[0][0].type.lanes)

    @property
    def children(self) -> tuple[UberExpr, ...]:
        flat: list[UberExpr] = []
        for a, b in self.pairs:
            flat.extend((a, b))
        if self.acc is not None:
            flat.append(self.acc)
        return tuple(flat)

    def with_children(self, children):
        children = list(children)
        acc = children.pop() if self.acc is not None else None
        pairs = tuple(
            (children[2 * i], children[2 * i + 1])
            for i in range(len(self.pairs))
        )
        return VvMpyAdd(pairs, acc, self.saturate, self.out_elem)


@cache_expr_hash
@dataclass(frozen=True)
class Narrow(UberExpr):
    """``narrow``: fused shift-right / round / saturate downcast.

    ``out[i] = convert(((x + rnd) >> shift))`` where ``rnd`` is the rounding
    bias when ``round`` is set and ``convert`` is a wrapping or saturating
    conversion to ``out_elem``.
    """

    value: UberExpr
    out_elem: ScalarType
    shift: int = 0
    round: bool = False
    saturate: bool = False

    def __post_init__(self) -> None:
        if self.shift < 0 or self.shift >= self.value.type.elem.bits:
            raise TypeMismatchError(f"narrow shift {self.shift} out of range")

    @kept_property
    def type(self) -> VectorType:
        return VectorType(self.out_elem, self.value.type.lanes)

    @property
    def children(self) -> tuple[UberExpr, ...]:
        return (self.value,)

    def with_children(self, children):
        (value,) = children
        return Narrow(value, self.out_elem, self.shift, self.round,
                      self.saturate)


@cache_expr_hash
@dataclass(frozen=True)
class AbsDiff(UberExpr):
    """``abs-diff``: elementwise absolute difference (unsigned result)."""

    a: UberExpr
    b: UberExpr

    def __post_init__(self) -> None:
        if self.a.type != self.b.type:
            raise TypeMismatchError("abs-diff operands must match")

    @kept_property
    def type(self) -> VectorType:
        t = self.a.type
        return VectorType(ScalarType(t.elem.bits, False), t.lanes)

    @property
    def children(self) -> tuple[UberExpr, ...]:
        return (self.a, self.b)

    def with_children(self, children):
        a, b = children
        return AbsDiff(a, b)


@cache_expr_hash
@dataclass(frozen=True)
class _UberBinary(UberExpr):
    a: UberExpr
    b: UberExpr

    def __post_init__(self) -> None:
        if self.a.type != self.b.type:
            raise TypeMismatchError(f"{type(self).__name__} operands must match")

    @kept_property
    def type(self) -> VectorType:
        return self.a.type

    @property
    def children(self) -> tuple[UberExpr, ...]:
        return (self.a, self.b)

    def with_children(self, children):
        a, b = children
        return type(self)(a, b)


class Minimum(_UberBinary):
    """``minimum``: elementwise min (unifies the vmin family)."""


class Maximum(_UberBinary):
    """``maximum``: elementwise max (unifies the vmax family)."""


@cache_expr_hash
@dataclass(frozen=True)
class Average(_UberBinary):
    """``average``: halving add ``(a + b (+1)) >> 1`` without overflow."""

    round: bool = False

    def with_children(self, children):
        a, b = children
        return Average(a, b, self.round)


@cache_expr_hash
@dataclass(frozen=True)
class ShiftRight(UberExpr):
    """``shift-right``: same-width arithmetic shift with optional rounding."""

    value: UberExpr
    shift: int
    round: bool = False

    def __post_init__(self) -> None:
        if self.shift < 0 or self.shift >= self.value.type.elem.bits:
            raise TypeMismatchError(f"shift {self.shift} out of range")

    @kept_property
    def type(self) -> VectorType:
        return self.value.type

    @property
    def children(self) -> tuple[UberExpr, ...]:
        return (self.value,)

    def with_children(self, children):
        (value,) = children
        return ShiftRight(value, self.shift, self.round)


@cache_expr_hash
@dataclass(frozen=True)
class Mux(UberExpr):
    """``mux``: elementwise select driven by a comparison ``a <op> b``."""

    op: str  # "gt" | "eq" | "lt"
    a: UberExpr
    b: UberExpr
    t: UberExpr
    f: UberExpr

    def __post_init__(self) -> None:
        if self.op not in ("gt", "eq", "lt"):
            raise TypeMismatchError(f"bad mux comparison: {self.op}")
        if self.a.type != self.b.type:
            raise TypeMismatchError("mux comparison operands must match")
        if self.t.type != self.f.type:
            raise TypeMismatchError("mux arms must match")
        if self.t.type.lanes != self.a.type.lanes:
            raise TypeMismatchError("mux lane count mismatch")

    @kept_property
    def type(self) -> VectorType:
        return self.t.type

    @property
    def children(self) -> tuple[UberExpr, ...]:
        return (self.a, self.b, self.t, self.f)

    def with_children(self, children):
        a, b, t, f = children
        return Mux(self.op, a, b, t, f)


UBER_INSTRUCTION_NAMES = (
    "load-data", "broadcast", "widen", "vs-mpy-add", "vv-mpy-add", "narrow",
    "abs-diff", "minimum", "maximum", "average", "shift-right", "mux",
)


def uber_name(node: UberExpr) -> str:
    """The paper-style name of a node's uber-instruction."""
    return {
        LoadData: "load-data",
        BroadcastScalar: "broadcast",
        Widen: "widen",
        VsMpyAdd: "vs-mpy-add",
        VvMpyAdd: "vv-mpy-add",
        Narrow: "narrow",
        AbsDiff: "abs-diff",
        Minimum: "minimum",
        Maximum: "maximum",
        Average: "average",
        ShiftRight: "shift-right",
        Mux: "mux",
    }[type(node)]
