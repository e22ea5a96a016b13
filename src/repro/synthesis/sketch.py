"""Abstract data movement for swizzle-free sketches (paper Section 4).

A swizzle-free sketch implements the computation with concrete machine
intrinsics while deferring data movement behind placeholder terms.  The
paper encodes placeholders as Rosette symbolic vectors; with no SMT solver
available, this reproduction replaces them by an enumerable family of
*access patterns* (DESIGN.md substitution 2) that covers the movement DSP
kernels use:

* :class:`AbstractWindow` — ``??load`` of a (possibly strided, possibly
  unaligned) element window of a buffer,
* :class:`AbstractPairWindow` — ``??load [vec-pair? #t]``: a contiguous
  double-width window (the input shape of sliding instructions),
* :class:`AbstractRows` — a pair built from two independent windows (the
  input shape of vmpa's two rows),
* :class:`AbstractSwizzle` — ``??swizzle``: a deferred re-layout
  (interleave / deinterleave) of a computed sub-expression.

During sketch verification the placeholders evaluate *optimistically*
(reading memory directly), proving that a correct data arrangement exists.
Stage 3 (:mod:`repro.synthesis.swizzle_synth`) then replaces each
placeholder with real load/shuffle instruction sequences, cheapest first —
drawn from the active target's swizzle grammar
(:meth:`repro.targets.TargetDescription.realizations`), so the
placeholders themselves are target neutral.

Placeholders subclass the shared machine-expression base
(:class:`repro.targets.nodes.HvxExpr`), are never ``concrete``, and plug
into the machine interpreter through the ``evaluate_sketch`` hook.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import EvaluationError
from ..ir import interp as ir_interp
from ..targets import nodes as N
from ..types import ScalarType

SWIZZLE_IDENTITY = "identity"
SWIZZLE_INTERLEAVE = "interleave"
SWIZZLE_DEINTERLEAVE = "deinterleave"


@N.cache_expr_hash
@dataclass(frozen=True)
class AbstractWindow(N.HvxExpr):
    """``??load``: lane ``i`` holds ``buffer[offset + i * stride]``."""

    concrete = False

    buffer: str
    offset: int
    lanes: int
    elem: ScalarType
    stride: int = 1

    @property
    def type(self) -> N.HvxType:
        return N.vec(self.elem, self.lanes)

    def evaluate_sketch(self, env: ir_interp.Environment) -> N.Vec:
        values = env.buffer(self.buffer).read(self.offset, self.lanes, self.stride)
        return N.Vec(self.elem, values)


@N.cache_expr_hash
@dataclass(frozen=True)
class AbstractPairWindow(N.HvxExpr):
    """``??load [vec-pair? #t]``: a contiguous window of ``lanes`` elements
    returned as a pair (lanes = 2 x vector lanes)."""

    concrete = False

    buffer: str
    offset: int
    lanes: int
    elem: ScalarType

    @property
    def type(self) -> N.HvxType:
        return N.pair(self.elem, self.lanes)

    def evaluate_sketch(self, env: ir_interp.Environment) -> N.VecPair:
        values = env.buffer(self.buffer).read(self.offset, self.lanes, 1)
        return N.VecPair(self.elem, values)


@N.cache_expr_hash
@dataclass(frozen=True)
class AbstractRows(N.HvxExpr):
    """``??load`` of two independent windows presented as a pair.

    This is the operand shape of ``vmpa``: ``lo`` holds one row of a
    stencil, ``hi`` another.
    """

    concrete = False

    buffer0: str
    offset0: int
    buffer1: str
    offset1: int
    lanes: int  # per row
    elem: ScalarType
    stride: int = 1

    @property
    def type(self) -> N.HvxType:
        return N.pair(self.elem, self.lanes * 2)

    def evaluate_sketch(self, env: ir_interp.Environment) -> N.VecPair:
        row0 = env.buffer(self.buffer0).read(self.offset0, self.lanes, self.stride)
        row1 = env.buffer(self.buffer1).read(self.offset1, self.lanes, self.stride)
        return N.VecPair(self.elem, row0 + row1)


@N.cache_expr_hash
@dataclass(frozen=True)
class AbstractSwizzle(N.HvxExpr):
    """``??swizzle``: a deferred re-layout of a computed pair."""

    concrete = False

    value: N.HvxExpr
    mode: str  # one of the SWIZZLE_* constants

    def __post_init__(self) -> None:
        if self.mode not in (
            SWIZZLE_IDENTITY, SWIZZLE_INTERLEAVE, SWIZZLE_DEINTERLEAVE
        ):
            raise EvaluationError(f"bad swizzle mode: {self.mode}")

    @property
    def type(self) -> N.HvxType:
        return self.value.type

    @property
    def children(self) -> tuple[N.HvxExpr, ...]:
        return (self.value,)

    def with_children(self, children):
        (value,) = children
        return AbstractSwizzle(value, self.mode)

    def evaluate_sketch(self, env: ir_interp.Environment):
        value = N.evaluate(self.value, env)
        if self.mode == SWIZZLE_IDENTITY:
            return value
        if not isinstance(value, N.VecPair):
            raise EvaluationError("swizzle re-layout applies to pairs")
        if self.mode == SWIZZLE_INTERLEAVE:
            return N.interleave(value)
        return N.deinterleave(value)


_PLACEHOLDER_KINDS = (AbstractWindow, AbstractPairWindow, AbstractRows,
                      AbstractSwizzle)


def placeholders_of(expr: N.HvxExpr) -> list[N.HvxExpr]:
    """All abstract placeholders in a sketch, outermost first (the
    pre-order of ``iter(expr)``, with repeats), walked without its
    generator and without entering a concrete subtree."""
    out = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if node.concrete:
            continue
        if isinstance(node, _PLACEHOLDER_KINDS):
            out.append(node)
        stack.extend(reversed(node.children))
    return out


def is_concrete(expr: N.HvxExpr) -> bool:
    """True when the expression contains no abstract placeholders."""
    return expr.concrete


def placeholder_summary(expr: N.HvxExpr) -> dict[str, int]:
    """Placeholder counts by kind, e.g. ``{"AbstractWindow": 2}``.

    Cheap JSON-friendly shape used as trace-span attributes by the
    swizzle synthesizer.
    """
    out: dict[str, int] = {}
    for ph in placeholders_of(expr):
        name = type(ph).__name__
        out[name] = out.get(name, 0) + 1
    return out
