"""Instruction registry and expression nodes for the HVX machine model.

Every instruction is registered as an :class:`Instruction` descriptor
carrying its type rule, semantics, resource class and latency.  Instructions
are *polymorphic over element type* the way real HVX families are (``vadd``
covers ``vaddb/vaddh/vaddw``): the type rule validates operand element types
and computes the result type, raising :class:`TypeMismatchError` for invalid
combinations — which is how the synthesis grammars prune ill-typed
candidates.

HVX *programs* are expression trees over three node kinds:

* :class:`HvxLoad` — a vector load from a named buffer at an element offset
  (aligned iff the offset is a multiple of the lane count),
* :class:`HvxSplat` — broadcast of a scalar IR expression into all lanes,
* :class:`HvxInstr` — an instruction application with child expressions and
  integer immediates.

An instruction checks its type and computes whether it is ``concrete``
(free of abstract placeholders) once, at construction, from its args'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import EvaluationError, TypeMismatchError
from ..types import ScalarType, cache_expr_hash

#: resource classes, mirroring HVX's functional units (cf. paper Section 6)
RESOURCES = ("mpy", "shift", "permute", "alu", "load", "store", "none")


@dataclass(frozen=True)
class HvxType:
    """Type of an HVX value: a vector, a vector pair, or a predicate.

    ``lanes`` is the *total* logical lane count (a pair has twice the lanes
    of each of its half vectors).
    """

    kind: str  # "vec" | "pair" | "pred"
    elem: ScalarType | None
    lanes: int

    def __post_init__(self) -> None:
        if self.kind not in ("vec", "pair", "pred"):
            raise TypeMismatchError(f"bad HVX type kind: {self.kind}")
        if self.kind == "pair" and self.lanes % 2:
            raise TypeMismatchError("pair lane count must be even")

    def __repr__(self) -> str:
        if self.kind == "pred":
            return f"pred x{self.lanes}"
        tag = "x2" if self.kind == "pair" else ""
        return f"{self.elem}x{self.lanes}{tag}"

    @property
    def is_vec(self) -> bool:
        return self.kind == "vec"

    @property
    def is_pair(self) -> bool:
        return self.kind == "pair"


def vec(elem: ScalarType, lanes: int) -> HvxType:
    return HvxType("vec", elem, lanes)


def pair(elem: ScalarType, lanes: int) -> HvxType:
    return HvxType("pair", elem, lanes)


def pred(lanes: int) -> HvxType:
    return HvxType("pred", None, lanes)


@dataclass(frozen=True)
class Instruction:
    """Descriptor for one HVX instruction family.

    ``type_fn(arg_types, imms)`` returns the result :class:`HvxType` or
    raises :class:`TypeMismatchError`.  ``sem_fn(args, imms)`` maps runtime
    values (:mod:`repro.hvx.values`) to the result value.
    """

    name: str
    arity: int
    n_imms: int
    resource: str
    latency: int
    type_fn: Callable
    sem_fn: Callable
    groups: frozenset = field(default_factory=frozenset)
    doc: str = ""

    def __post_init__(self) -> None:
        if self.resource not in RESOURCES:
            raise TypeMismatchError(f"bad resource class {self.resource!r}")


_REGISTRY: dict[str, Instruction] = {}


def define(
    name: str,
    arity: int,
    resource: str,
    type_fn: Callable,
    sem_fn: Callable,
    n_imms: int = 0,
    latency: int = 1,
    groups: Sequence[str] = (),
    doc: str = "",
) -> Instruction:
    """Register an instruction family under ``name``."""
    if name in _REGISTRY:
        raise TypeMismatchError(f"instruction {name!r} already defined")
    instr = Instruction(
        name=name,
        arity=arity,
        n_imms=n_imms,
        resource=resource,
        latency=latency,
        type_fn=type_fn,
        sem_fn=sem_fn,
        groups=frozenset(groups),
        doc=doc,
    )
    _REGISTRY[name] = instr
    return instr


def lookup(name: str) -> Instruction:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise EvaluationError(f"unknown HVX instruction: {name!r}") from None


def all_instructions() -> dict[str, Instruction]:
    """A copy of the full registry (name -> descriptor)."""
    return dict(_REGISTRY)


class HvxExpr:
    """Base class for HVX program expression nodes.

    ``concrete`` holds when no abstract placeholder
    (:mod:`repro.synthesis.sketch`) sits at or below the node: loads and
    splats are concrete, placeholders are not, and an instruction is
    concrete when all its args are.
    """

    __slots__ = ()

    concrete = True

    @property
    def type(self) -> HvxType:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def children(self) -> tuple["HvxExpr", ...]:
        return ()

    def with_children(self, children: Sequence["HvxExpr"]) -> "HvxExpr":
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
class HvxLoad(HvxExpr):
    """A vector load of ``lanes`` elements of ``elem`` from ``buffer``.

    The load is *aligned* (cheap ``vmem``) iff ``offset % lanes == 0``;
    otherwise it models an unaligned ``vmemu`` access.
    """

    buffer: str
    offset: int
    lanes: int
    elem: ScalarType

    @property
    def type(self) -> HvxType:
        return vec(self.elem, self.lanes)

    @property
    def aligned(self) -> bool:
        return self.offset % self.lanes == 0


@cache_expr_hash
@dataclass(frozen=True)
class HvxSplat(HvxExpr):
    """Broadcast a scalar IR expression into every lane (``vsplat``).

    The scalar is an expression in the *Halide* IR (a constant or a
    loop-invariant computation); it is wrapped to ``elem`` per C semantics.
    ``pairwise`` splats fill a register pair instead of a single vector.
    """

    scalar: object  # repro.ir.expr.Expr, kept loose to avoid an import cycle
    elem: ScalarType
    lanes: int
    pairwise: bool = False

    @property
    def type(self) -> HvxType:
        if self.pairwise:
            return pair(self.elem, self.lanes)
        return vec(self.elem, self.lanes)


@cache_expr_hash
@dataclass(frozen=True)
class HvxInstr(HvxExpr):
    """Application of a registered instruction to child expressions."""

    op: str
    args: tuple
    imms: tuple = ()

    def __post_init__(self) -> None:
        instr = lookup(self.op)
        if len(self.args) != instr.arity:
            raise TypeMismatchError(
                f"{self.op} expects {instr.arity} args, got {len(self.args)}"
            )
        if len(self.imms) != instr.n_imms:
            raise TypeMismatchError(
                f"{self.op} expects {instr.n_imms} immediates, got {len(self.imms)}"
            )
        # Type-check eagerly so malformed candidates never survive
        # construction; the grammar relies on this to prune.
        object.__setattr__(self, "_type", instr.type_fn(
            tuple(a.type for a in self.args), tuple(self.imms)
        ))
        object.__setattr__(self, "concrete",
                           all(a.concrete for a in self.args))

    @property
    def type(self) -> HvxType:
        return self._type  # type: ignore[attr-defined]

    @property
    def descriptor(self) -> Instruction:
        return lookup(self.op)

    @property
    def children(self) -> tuple[HvxExpr, ...]:
        return self.args

    def with_children(self, children: Sequence[HvxExpr]) -> "HvxInstr":
        return HvxInstr(self.op, tuple(children), self.imms)
