"""Plan IR and executor for the batched denotation engine.

A *plan* is the root of a shared-subtree DAG of :class:`CompiledNode`
steps.  Each step's ``fn`` maps ``(bank, child_arrays)`` to an int64
NumPy array of shape ``(envs, lanes)`` holding the node's *typed* values
— the same signed-interpretation integers the scalar interpreters pass
around (post-wrap, so every stored value lies in the node's element
range).  Evaluating a plan against a :class:`BankData` therefore denotes
the expression over every environment of the valuation bank at once.
The evaluator keeps every node value it computed on the bank it last
ran, so a node shared by several plans runs once per bank.

Exactness rules:

* wrap / saturate are implemented with masking and clipping on int64 and
  agree bit-for-bit with :meth:`repro.types.ScalarType.wrap` /
  ``saturate`` (NumPy's ``//``, ``%``, ``>>`` already match Python's
  floor-division / Euclidean-remainder / arithmetic-shift semantics);
* every lowering computes a compile-time interval for its intermediates
  and refuses (falls back) when the bound might leave int64 — so no NumPy
  overflow wraparound is ever exercised;
* nodes with element widths above 32 bits, and any op without a lowering,
  become *fallback* steps that re-enter the exact scalar interpreter per
  environment.  A fallback step is still exact, just not batched.

``EvaluationError`` behaviour matches the interpreters: all such errors
(out-of-range loads, unbound names, layout misuse) depend only on the
expression and the buffer *shapes*, which are identical across a bank's
environments, so an error raised while executing a plan means every
environment would have raised — exactly what the scalar oracle loop sees
on its first environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .. import faults, targets
from ..errors import EvaluationError
from ..hvx.isa import HvxSplat
from ..ir import expr as ir_expr
from ..trace.core import NULL_TRACER
from ..types import ScalarType
from ..uber import instructions as uber_instr

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

#: Layout strings, mirroring ``repro.synthesis.oracle``.  Kept as plain
#: literals here to avoid importing the oracle from its own fast path.
LAYOUT_INORDER = "in-order"
LAYOUT_DEINTERLEAVED = "deinterleaved"

#: Widest element a *batched* node may produce.  Wider outputs (64-bit
#: accumulators) fall back so that products and sums over them never risk
#: leaving int64.
MAX_BATCHED_BITS = 32


def fits_int64(lo: int, hi: int) -> bool:
    """True when the closed interval ``[lo, hi]`` lies inside int64."""

    return lo >= INT64_MIN and hi <= INT64_MAX


def wrap_array(arr, elem: ScalarType):
    """Two's-complement wrap of an int64 array into ``elem``'s range.

    Bit-identical to ``elem.wrap`` applied elementwise; requires
    ``elem.bits <= 32`` so the intermediate ``masked - (sign << bits)``
    stays far inside int64.
    """

    bits = elem.bits
    mask = (1 << bits) - 1
    masked = arr & mask
    if elem.signed:
        sign = (masked >> (bits - 1)) & 1
        masked = masked - (sign << bits)
    return masked


def saturate_array(arr, elem: ScalarType):
    """Clamp an int64 array into ``elem``'s range (== ``elem.saturate``)."""

    return np.clip(arr, elem.min_value, elem.max_value)


@dataclass(frozen=True)
class ValueInfo:
    """Static type of a compiled node's value matrix.

    ``kind`` is ``"vec"``, ``"pair"`` or ``"pred"``; ``elem`` is ``None``
    for predicates (stored as 0/1); ``lanes`` counts total register-order
    lanes (a pair's two halves concatenated).
    """

    kind: str
    elem: Optional[ScalarType]
    lanes: int

    def value_range(self) -> Tuple[int, int]:
        if self.elem is None:
            return (0, 1)
        return (self.elem.min_value, self.elem.max_value)


class CompiledNode:
    """One step of a plan: ``fn(bank, child_arrays) -> int64 (envs, lanes)``.

    ``pure`` holds when neither this node nor any node below it is a
    fallback step; it is set once, from the children's.
    """

    __slots__ = ("fn", "children", "info", "is_fallback", "pure")

    def __init__(self, fn: Callable, children: Tuple["CompiledNode", ...],
                 info: ValueInfo, is_fallback: bool = False) -> None:
        self.fn = fn
        self.children = children
        self.info = info
        self.is_fallback = is_fallback
        self.pure = not is_fallback and all(c.pure for c in children)


class Plan:
    """One root expression's compiled node, ready to run over a bank.

    ``claims`` records the ``(buffer, elem)`` pairs of every raw IR/uber
    load in the expression.  Those loads pass buffer contents through
    wrapped to the *view's* element type, so the compile-time range claims
    the lowerings rely on are only sound when the bank's buffers carry the
    same element types; :func:`plan_usable` enforces that before a plan is
    run (a mismatch simply keeps the scalar path, which is always exact).
    """

    __slots__ = ("root", "is_hvx", "claims")

    def __init__(self, root: CompiledNode, is_hvx: bool,
                 claims: frozenset) -> None:
        self.root = root
        self.is_hvx = is_hvx
        self.claims = claims

    @property
    def pure(self) -> bool:
        """No step of the plan re-enters a scalar interpreter."""
        return self.root.pure


def plan_usable(plan: Plan, bank: BankData) -> bool:
    """True when ``bank``'s buffer element types match the plan's claims."""

    for name, elem in plan.claims:
        entry = bank.buffers.get(name)
        if entry is not None and entry[1] != elem:
            return False
    return True


def _claim_parts(node) -> Tuple[frozenset, tuple]:
    """``(own claims, sub-expressions)`` of one expression node.

    Raw IR/uber loads claim ``(buffer, elem)``; the sub-expressions span
    all three families, including the scalar IR expressions embedded in
    ``BroadcastScalar`` / ``HvxSplat`` nodes.  HVX loads re-wrap to their
    own element type and need no claim.
    """

    if isinstance(node, (ir_expr.Load, uber_instr.LoadData)):
        return frozenset({(node.buffer, node.elem)}), tuple(node.children)
    if isinstance(node, (uber_instr.BroadcastScalar, HvxSplat)):
        return frozenset(), (node.scalar, *node.children)
    return frozenset(), tuple(node.children)


@dataclass
class BankData:
    """A valuation bank materialized as arrays.

    ``buffers`` maps name to ``(data, elem, origin)`` where ``data`` is an
    int64 matrix of shape ``(envs, length)`` holding the buffer's
    *view-element-wrapped* contents (what ``BufferView.read`` returns for
    in-range offsets).  ``scalars`` maps name to an int64 vector of raw
    environment values (``ScalarVar`` wraps at its use site, with its own
    dtype).  ``envs`` keeps the original environments for fallback steps.
    """

    n_envs: int
    envs: Sequence[object]
    buffers: Dict[str, Tuple[object, ScalarType, int]]
    scalars: Dict[str, object]
    _cache: Dict[object, object] = field(default_factory=dict, repr=False)


def read_buffer(bank: BankData, name: str, offset: int, lanes: int,
                stride: int):
    """Batched ``BufferView.read``: bounds check, then one strided slice."""

    entry = bank.buffers.get(name)
    if entry is None:
        raise EvaluationError(f"unbound buffer: {name!r}")
    data, _elem, origin = entry
    start = origin + offset
    stop = start + (lanes - 1) * stride + 1
    if start < 0 or stop > data.shape[1]:
        raise EvaluationError(
            f"read out of range on {name!r}: offsets "
            f"[{offset}, {offset + (lanes - 1) * stride}]"
        )
    return data[:, start:stop:stride]


class BatchedEvaluator:
    """Compiles expressions to plans (memoized) and runs them over banks.

    Plans are memoized by expression *value* — the expression dataclasses
    are frozen and hashable, and two equal expressions denote identically
    (buffer and scalar names are part of equality), so equal candidates in
    a wave share one plan and all of its subtree nodes.  Load claims are
    memoized per expression node, so a plan's claims cost one union over
    its root's operands.

    :meth:`denote_bank` keeps the read-only value of every node it
    evaluated on the last bank it ran on, and drops them all when a
    different bank comes: a full check that follows a lane-0 check of the
    same candidate, and sibling candidates sharing subtrees, reuse those
    values instead of recomputing them.
    """

    def __init__(self) -> None:
        self._nodes: Dict[object, CompiledNode] = {}
        self._plans: Dict[object, Optional[Plan]] = {}
        self._claims: Dict[object, frozenset] = {}
        #: the bank ``_values`` were computed on, and node -> value matrix
        self._bank: Optional[BankData] = None
        self._values: Dict[CompiledNode, object] = {}
        self.tracer = NULL_TRACER
        self.compile_errors = 0

    # -- compilation -------------------------------------------------------

    def node_for(self, expr) -> CompiledNode:
        node = self._nodes.get(expr)
        if node is None:
            node = self._compile(expr)
            self._nodes[expr] = node
        return node

    def plan_for(self, expr) -> Optional[Plan]:
        """Compile ``expr`` to a plan; ``None`` when batching cannot apply.

        ``None`` is returned for roots outside the three expression
        families, roots whose read-back cannot be represented (unsigned
        64-bit results), and — defensively — any compilation failure: the
        batched engine is a pure accelerator, so a broken lowering (or an
        injected ``eval.plan_compile`` fault) degrades that expression to
        the scalar interpreters rather than failing the query.
        """

        if expr in self._plans:
            return self._plans[expr]
        with self.tracer.span("eval.plan_compile") as sp:
            try:
                faults.fire(faults.SITE_PLAN_COMPILE, tracer=self.tracer)
                plan = self._build_plan(expr)
            except Exception as exc:
                plan = None
                self.compile_errors += 1
                if sp:
                    sp.set(error=type(exc).__name__)
            if sp:
                sp.set(batched=plan is not None,
                       pure=plan.pure if plan is not None else False)
        self._plans[expr] = plan
        return plan

    def _build_plan(self, expr) -> Optional[Plan]:
        # ``is_hvx`` historically meant "machine expression" (as opposed
        # to IR/uber); every target's family qualifies, so the layout
        # handling in denote_bank is unchanged for HVX roots.
        machine = False
        if lower_ir.family_of(expr) is None:
            machine = targets.machine_family_of(expr) is not None
            if not machine:
                return None
        root = self.node_for(expr)
        elem = root.info.elem
        if elem is not None and elem.bits > 32 and not elem.signed:
            # uint64 typed values cannot live in an int64 matrix.
            return None
        return Plan(root, is_hvx=machine, claims=self.claims_of(expr))

    def _compile(self, expr) -> CompiledNode:
        family = lower_ir.family_of(expr)
        if family == "ir":
            return lower_ir.compile_ir(expr, self)
        if family == "uber":
            return lower_ir.compile_uber(expr, self)
        family = targets.machine_family_of(expr)
        if family is not None:
            return targets.machine_compile(expr, self, family)
        raise EvaluationError(
            f"cannot compile expression of type {type(expr).__name__}"
        )

    def claims_of(self, expr) -> frozenset:
        """All ``(buffer, elem)`` pairs of raw IR/uber loads under
        ``expr`` (see :func:`_claim_parts`), memoized per node."""

        memo = self._claims
        stack = [expr]
        while stack:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            claims, subs = _claim_parts(node)
            missing = [sub for sub in subs if sub not in memo]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            for sub in subs:
                claims |= memo[sub]
            memo[node] = claims
        return memo[expr]

    # -- execution ---------------------------------------------------------

    def denote_bank(self, plan: Plan, bank: BankData,
                    layout: str = LAYOUT_INORDER):
        """Run ``plan`` over ``bank``; return a uint64 ``(envs, lanes)`` matrix.

        The result holds masked lane values exactly as ``Oracle.denote``
        produces them per environment (including the layout transform and
        the 1-bit masking of predicate results for HVX roots).  Node
        values already computed on ``bank`` are reused, not recomputed.
        """

        if bank is not self._bank:
            self._bank, self._values = bank, {}
        values = self._values
        # Children first, skipping every node whose value is kept.
        stack = [plan.root]
        while stack:
            node = stack[-1]
            if node in values:
                stack.pop()
                continue
            missing = [c for c in node.children if c not in values]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            value = node.fn(bank, [values[c] for c in node.children])
            value.flags.writeable = False
            values[node] = value
        arr = values[plan.root]
        info = plan.root.info
        if plan.is_hvx and layout == LAYOUT_DEINTERLEAVED:
            if info.kind != "pair":
                raise EvaluationError(
                    "deinterleaved layout requires a register pair result"
                )
            half = arr.shape[1] // 2
            out = np.empty((arr.shape[0], arr.shape[1]), dtype=np.int64)
            out[:, 0::2] = arr[:, :half]
            out[:, 1::2] = arr[:, half:]
            arr = out
        if info.kind == "pred":
            bits = 1
        else:
            bits = info.elem.bits
        if bits >= 64:
            return arr.astype(np.uint64)
        return (arr & ((1 << bits) - 1)).astype(np.uint64)


def make_fallback(expr, info: ValueInfo, family: str) -> CompiledNode:
    """A step that re-enters the exact scalar interpreter per environment."""

    if family == "hvx":
        from ..hvx import interp as hvx_interp

        def rows(env):
            return hvx_interp.evaluate(expr, env).values

    elif family == "uber":
        from ..uber import interp as uber_interp

        def rows(env):
            return uber_interp.evaluate(expr, env).values

    else:
        from ..ir import interp as ir_interp

        def rows(env):
            return ir_interp.evaluate_vector(expr, env)

    def fn(bank: BankData, args):
        cached = bank._cache.get(expr)
        if cached is None:
            data = [rows(env) for env in bank.envs]
            cached = np.array(data, dtype=np.int64)
            bank._cache[expr] = cached
        return cached

    return CompiledNode(fn, (), info, is_fallback=True)


# Imported last: the lowerings import this module's names.
from . import lower_ir  # noqa: E402
