"""Plan IR and executor for the batched denotation engine.

A *plan* is the root of a shared-subtree DAG of :class:`CompiledNode`
steps.  Each step's ``fn`` maps ``(bank, child_arrays)`` to an int64
NumPy array of shape ``(envs, lanes)`` holding the node's *typed* values
— the same signed-interpretation integers the scalar interpreters pass
around (post-wrap, so every stored value lies in the node's element
range).  Evaluating a plan against a :class:`BankData` therefore denotes
the expression over every environment of the valuation bank at once.
The evaluator keeps every node value it computed on the bank it last
ran, so a node shared by several plans runs once per bank, and carries
them to the next bank when that bank covers the last one
(:meth:`BankData.covers`).

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
  environment.  A fallback step is still exact, just not batched.  A root
  the lowerings cannot batch as a whole becomes one fallback step, so
  every expression has a plan (:meth:`BatchedEvaluator.plan_for`).
* a bank stores each buffer in its element's own dtype, which
  :func:`read_buffer` widens to int64, so every node computes in int64.
  u64 buffers and scalars outside int64 are stored as int64 bit patterns.
  Only loads that re-wrap to at most 32 bits and fallback steps read them,
  and a u64 result's lanes are such bit patterns too, which
  :meth:`BatchedEvaluator.denote_bank` reads back as uint64.

``EvaluationError`` behaviour matches the interpreters: all such errors
(out-of-range loads, unbound names, layout misuse) depend only on the
expression and the buffer *shapes*, which are identical across a bank's
environments, so an error raised while executing a plan means every
environment would have raised — exactly what the scalar interpreters
raise on the bank's first environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .. import faults
from ..errors import EvaluationError
from ..hvx.isa import HvxExpr, HvxInstr, HvxSplat
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
    same element types; :meth:`BatchedEvaluator.plan_on` runs the root's
    fallback step instead on a bank whose buffers do not (a fallback step
    claims nothing: it reads the environments).
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

    ``buffers`` maps name to ``(data, elem, origin)`` where ``data`` is a
    read-only matrix of shape ``(envs, length)`` holding the buffer's
    *view-element-wrapped* contents (what ``BufferView.read`` returns for
    in-range offsets) in ``elem``'s own dtype: a u8 buffer's as uint8, an
    i16 buffer's as int16, and 64-bit buffers' as int64 (a u64 buffer's as
    bit patterns).  :func:`read_buffer`, its only reader, widens what it
    reads to int64.  ``scalars`` maps name to an int64 vector of raw
    environment values, as bit patterns where they leave int64
    (``ScalarVar`` wraps at its use site, with its own dtype).  ``rounds``
    is the ``(style, seed)`` of each row, in row order.  ``envs`` are the
    bank's environments, for fallback steps; ``make_envs`` builds them the
    first time they are read.
    """

    rounds: Tuple[Tuple[str, int], ...]
    buffers: Dict[str, Tuple[object, ScalarType, int]]
    scalars: Dict[str, object]
    make_envs: Callable[[], list] = field(repr=False)
    _envs: Optional[list] = field(default=None, repr=False)
    _cache: Dict[object, object] = field(default_factory=dict, repr=False)

    @property
    def n_envs(self) -> int:
        return len(self.rounds)

    @property
    def envs(self) -> list:
        """The bank's environments, built on first use."""
        if self._envs is None:
            self._envs = self.make_envs()
        return self._envs

    def covers(self, other: "BankData") -> bool:
        """Every node value computed on ``other`` is the value computed
        on this bank.

        Holds when the rows are the same ``(style, seed)`` rounds, every
        buffer of ``other`` is bound here with the same element type over
        a span containing ``other``'s, and every scalar of ``other`` is
        bound here to an equal vector.  A buffer's value at an offset
        depends only on its name, type, style, seed and offset, and a
        read in range on ``other`` is in range here, so a node computes
        the same matrix on both.
        """
        if self.rounds != other.rounds:
            return False
        for name, (data, elem, origin) in other.buffers.items():
            entry = self.buffers.get(name)
            if entry is None:
                return False
            mine, my_elem, my_origin = entry
            if (my_elem != elem or my_origin < origin
                    or mine.shape[1] - my_origin < data.shape[1] - origin):
                return False
        for name, values in other.scalars.items():
            mine = self.scalars.get(name)
            if mine is None or not np.array_equal(mine, values):
                return False
        return True


def read_buffer(bank: BankData, name: str, offset: int, lanes: int,
                stride: int):
    """Batched ``BufferView.read``: bounds check, then one strided slice,
    widened to int64."""

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
    return data[:, start:stop:stride].astype(np.int64, copy=False)


class BatchedEvaluator:
    """Compiles expressions to plans (memoized) and runs them over banks.

    Plans are memoized by expression *value* — the expression dataclasses
    are frozen and hashable, and two equal expressions denote identically
    (buffer and scalar names are part of equality), so equal candidates in
    a wave share one plan and all of its subtree nodes.  Load claims are
    memoized per expression node, so a plan's claims cost one union over
    its root's operands.

    :meth:`denote_bank` keeps the read-only value of every node it
    evaluated on the last bank it ran on: a full check that follows a
    lane-0 check of the same candidate, and sibling candidates sharing
    subtrees, reuse those values instead of recomputing them.  A bank that
    covers the last one (:meth:`BankData.covers`) keeps them too, so
    lifting's parent specs, whose footprints cover their children's, reuse
    their children's node values; any other bank drops them all.
    """

    def __init__(self) -> None:
        self._nodes: Dict[object, CompiledNode] = {}
        self._plans: Dict[object, Plan] = {}
        #: expression -> its whole-root fallback plan
        self._fallbacks: Dict[object, Plan] = {}
        self._claims: Dict[object, frozenset] = {}
        #: the last bank denoted on, and node -> value matrix on it
        #: (computed on it or on banks it covers)
        self._bank: Optional[BankData] = None
        self._values: Dict[CompiledNode, object] = {}
        self.tracer = NULL_TRACER

    # -- compilation -------------------------------------------------------

    def node_for(self, expr) -> CompiledNode:
        node = self._nodes.get(expr)
        if node is None:
            node = self._compile(expr)
            self._nodes[expr] = node
        return node

    def plan_for(self, expr) -> Plan:
        """Compile ``expr`` to a plan (memoized); never ``None``.

        The lowerings make every node they cannot batch a fallback step,
        so a root wider than 32 bits (a u64 result among them) is one.
        Any compilation failure — a broken lowering, or an injected
        ``eval.plan_compile`` fault — makes the whole root one fallback
        step (:meth:`fallback_plan`), so the plan compiler can fail no
        query the scalar interpreters answer.  ``is_hvx`` marks every
        machine expression, whatever its target, for ``denote_bank``'s
        layout handling.
        """

        plan = self._plans.get(expr)
        if plan is None:
            with self.tracer.span("eval.plan_compile") as sp:
                try:
                    faults.fire(faults.SITE_PLAN_COMPILE, tracer=self.tracer)
                    plan = Plan(self.node_for(expr),
                                is_hvx=isinstance(expr, HvxExpr),
                                claims=self.claims_of(expr))
                except Exception as exc:
                    plan = self.fallback_plan(expr)
                    if sp:
                        sp.set(error=type(exc).__name__)
                if sp:
                    sp.set(pure=plan.pure)
            self._plans[expr] = plan
        return plan

    def fallback_plan(self, expr) -> Plan:
        """``expr`` as one fallback step (memoized): its scalar
        interpreter per environment, exact on any bank, with no claims."""

        plan = self._fallbacks.get(expr)
        if plan is None:
            machine = isinstance(expr, HvxExpr)
            family = "hvx" if machine else lower_ir.family_of(expr)
            info_of = {"hvx": lower_hvx._info_hvx, "ir": lower_ir._info_ir,
                       "uber": lower_ir._info_uber}.get(family)
            if info_of is None:
                raise EvaluationError(
                    f"cannot denote {type(expr).__name__}")
            root = make_fallback(expr, info_of(expr), family)
            plan = self._fallbacks[expr] = Plan(root, is_hvx=machine,
                                                claims=frozenset())
        return plan

    def plan_on(self, expr, bank: BankData) -> Plan:
        """The plan to run ``expr`` on ``bank``: :meth:`plan_for`'s, or
        the whole-root :meth:`fallback_plan` when ``bank``'s buffers do
        not carry the element types the plan's raw loads claim (the
        compile-time ranges would be unsound)."""

        plan = self.plan_for(expr)
        for name, elem in plan.claims:
            entry = bank.buffers.get(name)
            if entry is not None and entry[1] != elem:
                return self.fallback_plan(expr)
        return plan

    def _compile(self, expr) -> CompiledNode:
        family = lower_ir.family_of(expr)
        if family == "ir":
            return lower_ir.compile_ir(expr, self)
        if family == "uber":
            return lower_ir.compile_uber(expr, self)
        # Neon instructions carry the ``neon.`` prefix; every other machine
        # node (including the shared loads, splats, renames and
        # placeholders inside a Neon tree) lowers through the HVX builders,
        # which are target neutral for those nodes.
        if isinstance(expr, HvxInstr) and expr.op.startswith(
                lower_neon.PREFIX):
            return lower_neon.compile_neon(expr, self)
        if isinstance(expr, HvxExpr):
            return lower_hvx.compile_hvx(expr, self)
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
        values already computed on ``bank``, or on a bank it covers, are
        reused, not recomputed.
        """

        if bank is not self._bank:
            if self._bank is None or not bank.covers(self._bank):
                self._values = {}
            self._bank = bank
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
            return uber_interp.evaluate(expr, env)

    else:
        from ..ir import interp as ir_interp

        def rows(env):
            return ir_interp.evaluate_vector(expr, env)

    # u64 lanes are kept as int64 bit patterns (see BankData)
    elem = info.elem
    dtype = np.uint64 if elem is not None and elem.bits == 64 \
        and not elem.signed else np.int64

    def fn(bank: BankData, args):
        cached = bank._cache.get(expr)
        if cached is None:
            data = [rows(env) for env in bank.envs]
            cached = np.array(data, dtype=dtype).view(np.int64)
            bank._cache[expr] = cached
        return cached

    return CompiledNode(fn, (), info, is_fallback=True)


# Imported last: the lowerings import this module's names.
from . import lower_hvx, lower_ir, lower_neon  # noqa: E402
