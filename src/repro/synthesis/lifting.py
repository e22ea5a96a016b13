"""Stage 1 — lifting Halide IR to the Uber-Instruction IR (Algorithm 1).

Bottom-up enumerative synthesis: every sub-expression is lifted first, then
the node itself is lifted by trying, in order,

* **update** — modify the parameters of the root uber-instruction of one
  lifted sub-expression (grow a vs-mpy-add kernel, toggle a saturate flag),
* **replace** — swap the root uber-instruction of a lifted sub-expression
  for a different one (widen -> vs-mpy-add),
* **extend** — wrap the lifted sub-expressions in a new uber-instruction.

Every candidate is validated by the equivalence oracle; nothing is accepted
on syntactic grounds alone.  The greedy fold of each new IR operation into
the existing uber expression mirrors the paper's scalability argument: each
query adds or modifies at most one uber-instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..errors import TypeMismatchError, UnsupportedExpressionError
from ..ir import expr as E
from ..ir import printer as ir_printer
from ..ir.simplify import simplify as ir_simplify
from ..types import ScalarType
from ..uber import instructions as U
from ..uber import printer as uber_printer
from .oracle import LAYOUT_INORDER, Oracle


@dataclass(frozen=True)
class LiftStep:
    """One successful lifting step, for Figure 9-style traces."""

    rule: str  # "update" | "replace" | "extend"
    source: str  # Halide IR rendering
    result: str  # Uber IR rendering


def render_steps(steps) -> list[LiftStep]:
    """The :class:`LiftStep` of each ``(rule, IR node, lifted node)``."""
    return [LiftStep(rule, ir_printer.to_string(source),
                     uber_printer.to_string(result))
            for rule, source, result in steps]


@dataclass
class Lifter:
    """Runs Algorithm 1 over one IR expression.

    Each successful step is recorded as ``(rule, IR node, lifted node)``
    and rendered only when :attr:`trace` is read.
    """

    oracle: Oracle
    max_narrow_descendants: int = 24
    _cache: dict = field(default_factory=dict)
    steps: list = field(default_factory=list, repr=False)

    @property
    def trace(self) -> list[LiftStep]:
        """The Figure 9 trace of every step so far, rendered now."""
        return render_steps(self.steps)

    # -- public API --------------------------------------------------------

    def lift(self, expr: E.Expr,
             banned: frozenset = frozenset()) -> U.UberExpr:
        """Lift ``expr`` to the Uber-Instruction IR or raise.

        ``banned`` lists lifted forms that downstream lowering rejected;
        the search skips them and accepts the next equivalent candidate
        (greedy lifting with lowering-failure backtracking).
        """
        expr = ir_simplify(expr)
        with self.oracle.stats.stage("lifting"), \
                self.oracle.tracer.span("lifting") as sp:
            if sp:
                sp.set(expr_hash=f"{hash(expr) & 0xFFFFFFFF:08x}",
                       expr=ir_printer.to_string(expr),
                       banned=len(banned))
            lifted = self._lift(expr, banned)
            if sp:
                sp.set(steps=len(self.steps), lifted=lifted is not None)
        if lifted is None:
            raise UnsupportedExpressionError(
                f"cannot lift: {ir_printer.to_string(expr)}"
            )
        return lifted

    # -- recursive driver --------------------------------------------------

    def _lift(self, e: E.Expr,
              banned: frozenset = frozenset()) -> U.UberExpr | None:
        if not banned and e in self._cache:
            return self._cache[e]
        with self.oracle.tracer.span(
            "lifting.node", node=type(e).__name__
        ) as sp:
            for child in e.children:
                self._lift(child)

            lifted = self._lift_leaf(e)
            rule_used = "extend" if lifted is None else "leaf"
            if lifted is None:
                batch = []
                for rule, candidate in self._safe_candidates(e):
                    if candidate is None or candidate in banned:
                        continue
                    if candidate.type.lanes != E.lanes_of(e.type):
                        continue
                    batch.append((rule, candidate))
                if sp:
                    sp.set(candidates=len(batch))
                for rule, candidate in batch:
                    if self.oracle.equivalent(e, candidate, LAYOUT_INORDER):
                        rule_used, lifted = rule, candidate
                        break
            if lifted is not None:
                if sp:
                    sp.set(rule=rule_used)
                if rule_used == "leaf":
                    rule_used = "extend"
                self.steps.append((rule_used, e, lifted))
        self._cache[e] = lifted
        return lifted

    def _safe_candidates(self, e: E.Expr):
        """Iterate ``_candidates`` with construction errors truncating the
        stream: a generator that trips a type-check mid-enumeration ends the
        batch at the last well-formed candidate instead of aborting the
        whole lift."""
        gen = self._candidates(e)
        while True:
            try:
                yield next(gen)
            except StopIteration:
                return
            except TypeMismatchError:
                return

    def _lift_leaf(self, e: E.Expr) -> U.UberExpr | None:
        if isinstance(e, E.Load) and e.lanes > 1:
            return U.LoadData(e.buffer, e.offset, e.lanes, e.elem, e.stride)
        if isinstance(e, E.Broadcast):
            return U.BroadcastScalar(e.value, E.elem_of(e.type), e.lanes)
        return None

    # -- candidate generation ---------------------------------------------

    def _candidates(self, e: E.Expr) -> Iterator[tuple[str, U.UberExpr | None]]:
        """Yield (rule, candidate) pairs in update/replace/extend order."""
        gen = {
            E.Add: self._lift_add_sub,
            E.Sub: self._lift_add_sub,
            E.Mul: self._lift_mul,
            E.Shl: self._lift_shl,
            E.Shr: self._lift_shr,
            E.Div: self._lift_div,
            E.Cast: self._lift_cast,
            E.SaturatingCast: self._lift_cast,
            E.Absd: self._lift_absd,
            E.Min: self._lift_minmax,
            E.Max: self._lift_minmax,
            E.Select: self._lift_select,
        }.get(type(e))
        if gen is None:
            return
        yield from gen(e)

    # Helpers ---------------------------------------------------------------

    def _lifted(self, e: E.Expr) -> U.UberExpr | None:
        return self._cache.get(e)

    @staticmethod
    def _strip_widen(u: U.UberExpr | None) -> U.UberExpr | None:
        """Peel a widen so the operand feeds a widening uber-instruction."""
        if isinstance(u, U.Widen):
            return u.value
        return u

    @staticmethod
    def _broadcast_const(e: E.Expr) -> int | None:
        """The constant behind a broadcast (or scalar const), if any."""
        if isinstance(e, E.Broadcast):
            e = e.value
        if isinstance(e, E.Const):
            return e.value
        return None

    @staticmethod
    def _as_mpyadd_read(u: U.UberExpr | None, out_elem: ScalarType):
        """An operand usable as a vs-mpy-add read feeding ``out_elem``.

        Widens are absorbed by the uber-instruction's own numeric widening;
        wider-than-output operands cannot be reads.
        """
        if u is None:
            return None
        if isinstance(u, U.Widen):
            u = u.value
        if u.type.elem.bits > out_elem.bits:
            return None
        return u

    # Add / Sub --------------------------------------------------------------

    def _lift_add_sub(self, e: E.Expr):
        sign = 1 if isinstance(e, E.Add) else -1
        out = E.elem_of(e.type)
        la, lb = self._lifted(e.a), self._lifted(e.b)

        sides = [(la, lb, 1, sign), (lb, la, sign, 1)]
        # UPDATE: fold the other operand into an existing vs-mpy-add kernel.
        for base, other, base_sign, other_sign in sides:
            if isinstance(base, U.VsMpyAdd) and not base.saturate \
                    and base.out_elem == out and base_sign == 1:
                read = self._as_mpyadd_read(other, out)
                if read is not None:
                    if isinstance(other, U.VsMpyAdd) and not other.saturate \
                            and other.out_elem == out:
                        yield "update", U.VsMpyAdd(
                            base.reads + other.reads,
                            base.weights + tuple(
                                other_sign * w for w in other.weights
                            ),
                            False, out,
                        )
                    else:
                        yield "update", U.VsMpyAdd(
                            base.reads + (read,),
                            base.weights + (other_sign,),
                            False, out,
                        )
            # UPDATE: attach an accumulator to a vv-mpy-add.
            if isinstance(base, U.VvMpyAdd) and base.acc is None \
                    and not base.saturate and base.out_elem == out \
                    and base_sign == 1 and other_sign == 1 \
                    and other is not None and other.type.elem == out:
                yield "update", U.VvMpyAdd(base.pairs, other, False, out)
            # UPDATE: merge two vv-mpy-adds.
            if isinstance(base, U.VvMpyAdd) and isinstance(other, U.VvMpyAdd) \
                    and not base.saturate and not other.saturate \
                    and base.out_elem == other.out_elem == out \
                    and other.acc is None and base_sign == other_sign == 1:
                yield "update", U.VvMpyAdd(
                    base.pairs + other.pairs, base.acc, False, out
                )

        # REPLACE/EXTEND: a fresh vs-mpy-add over both operands.
        ra = self._as_mpyadd_read(la, out)
        rb = self._as_mpyadd_read(lb, out)
        if ra is not None and rb is not None:
            rule = (
                "replace"
                if isinstance(la, U.Widen) or isinstance(lb, U.Widen)
                else "extend"
            )
            yield rule, U.VsMpyAdd((ra, rb), (1, sign), False, out)

    # Mul ---------------------------------------------------------------------

    def _lift_mul(self, e: E.Mul):
        out = E.elem_of(e.type)
        for vec_side, scl_side in ((e.a, e.b), (e.b, e.a)):
            c = self._broadcast_const(scl_side)
            if c is None:
                continue
            lv = self._lifted(vec_side)
            # UPDATE: scale an existing kernel.
            if isinstance(lv, U.VsMpyAdd) and not lv.saturate \
                    and lv.out_elem == out:
                yield "update", U.VsMpyAdd(
                    lv.reads, tuple(w * c for w in lv.weights), False, out
                )
            read = self._as_mpyadd_read(lv, out)
            if read is not None:
                rule = "replace" if isinstance(lv, U.Widen) else "extend"
                yield rule, U.VsMpyAdd((read,), (c,), False, out)
            return  # constant multiply handled; don't fall through

        # Vector * vector (or runtime-scalar broadcast): vv-mpy-add.
        la, lb = self._lifted(e.a), self._lifted(e.b)
        pa = self._as_mpyadd_read(la, out)
        pb = self._as_mpyadd_read(lb, out)
        if pa is not None and pb is not None:
            yield "extend", U.VvMpyAdd(((pa, pb),), None, False, out)

    # Shifts ------------------------------------------------------------------

    def _lift_shl(self, e: E.Shl):
        out = E.elem_of(e.type)
        n = self._broadcast_const(e.b)
        if n is None or n < 0:
            return
        c = 1 << n
        lv = self._lifted(e.a)
        if isinstance(lv, U.VsMpyAdd) and not lv.saturate and lv.out_elem == out:
            yield "update", U.VsMpyAdd(
                lv.reads, tuple(w * c for w in lv.weights), False, out
            )
        read = self._as_mpyadd_read(lv, out)
        if read is not None:
            rule = "replace" if isinstance(lv, U.Widen) else "extend"
            yield rule, U.VsMpyAdd((read,), (c,), False, out)

    def _lift_shr(self, e: E.Shr):
        n = self._broadcast_const(e.b)
        if n is None or n <= 0:
            return
        la = self._lifted(e.a)
        # REPLACE: rounding shift — the +bias is folded into round?=#t.
        if isinstance(e.a, E.Add):
            bias = self._broadcast_const(e.a.b)
            if bias == (1 << (n - 1)):
                inner = self._lifted(e.a.a)
                if inner is not None:
                    if n == 1:
                        yield from self._average_candidates(e.a.a, round_=True)
                    yield "replace", U.ShiftRight(inner, n, round=True)
        if n == 1:
            yield from self._average_candidates(e.a, round_=False)
        if la is not None:
            yield "extend", U.ShiftRight(la, n, round=False)

    def _average_candidates(self, summed: E.Expr, round_: bool):
        """average(a, b): candidates for (a + b (+1)) >> 1 shapes."""
        if not isinstance(summed, E.Add):
            return
        pa, pb = self._lifted(summed.a), self._lifted(summed.b)
        if pa is not None and pb is not None and pa.type == pb.type:
            yield "replace", U.Average(pa, pb, round_)

    def _lift_div(self, e: E.Div):
        c = self._broadcast_const(e.b)
        if c is None or c <= 0 or c & (c - 1):
            return
        la = self._lifted(e.a)
        if la is not None:
            yield "extend", U.ShiftRight(la, c.bit_length() - 1, round=False)

    # Casts ---------------------------------------------------------------------

    def _lift_cast(self, e: E.Expr):
        target = e.target
        saturating = isinstance(e, E.SaturatingCast)
        source_elem = E.elem_of(e.value.type)
        lx = self._lifted(e.value)

        if target.bits > source_elem.bits:
            # UPDATE: re-type an existing mpy-add directly to the wider type.
            if isinstance(lx, U.VsMpyAdd):
                yield "update", U.VsMpyAdd(
                    lx.reads, lx.weights, lx.saturate, target
                )
            if lx is not None:
                yield "extend", U.Widen(lx, target)
            return

        # Narrowing (or same-width) conversions: enumerate fused forms over
        # descendants — shift amounts, rounding and saturation flags.  The
        # oracle rejects every unsound combination.
        yield from self._narrow_candidates(e.value, target, saturating)

    def _narrow_candidates(self, x: E.Expr, target: ScalarType, sat_cast: bool):
        # Averages first: a narrow of a widened rounding average is an
        # average at the narrow width — a single vavg on the target.
        root = self._lifted(x)
        if isinstance(root, U.Average):
            sa = self._strip_widen(root.a)
            sb = self._strip_widen(root.b)
            if sa is not None and sb is not None \
                    and sa.type == sb.type and sa.type.elem == target:
                yield "replace", U.Average(sa, sb, root.round)

        descendants = []
        for node in x:
            if E.lanes_of(node.type) != E.lanes_of(x.type):
                continue
            if E.elem_of(node.type).bits < target.bits:
                continue
            descendants.append(node)
            if len(descendants) >= self.max_narrow_descendants:
                break
        # Shift amounts present in the expression (plus zero).
        shifts = {0}
        for node in x:
            if isinstance(node, (E.Shr,)):
                n = self._broadcast_const(node.b)
                if n is not None and 0 < n < E.elem_of(node.type).bits:
                    shifts.add(n)

        # Prefer deeper descendants (more operations fused away) and
        # saturating forms when the cast saturates.
        sat_order = (True, False) if sat_cast else (False, True)
        seen: set = set()
        for desc in reversed(descendants):
            lifted = self._lifted(desc)
            if lifted is None:
                continue
            # UPDATE: a vs-mpy-add can adopt saturation + the narrow type —
            # but never below its reads' width (that is narrow's job).
            if isinstance(lifted, U.VsMpyAdd) \
                    and lifted.type.elem.bits >= target.bits \
                    and all(r.type.elem.bits <= target.bits
                            for r in lifted.reads):
                for sat in sat_order:
                    cand = U.VsMpyAdd(lifted.reads, lifted.weights, sat, target)
                    if cand not in seen:
                        seen.add(cand)
                        yield "update", cand
            if isinstance(lifted, U.Average):
                if lifted.type.elem == target:
                    yield "replace", lifted
                # Averages computed in a widened intermediate can be redone
                # at the narrow width: (u16(a)+u16(b)+1)>>1 == avg_u8(a, b).
                sa = self._strip_widen(lifted.a)
                sb = self._strip_widen(lifted.b)
                if sa is not None and sb is not None \
                        and sa.type == sb.type and sa.type.elem == target:
                    yield "replace", U.Average(sa, sb, lifted.round)
            for shift in sorted(shifts, reverse=True):
                if shift >= lifted.type.elem.bits:
                    continue
                for rnd in (True, False):
                    for sat in sat_order:
                        cand = U.Narrow(lifted, target, shift, rnd, sat)
                        if cand in seen:
                            continue
                        seen.add(cand)
                        rule = "replace" if (shift or rnd or desc is not x) \
                            else "extend"
                        yield rule, cand

    # Remaining node kinds --------------------------------------------------

    def _lift_absd(self, e: E.Absd):
        la, lb = self._lifted(e.a), self._lifted(e.b)
        if la is not None and lb is not None:
            yield "extend", U.AbsDiff(la, lb)

    def _lift_minmax(self, e: E.Expr):
        cls = U.Minimum if isinstance(e, E.Min) else U.Maximum
        la, lb = self._lifted(e.a), self._lifted(e.b)
        # UPDATE: clamp of a vs-mpy-add may become a saturating vs-mpy-add.
        for side in (la, lb):
            if isinstance(side, U.VsMpyAdd) and not side.saturate:
                yield "update", U.VsMpyAdd(
                    side.reads, side.weights, True, side.out_elem
                )
        if la is not None and lb is not None:
            yield "extend", cls(la, lb)

    def _lift_select(self, e: E.Select):
        cond = e.cond
        if not isinstance(cond, E._Compare):
            return
        lca, lcb = self._lifted(cond.a), self._lifted(cond.b)
        lt_, lf_ = self._lifted(e.t), self._lifted(e.f)
        if None in (lca, lcb, lt_, lf_):
            return
        swap = False
        op = {E.LT: "lt", E.GT: "gt", E.EQ: "eq"}.get(type(cond))
        if op is None:
            op, swap = {
                E.LE: ("gt", True),
                E.GE: ("lt", True),
                E.NE: ("eq", True),
            }[type(cond)]
        t, f = (lf_, lt_) if swap else (lt_, lf_)
        yield "extend", U.Mux(op, lca, lcb, t, f)


def lift(expr: E.Expr, oracle: Oracle) -> U.UberExpr:
    """Convenience wrapper: lift one IR expression with a fresh lifter."""
    return Lifter(oracle).lift(expr)
