"""Lowering algorithms + schedules into vector IR (the paper's Figure 3 step).

Each materialized Func becomes a :class:`Stage` whose body (and update
definitions) are lowered to target-independent vector expressions: the
vectorized variable becomes the lane dimension, other variables become the
tile origin, inlined Funcs dissolve into their consumers, and buffer
accesses become :class:`repro.ir.expr.Load` nodes with constant offsets
relative to the origin — exactly the qualifying expressions Rake extracts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import LoweringError
from ..ir import builder as B
from ..ir import expr as E
from ..ir.simplify import simplify
from ..types import I32, ScalarType
from . import fexpr as F
from .func import Func, ImageParam

#: element stride between consecutive rows of every 2-D buffer
DEFAULT_ROW_STRIDE = 512

#: element stride between planes of 3-D buffers
DEFAULT_PLANE_STRIDE = DEFAULT_ROW_STRIDE * 8


@dataclass
class Affine:
    """An affine combination of index variables: ``sum(c_v * v) + const``."""

    coeffs: dict = field(default_factory=dict)
    const: int = 0

    def plus(self, other: "Affine") -> "Affine":
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            coeffs[v] = coeffs.get(v, 0) + c
        return Affine({v: c for v, c in coeffs.items() if c},
                      self.const + other.const)

    def minus(self, other: "Affine") -> "Affine":
        return self.plus(other.scaled(-1))

    def scaled(self, k: int) -> "Affine":
        return Affine({v: c * k for v, c in self.coeffs.items() if c * k},
                      self.const * k)

    def coeff(self, v) -> int:
        return self.coeffs.get(v, 0)

    @property
    def is_const(self) -> bool:
        return not self.coeffs


def _index_affine(e: F.FExpr, bindings: dict) -> Affine:
    """Evaluate an index expression to an affine form over loop variables."""
    if isinstance(e, F.Var):
        if e not in bindings:
            # A free variable (e.g. a reduction variable) indexes relative
            # to the current loop iteration: identity binding.
            bindings[e] = Affine({e: 1}, 0)
        return bindings[e]
    if isinstance(e, F.FConst):
        return Affine({}, e.value)
    if isinstance(e, F.FBinary):
        a = _index_affine(e.a, bindings)
        b = _index_affine(e.b, bindings)
        if e.op == "+":
            return a.plus(b)
        if e.op == "-":
            return a.minus(b)
        if e.op == "*":
            if b.is_const:
                return a.scaled(b.const)
            if a.is_const:
                return b.scaled(a.const)
        if e.op == "<<" and b.is_const:
            return a.scaled(1 << b.const)
    raise LoweringError(f"index expression is not affine: {e!r}")


@dataclass
class Stage:
    """One materialized Func: a buffer plus its lowered vector expressions.

    ``exprs`` holds the pure definition first, then each update definition.
    ``access_scales`` maps read buffers to the per-dimension coefficients of
    the loop variables (used by the execution engine to advance origins).
    """

    func: Func
    lanes: int
    exprs: list = field(default_factory=list)
    access_scales: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.func.name

    @property
    def elem(self) -> ScalarType:
        return self.func.elem


@dataclass
class LoweredPipeline:
    """All stages of a pipeline in dependency order (consumers last)."""

    stages: list
    lanes: int
    row_stride: int = DEFAULT_ROW_STRIDE

    @property
    def output(self) -> Stage:
        return self.stages[-1]

    def vector_expressions(self) -> list:
        """All qualifying (non-trivial) vector expressions, in stage order.

        Mirrors the paper's filter: bare loads, broadcasts and other
        single-node expressions are left to LLVM.
        """
        out = []
        for stage in self.stages:
            for expr in stage.exprs:
                if isinstance(expr, (E.Load, E.Broadcast, E.Const)):
                    continue
                out.append((stage, expr))
        return out


#: The vector width schedules are authored against.  ``vectorize(n)``
#: directives in workload schedules mean "n lanes on a 128-byte machine";
#: lowering for a narrower target rescales them proportionally.
SCHEDULE_VBYTES = 128


class _Lowerer:
    def __init__(self, vector_bytes: int, row_stride: int,
                 plane_stride: int):
        self.vector_bytes = vector_bytes
        self.row_stride = row_stride
        self.plane_stride = plane_stride

    def _strides(self, dims: int) -> list[int]:
        return [1, self.row_stride, self.plane_stride][:dims]

    # -- value lowering ------------------------------------------------------

    def lower_stage(self, func: Func) -> Stage:
        scheduled = func.schedule.vectorize_lanes
        if scheduled:
            lanes = max(1, scheduled * self.vector_bytes // SCHEDULE_VBYTES)
        else:
            lanes = self.vector_bytes
        stage = Stage(func=func, lanes=lanes)
        if func.body is None:
            raise LoweringError(f"{func.name} has no definition")
        if not func.args:
            raise LoweringError(f"{func.name} has no index variables")
        xvar = func.args[0]
        bindings = {v: Affine({v: 1}, 0) for v in func.args}
        for definition in [func.body, *func.updates]:
            expr = self._lower(definition, xvar, lanes, bindings, stage)
            if isinstance(expr.type, ScalarType):
                expr = B.broadcast(expr, lanes)
            stage.exprs.append(simplify(expr))
        return stage

    def _lower(self, e: F.FExpr, xvar, lanes, bindings, stage) -> E.Expr:
        recur = lambda sub: self._lower(sub, xvar, lanes, bindings, stage)
        if isinstance(e, F.FConst):
            return B.const(e.value, I32)
        if isinstance(e, F.FParam):
            return E.ScalarVar(e.name, e.dtype)
        if isinstance(e, F.Var):
            raise LoweringError(
                f"loop variable {e!r} used as a value (unsupported)"
            )
        if isinstance(e, F.FBinary):
            a, b = recur(e.a), recur(e.b)
            a, b = self._unify(a, b, lanes)
            op = {
                "+": B.add, "-": B.sub, "*": B.mul, "/": B.div, "%": B.mod,
                "<<": B.shl, ">>": B.shr, "<": B.lt, ">": B.gt,
                "<=": B.le, ">=": B.ge,
            }[e.op]
            return op(a, b)
        if isinstance(e, F.FCall):
            a, b = recur(e.args[0]), recur(e.args[1])
            a, b = self._unify(a, b, lanes)
            op = {"min": B.minimum, "max": B.maximum, "absd": B.absd}[e.fn]
            return op(a, b)
        if isinstance(e, F.FCast):
            inner = recur(e.value)
            if e.saturating:
                return B.sat_cast(e.dtype, inner)
            return B.cast(e.dtype, inner)
        if isinstance(e, F.FSelect):
            cond = recur(e.cond)
            t, f = self._unify(recur(e.t), recur(e.f), lanes)
            if E.lanes_of(cond.type) != E.lanes_of(t.type):
                cond = B.broadcast(cond, E.lanes_of(t.type))
            return B.select(cond, t, f)
        if isinstance(e, F.FAccess):
            return self._lower_access(e, xvar, lanes, bindings, stage)
        raise LoweringError(f"cannot lower {type(e).__name__}")

    def _unify(self, a: E.Expr, b: E.Expr, lanes: int):
        """Insert broadcasts and int-const typing for mixed operands."""
        a_vec = isinstance(a.type, E.VectorType)
        b_vec = isinstance(b.type, E.VectorType)
        if a_vec and not b_vec:
            b = self._retype_const(b, E.elem_of(a.type))
            b = B.broadcast(b, E.lanes_of(a.type))
        elif b_vec and not a_vec:
            a = self._retype_const(a, E.elem_of(b.type))
            a = B.broadcast(a, E.lanes_of(b.type))
        elif not a_vec and not b_vec:
            if isinstance(a, E.Const) and not isinstance(b, E.Const):
                a = self._retype_const(a, E.elem_of(b.type))
            elif isinstance(b, E.Const) and not isinstance(a, E.Const):
                b = self._retype_const(b, E.elem_of(a.type))
        return a, b

    @staticmethod
    def _retype_const(e: E.Expr, elem: ScalarType) -> E.Expr:
        if isinstance(e, E.Const) and e.dtype != elem and elem.contains(e.value):
            return E.Const(e.value, elem)
        return e

    def _lower_access(self, e: F.FAccess, xvar, lanes, bindings, stage):
        target = e.target
        if isinstance(target, Func) and not target.schedule.compute_root \
                and target is not stage.func:
            # Inline: bind the callee's vars to the index affines.
            inner_bindings = {}
            for var, idx in zip(target.args, e.indices):
                inner_bindings[var] = _index_affine(idx, bindings)
            if target.body is None:
                raise LoweringError(f"{target.name} has no definition")
            return self._lower(target.body, xvar, lanes, inner_bindings, stage)

        # Materialized access: compute offset / stride from the affines.
        name = target.name
        dims = target.dims if isinstance(target, ImageParam) else len(target.args)
        elem = target.elem
        strides = self._strides(dims)
        offset = 0
        lane_stride = 0
        info = []
        for pos, idx in enumerate(e.indices):
            aff = _index_affine(idx, bindings)
            cx = aff.coeff(xvar)
            if cx:
                if pos != 0:
                    raise LoweringError(
                        "vectorized variable may only index the fastest "
                        f"dimension of {name}"
                    )
                lane_stride = cx
            offset += aff.const * strides[pos]
            others = [(v.name, c) for v, c in aff.coeffs.items()
                      if v is not xvar]
            if cx:
                info.append((xvar.name, cx))
            elif others:
                info.append(others[0])
            else:
                info.append((None, 0))
        stage.access_scales.setdefault(name, tuple(info))
        if lane_stride:
            if lane_stride not in (1, 2, 4):
                raise LoweringError(f"unsupported lane stride {lane_stride}")
            return E.Load(name, offset, lanes, elem, lane_stride)
        return E.Load(name, offset, 1, elem)


def reachable_funcs(output: Func) -> list[Func]:
    """All Funcs reachable from ``output``, dependencies first."""
    order: list[Func] = []
    seen: set = set()

    def visit(f: Func) -> None:
        if id(f) in seen:
            return
        seen.add(id(f))
        for definition in [f.body, *f.updates]:
            _visit_expr(definition, visit)
        order.append(f)

    def _visit_expr(e, visit_func) -> None:
        if isinstance(e, F.FAccess):
            if isinstance(e.target, Func):
                visit_func(e.target)
            for idx in e.indices:
                _visit_expr(idx, visit_func)
        elif isinstance(e, F.FBinary):
            _visit_expr(e.a, visit_func)
            _visit_expr(e.b, visit_func)
        elif isinstance(e, F.FCall):
            for a in e.args:
                _visit_expr(a, visit_func)
        elif isinstance(e, F.FCast):
            _visit_expr(e.value, visit_func)
        elif isinstance(e, F.FSelect):
            _visit_expr(e.cond, visit_func)
            _visit_expr(e.t, visit_func)
            _visit_expr(e.f, visit_func)

    visit(output)
    return order


def lower_pipeline(
    output: Func,
    vector_bytes: int = SCHEDULE_VBYTES,
    row_stride: int = DEFAULT_ROW_STRIDE,
    plane_stride: int = DEFAULT_PLANE_STRIDE,
) -> LoweredPipeline:
    """Lower a scheduled pipeline to its vector-IR stages.

    ``vector_bytes`` is the target's vector register width.  Per-func
    ``vectorize(n)`` schedule directives (authored against 128-byte HVX
    vectors) are rescaled to it, so the same scheduled workload lowers to
    full native vectors on any registered target, and an unscheduled
    stage gets one lane per register byte.
    """
    lowerer = _Lowerer(vector_bytes, row_stride, plane_stride)
    stages = []
    for func in reachable_funcs(output):
        if func is output or func.schedule.compute_root:
            stages.append(lowerer.lower_stage(func))
    return LoweredPipeline(stages=stages, lanes=vector_bytes,
                           row_stride=row_stride)
