"""Interpreter for HVX programs.

Evaluates :class:`~repro.hvx.isa.HvxExpr` trees against the same
:class:`~repro.ir.interp.Environment` used by the Halide IR interpreter, so
both instruction selectors and the equivalence oracle share one source of
truth for memory contents and scalar parameters.
"""

from __future__ import annotations

from ..errors import EvaluationError
from ..ir import interp as ir_interp
from .isa import HvxExpr, HvxInstr, HvxLoad, HvxSplat, lookup
from .values import HvxValue, Vec, VecPair


def evaluate(node: HvxExpr, env: ir_interp.Environment) -> HvxValue:
    """Evaluate an HVX expression tree, returning a machine value.

    Sketch placeholders (abstract loads/swizzles from
    :mod:`repro.synthesis.sketch`) evaluate through their
    ``evaluate_sketch`` hook, realizing the paper's "optimistic" semantics
    for ``??load``/``??swizzle`` during sketch verification.
    """
    hook = getattr(node, "evaluate_sketch", None)
    if hook is not None:
        return hook(env)
    if isinstance(node, HvxLoad):
        values = env.buffer(node.buffer).read(node.offset, node.lanes)
        return Vec(node.elem, values)
    if isinstance(node, HvxSplat):
        scalar = ir_interp.evaluate(node.scalar, env)
        if isinstance(scalar, tuple):
            raise EvaluationError("vsplat operand evaluated to a vector")
        lanes = (node.elem.wrap(scalar),) * node.lanes
        if node.pairwise:
            return VecPair(node.elem, lanes)
        return Vec(node.elem, lanes)
    if isinstance(node, HvxInstr):
        args = tuple(evaluate(a, env) for a in node.args)
        return lookup(node.op).sem_fn(args, node.imms)
    raise EvaluationError(f"cannot evaluate HVX node {type(node).__name__}")

