"""Rake's synthesis-based instruction selector.

The three stages of the paper:

1. :mod:`repro.synthesis.lifting` — Halide IR -> Uber-Instruction IR
2. :mod:`repro.synthesis.grammar` + :mod:`repro.synthesis.lowering` —
   swizzle-free sketch synthesis (Algorithm 2)
3. :mod:`repro.synthesis.swizzle_synth` — data-movement synthesis

:func:`select_instructions` runs the full pipeline for one vector
expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import expr as ir_expr
from ..targets import nodes as N, resolve_target
from .engine import OracleCache
from .lifting import Lifter, LiftStep, lift, render_steps
from .lowering import Lowerer, LoweringOptions
from .oracle import LAYOUT_DEINTERLEAVED, LAYOUT_INORDER, Oracle, denote
from .stats import SynthesisStats
from .swizzle_synth import synthesize_swizzles


@dataclass
class SelectionResult:
    """Output of a full Rake run on one expression."""

    source: ir_expr.Expr
    lifted: object  # UberExpr
    program: N.HvxExpr
    #: the lifter's ``(rule, IR node, lifted node)`` steps
    steps: list = field(repr=False)

    @property
    def trace(self) -> list:
        """LiftSteps for Figure 9-style reporting, rendered when read."""
        return render_steps(self.steps)


@dataclass
class RakeSelector:
    """End-to-end synthesis-based instruction selection (Figure 1's Rake box).

    Reusable across expressions; accumulates statistics for Table 1.
    ``target`` retargets the whole lowering — sketch grammar, swizzle
    grammar, cost model and vector width — via a registered
    :class:`~repro.targets.TargetDescription` (name or instance; ``None``
    is HVX).
    """

    options: LoweringOptions = field(default_factory=LoweringOptions)
    oracle: Oracle = field(default_factory=Oracle)
    target: object = None

    def __post_init__(self) -> None:
        self.target = resolve_target(self.target)

    @property
    def stats(self) -> SynthesisStats:
        return self.oracle.stats

    #: how many alternative lifted forms to try when lowering rejects one
    max_lift_retries: int = 4

    def select(self, expr: ir_expr.Expr) -> SelectionResult:
        """Lift, sketch and swizzle-synthesize one vector expression.

        Greedy lifting occasionally commits to a form the target grammar
        cannot realize; when lowering fails, the lifted form is banned and
        lifting re-runs to surface the next equivalent candidate (at most
        ``max_lift_retries`` times).  The last attempt's error propagates;
        no earlier one is kept, since its traceback holds this frame.
        """
        from ..errors import SynthesisError

        banned: set = set()
        for attempt in range(self.max_lift_retries):
            lifter = Lifter(self.oracle)
            lifted = lifter.lift(expr, frozenset(banned))
            lowerer = Lowerer(self.oracle, options=self.options,
                              target=self.target)
            try:
                program = lowerer.lower(lifted)
            except SynthesisError:
                if attempt == self.max_lift_retries - 1:
                    raise
                banned.add(lifted)
                continue
            self.stats.expressions += 1
            return SelectionResult(
                source=expr, lifted=lifted, program=program,
                steps=lifter.steps,
            )
        raise SynthesisError("max_lift_retries allows no attempt")


def select_instructions(
    expr: ir_expr.Expr,
    options: LoweringOptions | None = None,
    oracle: Oracle | None = None,
    target=None,
) -> SelectionResult:
    """Run Rake on a single Halide IR vector expression."""
    selector = RakeSelector(
        options=options or LoweringOptions(),
        oracle=oracle or Oracle(),
        target=target,
    )
    return selector.select(expr)
