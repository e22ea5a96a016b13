"""Stage 2 + 3 driver — Algorithm 2 of the paper.

``Lower(e, layout)`` recursively lowers each sub-expression (memoized per
requested layout), enumerates swizzle-free sketches from the specialized
grammar, validates each sketch (lane-0 pruning first, Section 4.1), then
asks the swizzle synthesizer to concretize data movement under the cost
upper bound β.  Each successful implementation tightens β and — when
backtracking is enabled — the search continues until no better sketch
remains.  Once β is finite, each sketch is ranked before it is validated:
one whose concretizations all cost at least β is rejected without an
oracle query, since the swizzle synthesizer could not return it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SynthesisError, UnsupportedExpressionError
from ..targets import nodes as N, resolve_target
from ..uber import instructions as U
from .grammar import Sketch
from .oracle import LAYOUT_DEINTERLEAVED, LAYOUT_INORDER, Oracle
from .sketch import AbstractSwizzle, SWIZZLE_DEINTERLEAVE, SWIZZLE_INTERLEAVE
from .swizzle_synth import rank_sketch, synthesize_swizzles


@dataclass(frozen=True)
class LoweringOptions:
    """Knobs exposed for the paper's design-choice ablations."""

    backtracking: bool = True  # §5.1: keep tightening β after a success
    lane0_pruning: bool = True  # §4.1: first-lane check before the full one
    layout_search: bool = True  # §5.1: try deinterleaved intermediates
    max_sketches: int = 24  # sketches examined per uber-instruction


@dataclass
class Lowerer:
    """Runs Algorithm 2 over one lifted expression.

    ``target`` selects the backend: its vector width, sketch grammar,
    swizzle grammar and cost model (paper Section 6's retargeting).
    """

    oracle: Oracle
    options: LoweringOptions = field(default_factory=LoweringOptions)
    target: object = None
    _memo: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.target = resolve_target(self.target)

    # -- public API ---------------------------------------------------------

    def lower(self, e: U.UberExpr) -> N.HvxExpr:
        """Lower a lifted expression to a concrete in-order program."""
        impl = self._lower(e, LAYOUT_INORDER)
        if impl is None:
            raise SynthesisError(
                f"no {self.target.name} implementation found for "
                f"{U.uber_name(e)} expression"
            )
        return impl

    # -- Algorithm 2 ---------------------------------------------------------

    def _lower(self, e: U.UberExpr, layout: str) -> N.HvxExpr | None:
        key = (e, layout)
        if key in self._memo:
            return self._memo[key]
        if layout == LAYOUT_DEINTERLEAVED and not self.options.layout_search:
            self._memo[key] = None
            return None
        # Recursion guard: a child query that re-enters the same node (the
        # grammar asking for the other layout) must not loop.
        self._memo[key] = None

        best: N.HvxExpr | None = None
        beta = self.target.infinite_cost
        examined = 0
        tracer = self.oracle.tracer
        with tracer.span("lowering", layout=layout) as lsp:
            if lsp:
                lsp.set(uber=U.uber_name(e))
            try:
                sketch_iter = self.target.sketches(e, self._child)
            except UnsupportedExpressionError:
                if lsp:
                    lsp.set(unsupported=True)
                return None

            for sketch in sketch_iter:
                if examined >= self.options.max_sketches:
                    break
                if self.oracle.cancel is not None:
                    self.oracle.cancel.check()
                examined += 1
                adapted = self._adapt_layout(sketch, layout)
                if adapted is None:
                    continue
                with tracer.span("sketch", index=examined) as ssp:
                    ranking = None
                    if best is not None:
                        with self.oracle.stats.stage("swizzling"):
                            ranking = rank_sketch(adapted, self.target,
                                                  self.oracle.stats)
                            if ranking.exceeds(beta):
                                self.oracle.stats.count("budget_pruned")
                                if ssp:
                                    ssp.set(pruned="budget")
                                continue
                    with self.oracle.stats.stage("sketching"):
                        if self.options.lane0_pruning and (
                            not self.oracle.equivalent_lane0(e, adapted, layout)
                        ):
                            if ssp:
                                ssp.set(pruned="lane0")
                            continue
                        if not self.oracle.equivalent(e, adapted, layout):
                            if ssp:
                                ssp.set(pruned="full")
                            continue
                    with self.oracle.stats.stage("swizzling"):
                        result = synthesize_swizzles(
                            e, adapted, layout, self.oracle, beta,
                            target=self.target, ranking=ranking,
                        )
                    if result is None:
                        if ssp:
                            ssp.set(swizzle="unsat")
                        continue
                    impl, impl_cost = result
                    if ssp:
                        ssp.set(accepted=True, cost=list(impl_cost.key))
                    best = impl
                    beta = impl_cost
                if not self.options.backtracking:
                    break
            if lsp:
                lsp.set(sketches=examined, found=best is not None)
        self._memo[key] = best
        return best

    def _adapt_layout(self, sketch: Sketch, requested: str):
        """Bridge a sketch's natural layout to the requested one."""
        if sketch.layout == requested:
            return sketch.expr
        if not sketch.expr.type.is_pair:
            return None
        mode = (
            SWIZZLE_INTERLEAVE
            if requested == LAYOUT_INORDER
            else SWIZZLE_DEINTERLEAVE
        )
        return AbstractSwizzle(sketch.expr, mode)

    def _child(self, e: U.UberExpr, layout: str) -> N.HvxExpr | None:
        return self._lower(e, layout)
