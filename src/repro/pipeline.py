"""End-to-end compilation driver (the paper's Figure 1).

``compile_pipeline`` lowers a scheduled mini-Halide pipeline to vector IR,
runs the chosen instruction selector on every qualifying vector expression
(Rake's synthesis, or the baseline pattern matcher), verifies each selected
program against the IR interpreter, and packages the result for the cycle
simulator.

Rake falls back to the baseline for expressions it does not handle — the
paper's Rake likewise leaves trivial expressions to LLVM.

Each setting reaches the oracle by one path.  The registered target fixes
the vector width and the grammars (the paper's §6 retargeting), so
``compile_pipeline`` takes only the target and backend, the caller's own
resources (stats, cache, cancel token, tracer, rule library) and one
ablation switch, ``options``; the final verification pass always runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cancel import CancelToken
from .errors import (
    CancelledError,
    ReproError,
    SynthesisError,
    UnsupportedExpressionError,
)
from .trace.log import get_logger
from .frontend import Func, LoweredPipeline, Stage, lower_pipeline
from .ir import expr as E
from .targets import nodes as N, resolve_target
from .synthesis import LoweringOptions, RakeSelector
from .synthesis.engine import OracleCache
from .synthesis.oracle import Oracle
from .synthesis.stats import SynthesisStats
from .trace.core import NULL_TRACER

BACKEND_RAKE = "rake"
BACKEND_BASELINE = "baseline"

_log = get_logger("repro.pipeline")


@dataclass
class CompiledExpr:
    """One vector expression with its selected machine program."""

    source: E.Expr
    program: N.HvxExpr
    selector: str  # "rake" | "baseline" | "trivial"
    extent: int = 1  # reduction trip count (1 for pure definitions)
    #: the program came from the rewrite-rule fast path (repro.rules) —
    #: still a ``"rake"``-selector result, just without a CEGIS run
    via_rule: bool = False


@dataclass
class CompiledStage:
    """A materialized Func with programs for its definition and updates."""

    stage: Stage
    exprs: list = field(default_factory=list)  # list[CompiledExpr]

    @property
    def name(self) -> str:
        return self.stage.name


@dataclass
class CompiledPipeline:
    """A fully compiled pipeline, ready for the cycle simulator."""

    backend: str
    lowered: LoweredPipeline
    stages: list = field(default_factory=list)  # list[CompiledStage]
    stats: SynthesisStats = field(default_factory=SynthesisStats)
    target: str = "hvx"  # registered TargetDescription name
    fallbacks: int = 0
    #: expressions that fell back to the baseline because synthesis
    #: *crashed* (not the typed it-cannot-handle-this fallbacks) — the
    #: result is still verified-correct, just not the optimized lowering
    degraded_exprs: int = 0

    @property
    def optimized_exprs(self) -> int:
        return sum(
            1 for cs in self.stages for ce in cs.exprs
            if ce.selector == BACKEND_RAKE
        )

    @property
    def rule_hits(self) -> int:
        return sum(
            1 for cs in self.stages for ce in cs.exprs if ce.via_rule
        )

    @property
    def degraded(self) -> bool:
        return self.degraded_exprs > 0


def _is_trivial(e: E.Expr) -> bool:
    """Expressions the paper leaves to LLVM: single variables, plain loads,
    scalar broadcasts."""
    return isinstance(e, (E.Load, E.Broadcast, E.Const, E.ScalarVar))


def compile_pipeline(
    output: Func,
    backend: str = BACKEND_RAKE,
    options: LoweringOptions | None = None,
    jobs: int = 1,
    stats: SynthesisStats | None = None,
    cache: OracleCache | None = None,
    cache_dir: str | None = None,
    cancel: CancelToken | None = None,
    tracer=None,
    target: str = "hvx",
    rules=None,
) -> CompiledPipeline:
    """Compile a scheduled pipeline with the chosen instruction selector.

    ``target`` names a registered :class:`~repro.targets.TargetDescription`
    (``"hvx"`` or ``"neon"``); it fixes the vector width, the sketch and
    swizzle grammars, the cost model and the simulator machine model.

    The caller may lend its own resources.  ``stats`` supplies an external
    :class:`SynthesisStats` to accumulate into; ``cache`` an external
    :class:`~repro.synthesis.engine.OracleCache`, or ``cache_dir`` a
    directory for a persistent on-disk verdict store, opened scoped to this
    compile (``OracleCache.with_disk``'s ``scope``).  ``cancel`` supplies
    a :class:`~repro.cancel.CancelToken` (the service's scheduler passes
    one per job, armed with the job's deadline); it is checked at every
    oracle query boundary, so a cancelled compile raises
    :class:`~repro.errors.CancelledError` /
    :class:`~repro.errors.DeadlineExceededError` without ever writing a
    partial verdict to the caches.

    ``tracer`` accepts a :class:`repro.trace.Tracer`; when given, the
    whole compile is recorded as a hierarchical span tree (root span
    ``pipeline.compile``) covering every stage, expression, lifting step,
    sketch, swizzle search and oracle query.  ``None`` (the default) uses
    the zero-cost null tracer.

    ``rules`` accepts a :class:`~repro.rules.RuleLibrary`: before
    synthesizing an expression the pipeline tries the library's
    pattern-match fast path (span ``pipeline.rule_match``), and every
    *freshly* synthesized selection is generalized back into the library
    — the feedback loop that keeps a long-lived library warm.  A rule hit
    skips sketch/swizzle enumeration entirely but is still re-checked
    against the full valuation bank (inside ``match``) *and* by the final
    verify pass below, so selections are sound with or without rules.

    ``options`` sets the paper's lowering design choices for ablations
    (EXPERIMENTS.md A3 measures lane-0 pruning through it); it leaves the
    selections unchanged.

    Every selected program, Rake's or the baseline's, is checked against
    the IR by the selector's oracle before it is returned.
    """
    if jobs != 1:
        # Checks run serially; the keyword stays because perfbench's
        # in-process driver passes ``jobs=1``.
        raise ValueError(f"jobs must be 1, got {jobs!r}")
    if backend not in (BACKEND_RAKE, BACKEND_BASELINE):
        raise ReproError(f"unknown backend: {backend}")
    tgt = resolve_target(target)
    if tracer is None:
        tracer = NULL_TRACER
    lowered = lower_pipeline(output, vector_bytes=tgt.vbytes)
    baseline = tgt.baseline()
    # The selector's oracle doubles as the final verifier, so verification
    # queries share the memoization cache and show up under the ``verify``
    # stage of the statistics.
    oracle = Oracle(stats=stats or SynthesisStats(), cancel=cancel,
                    tracer=tracer)
    if cache is None and cache_dir:
        # A store opened for this compile parses only its own records
        # until a lookup misses (``OracleCache``).
        cache = OracleCache.with_disk(cache_dir, scope=oracle.compile_digest(
            expr for stage in lowered.stages for expr in stage.exprs))
    if cache is not None:
        oracle.cache = cache
    rake = RakeSelector(options=options or LoweringOptions(), oracle=oracle,
                        target=tgt)

    compiled = CompiledPipeline(backend=backend, lowered=lowered,
                                stats=rake.stats, target=tgt.name)
    try:
        with tracer.span("pipeline.compile", backend=backend,
                         lanes=tgt.vbytes) as root:
            for stage in lowered.stages:
                cstage = CompiledStage(stage=stage)
                extents = [1] + list(stage.func.update_extents)
                with tracer.span("pipeline.stage", stage=stage.name):
                    for expr, extent in zip(stage.exprs, extents):
                        if cancel is not None:
                            cancel.check()
                        used = "trivial" if _is_trivial(expr) else backend
                        program = None
                        via_rule = False
                        with tracer.span("pipeline.expr",
                                         extent=extent) as esp:
                            if used == BACKEND_RAKE and rules is not None:
                                with tracer.span("pipeline.rule_match") as rsp:
                                    try:
                                        program = rules.match(expr, oracle)
                                    except CancelledError:
                                        raise
                                    except Exception as exc:
                                        # The rule library must never be
                                        # able to break a compile.
                                        program = None
                                        _log.warning(
                                            "rule match crashed; falling "
                                            "back to synthesis",
                                            error=f"{type(exc).__name__}: "
                                                  f"{exc}",
                                        )
                                    if rsp:
                                        rsp.set(hit=program is not None)
                                if program is not None:
                                    via_rule = True
                                    rake.stats.count("rule_hits")
                                else:
                                    rake.stats.count("rule_misses")
                            if used == BACKEND_RAKE and program is None:
                                try:
                                    program = rake.select(expr).program
                                    if rules is not None:
                                        _learn_rule(
                                            rules, expr, program, tgt,
                                            rake.stats,
                                        )
                                except (SynthesisError,
                                        UnsupportedExpressionError):
                                    compiled.fallbacks += 1
                                    used = BACKEND_BASELINE
                                except CancelledError:
                                    # Cancellation/deadline is a caller
                                    # decision, never a degraded result.
                                    raise
                                except Exception as exc:
                                    # Synthesis *crashed* (an injected
                                    # fault, or a real bug).  Degrade
                                    # this expression to the baseline
                                    # lowering — still verified below —
                                    # instead of failing the whole
                                    # compile.
                                    compiled.fallbacks += 1
                                    compiled.degraded_exprs += 1
                                    used = BACKEND_BASELINE
                                    tracer.event(
                                        "pipeline.degraded",
                                        error=type(exc).__name__,
                                    )
                                    _log.warning(
                                        "synthesis crashed; degrading "
                                        "expression to baseline",
                                        stage=stage.name,
                                        error=f"{type(exc).__name__}: {exc}",
                                    )
                            if program is None:
                                program = baseline.optimize(expr)
                            with tracer.span("pipeline.verify"):
                                ok = oracle.equivalent(expr, program)
                            if not ok:
                                raise ReproError(
                                    f"selected program is not equivalent "
                                    f"to the IR for stage {stage.name} "
                                    f"({used})"
                                )
                            if esp:
                                esp.set(selector=used)
                        cstage.exprs.append(CompiledExpr(
                            source=expr, program=program, selector=used,
                            extent=extent, via_rule=via_rule,
                        ))
                compiled.stages.append(cstage)
            if root:
                root.set(fallbacks=compiled.fallbacks,
                         optimized=compiled.optimized_exprs,
                         degraded=compiled.degraded_exprs,
                         rule_hits=compiled.rule_hits)
    finally:
        if rules is not None:
            rules.flush()
        oracle.cache.flush()
    return compiled


def _learn_rule(rules, expr, program, tgt, stats) -> None:
    """Feed one fresh synthesis result back into the rule library.

    Best-effort by design: a failure to generalize or persist must never
    fail (or degrade) a compile that already has its verified program.
    """
    try:
        cost = tgt.cost_of(program).key
    except Exception:
        cost = None
    try:
        if rules.learn(expr, program, cost=cost,
                       provenance={"src": "pipeline"}):
            stats.count("rules_mined")
    except Exception as exc:
        _log.warning(
            "failed to mine rule from fresh synthesis",
            error=f"{type(exc).__name__}: {exc}",
        )
