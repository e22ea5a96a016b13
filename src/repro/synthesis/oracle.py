"""Equivalence oracle: the verification back-end of every synthesis stage.

The paper discharges equivalence queries with an SMT solver (Rosette/z3);
this environment has no solver, so the oracle tests concretely
(DESIGN.md substitution 1): a full check denotes the candidate over the
spec's whole valuation bank (ramps, boundary values, randoms, plus a
configurable number of extra randomized rounds that serve as the
"verification" step) and accepts only if every environment matches.
CEGIS keeps the inputs that refuted earlier candidates because each
solver call is expensive; testing every candidate against the whole bank
makes that example set redundant, so the oracle keeps none.

The oracle is generic over expression kinds: IR, uber and machine
expressions are all denoted over the whole bank at once by plans of
:class:`repro.eval.BatchedEvaluator`, as (environments, lanes) matrices
of logical-order lane bits.  :func:`denote` gives the same lanes for one
environment through the scalar interpreters, which the plans' fallback
steps run too; it is the reference the tests and the throughput
benchmark compare against.

Verdicts are memoized through :class:`repro.synthesis.engine.OracleCache`
under a canonical structural key, so repeated queries — within one
compilation, across kernels that share subexpressions, and (with a disk
store) across runs — skip the differential pass entirely.  A verdict is a
pure function of ``(spec, candidate, layout, seed, rounds)``, which is
what makes memoization sound.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field

from .. import faults
from ..errors import EvaluationError
from ..eval import plan as batch_plan
from ..hvx import interp as hvx_interp
from ..hvx import isa as hvx_isa
from ..hvx import values as hvx_values
from ..ir import expr as ir_expr
from ..ir import interp as ir_interp
from ..trace.core import NULL_TRACER
from ..uber import instructions as uber_instr
from ..uber import interp as uber_interp
from . import engine, valuation
from .stats import SynthesisStats

#: result layouts a lowered implementation may produce (Section 5.1)
LAYOUT_INORDER = "in-order"
LAYOUT_DEINTERLEAVED = "deinterleaved"
LAYOUTS = (LAYOUT_INORDER, LAYOUT_DEINTERLEAVED)


def _mask_lanes(values: tuple, bits: int) -> tuple:
    """Normalize lanes to unsigned bit patterns.

    Equivalence is *bit-pattern* equality at matching lane widths: an i16
    result is interchangeable with a u16 result holding the same bits, which
    is how reinterpret-style instruction selections (vmpa producing signed
    halfwords for an unsigned sum) remain admissible — exactly as on real
    hardware, where registers carry bits, not signs.
    """
    mask = (1 << bits) - 1
    return tuple(v & mask for v in values)


def result_bits(expr) -> int:
    """Lane width (in bits) of an expression's denotation.

    Predicate registers denote one-bit lanes: a ``vcmp`` result may only
    implement a boolean-typed specification, never a data vector that
    happens to hold zeros and ones — a predicate register cannot be stored
    to memory.
    """
    if isinstance(expr, ir_expr.Expr):
        return ir_expr.elem_of(expr.type).bits
    if isinstance(expr, uber_instr.UberExpr):
        return expr.type.elem.bits
    if isinstance(expr, hvx_isa.HvxExpr):
        t = expr.type
        if t.kind == "pred":
            return 1
        return t.elem.bits
    raise EvaluationError(f"cannot type {type(expr).__name__}")


def denote(expr, env: ir_interp.Environment, layout: str = LAYOUT_INORDER) -> tuple:
    """Evaluate any expression kind to a *logical-order* lane-bits tuple.

    For HVX expressions, ``layout`` declares how the register-order result
    should be read back: an implementation that produces a deinterleaved
    pair is logically correct iff interleaving its halves yields the spec.
    """
    if isinstance(expr, ir_expr.Expr):
        values = ir_interp.evaluate_vector(expr, env)
        return _mask_lanes(values, ir_expr.elem_of(expr.type).bits)
    if isinstance(expr, uber_instr.UberExpr):
        values = uber_interp.evaluate(expr, env)
        return _mask_lanes(values, expr.type.elem.bits)
    if isinstance(expr, hvx_isa.HvxExpr):
        value = hvx_interp.evaluate(expr, env)
        if layout == LAYOUT_DEINTERLEAVED:
            if not isinstance(value, hvx_values.VecPair):
                raise EvaluationError(
                    "deinterleaved layout only applies to pair results"
                )
            return _mask_lanes(
                hvx_values.as_lanes(hvx_values.interleave(value)),
                value.elem.bits,
            )
        if isinstance(value, hvx_values.PredVec):
            # Predicates denote one-bit lanes; result_bits() guards that a
            # predicate only ever stands against a boolean spec.
            return _mask_lanes(tuple(int(v) for v in value.values), 1)
        return _mask_lanes(hvx_values.as_lanes(value), value.elem.bits)
    raise EvaluationError(f"cannot denote {type(expr).__name__}")


def _memo():
    """A per-compile memo field: derived state, so not a constructor
    parameter and no part of the oracle's repr or equality."""
    return field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass
class Oracle:
    """Differential equivalence checker over one valuation bank per spec
    footprint (its buffers and scalars)."""

    stats: SynthesisStats = field(default_factory=SynthesisStats)
    extra_random_rounds: int = 4
    seed: int = 0
    cache: engine.OracleCache = field(default_factory=engine.OracleCache)
    #: cooperative cancellation checked at every query boundary — a raised
    #: cancellation happens *before* the differential pass starts, so the
    #: verdict caches only ever see complete, sound entries
    cancel: object = None  # CancelToken | None
    #: hierarchical tracer (``repro.trace``); the default no-op tracer makes
    #: every span a shared null context manager, so instrumentation costs
    #: one attribute load + one call when tracing is disabled
    tracer: object = NULL_TRACER  # Tracer | NullTracer
    #: footprint (``valuation.footprint``) -> its bank
    #: (``valuation.environment_bank``): specs with equal footprints share it
    _bank_cache: dict = _memo()
    #: node -> its footprint, for every spec this oracle banked and every
    #: node under one, so a new spec's footprint merges its children's
    _footprint_cache: dict = _memo()
    #: spec -> its footprint's ``_bank_cache`` entry
    _spec_bank_cache: dict = _memo()
    #: node -> rendering template (``engine._template``) for every spec and
    #: candidate this oracle keys
    _canon_cache: dict = _memo()
    #: the ``BatchedEvaluator`` every check runs on, built on first use
    _ev: object = field(default=None, init=False, repr=False, compare=False)
    #: spec -> its denotation over its bank (``_matrices``)
    _spec_matrix_cache: dict = _memo()

    def _bank(self, spec) -> batch_plan.BankData:
        """The bank of the spec's footprint, built once per footprint."""
        bank = self._spec_bank_cache.get(spec)
        if bank is None:
            memo = self._footprint_cache
            footprint = valuation.footprint(spec, memo)
            bank = self._bank_cache.get(footprint)
            if bank is None:
                bank = valuation.environment_bank(
                    spec, n_random_extra=self.extra_random_rounds,
                    seed=self.seed, memo=memo
                )
                self._bank_cache[footprint] = bank
            self._spec_bank_cache[spec] = bank
        return bank

    def bank_for(self, spec) -> list:
        """The environments of the spec's bank, built on first use."""
        return self._bank(spec).envs

    # -- whole-bank denotation ----------------------------------------------

    def _evaluator(self) -> batch_plan.BatchedEvaluator:
        if self._ev is None:
            self._ev = batch_plan.BatchedEvaluator()
        # Keep the evaluator on the oracle's tracer (it may be swapped in
        # after construction, e.g. by a traced service job).
        self._ev.tracer = self.tracer
        return self._ev

    def _matrices(self, spec, candidate, layout: str) -> tuple:
        """``(candidate's plan, spec matrix, candidate matrix)`` over the
        spec's whole bank, each matrix (envs, lanes) of uint64 lane bit
        patterns.

        The spec's matrix is kept per spec, and its errors propagate.  The
        candidate's matrix is ``None`` when evaluating it raised
        ``EvaluationError``: such errors depend only on the expression's
        structure and the buffer shapes, which are identical across the
        bank, so every valuation would raise.
        """
        ev = self._evaluator()
        bank_data = self._bank(spec)
        want = self._spec_matrix_cache.get(spec)
        if want is None:
            want = self._spec_matrix_cache[spec] = ev.denote_bank(
                ev.plan_on(spec, bank_data), bank_data, LAYOUT_INORDER)
        plan = ev.plan_on(candidate, bank_data)
        try:
            got = ev.denote_bank(plan, bank_data, layout)
        except EvaluationError:
            got = None
        return plan, want, got

    # -- cache keying -------------------------------------------------------

    def query_key(self, spec, candidate, layout: str,
                  tag: str = "full") -> str:
        """Stable cache key for one equivalence query.

        Insensitive to buffer/scalar renaming (names are positionalized
        with a map shared between spec and candidate), sensitive to
        layout, oracle seed, randomized-round count and query kind
        (``tag``: full vs lane-0).  Both trees render from per-node
        templates memoized for this oracle's lifetime, so each distinct
        node of the compile is rendered once, not once per query.
        """
        names: dict = {}
        spec_part = engine.canonical_expr(spec, names, self._canon_cache)
        cand_part = engine.canonical_expr(candidate, names, self._canon_cache)
        raw = (f"{tag}|{layout}|{self.seed}|{self.extra_random_rounds}|"
               f"{spec_part}|{cand_part}")
        return hashlib.sha256(raw.encode()).hexdigest()

    def compile_digest(self, exprs) -> str:
        """:func:`engine.compile_digest` of ``exprs``, rendered through the
        template memo this oracle's query keys render through."""
        return engine.compile_digest(exprs, self._canon_cache)

    def _stage_ctx(self):
        """Attribute out-of-stage queries (the pipeline's final check) to
        the ``verify`` stage so their cost is visible in Table 1 output."""
        if self.stats._active:
            return nullcontext()
        return self.stats.stage("verify")

    # -- queries ------------------------------------------------------------

    def equivalent(self, spec, candidate, layout: str = LAYOUT_INORDER) -> bool:
        """One synthesis query: is ``candidate`` equivalent to ``spec``?

        ``spec`` is an IR or uber expression (logical denotation);
        ``candidate`` may be any expression kind, with ``layout`` applied
        when it is an HVX expression.
        """
        if self.cancel is not None:
            self.cancel.check()
        with self._stage_ctx(), self.tracer.span(
            "oracle.query", tag="full", layout=layout
        ) as sp:
            faults.fire(faults.SITE_ORACLE_QUERY, tracer=self.tracer)
            self.stats.count("queries")
            key = self.query_key(spec, candidate, layout)
            cached = self.cache.lookup(key)
            if cached is not None:
                self.stats.count("cache_hits")
                sp.set(cache="hit", verdict=bool(cached))
                return cached
            self.stats.count("cache_misses")
            verdict = self._check_full(spec, candidate, layout)
            self.cache.record(key, verdict)
            sp.set(cache="miss", verdict=bool(verdict))
            return verdict

    def _check_full(self, spec, candidate, layout: str) -> bool:
        """One compare of the whole bank: refuted by any mismatching
        valuation (a counterexample) or by an evaluation error (not
        one)."""
        # Shape guard: denotations are bit patterns, so equality is only
        # meaningful at matching lane widths.  This is what stops a
        # predicate (one-bit lanes) from impersonating a 0/1-valued data
        # vector, and a u16 result from impersonating a small u8 one.
        if result_bits(spec) != result_bits(candidate):
            return False
        plan, want, got = self._matrices(spec, candidate, layout)
        self.stats.count("batched_evals" if plan.pure else "fallback_evals")
        if got is None:
            return False
        if got.shape == want.shape and (got == want).all():
            return True
        self.stats.count("counterexamples")
        return False

    def equivalent_lane0(self, spec, candidate, layout: str = LAYOUT_INORDER) -> bool:
        """The first-lane pruning check of Section 4.1.

        Compares only the first lane in environment 0.  A failure proves
        the candidate wrong; a pass just promotes it to the full check.
        """
        if self.cancel is not None:
            self.cancel.check()
        with self._stage_ctx(), self.tracer.span(
            "oracle.query", tag="lane0", layout=layout
        ) as sp:
            self.stats.count("queries")
            key = self.query_key(spec, candidate, layout, tag="lane0")
            cached = self.cache.lookup(key)
            if cached is not None:
                self.stats.count("cache_hits")
                sp.set(cache="hit", verdict=bool(cached))
                return cached
            self.stats.count("cache_misses")
            verdict = self._check_lane0(spec, candidate, layout)
            self.cache.record(key, verdict)
            sp.set(cache="miss", verdict=bool(verdict))
            return verdict

    def _check_lane0(self, spec, candidate, layout: str) -> bool:
        """Lane 0 of environment 0 (the bank's first row) against the
        spec's.

        The candidate runs over the spec's whole bank, so the full check
        that follows a pass finds every node value already computed; the
        check counts nothing.
        """
        if result_bits(spec) != result_bits(candidate):
            return False
        _plan, want, got = self._matrices(spec, candidate, layout)
        return got is not None and got.size > 0 and bool(
            got[0, 0] == want[0, 0])
