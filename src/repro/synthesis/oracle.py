"""Equivalence oracle: the verification back-end of every synthesis stage.

The paper discharges equivalence queries with an SMT solver (Rosette/z3);
this environment has no solver, so the oracle implements the same
*inductive synthesis* loop with concrete testing (DESIGN.md substitution 1):

1. Candidates are first checked against cached counterexamples — inputs
   that refuted earlier candidates (the CEGIS example set).
2. Survivors run against the structured valuation bank (ramps, boundary
   values, randoms).
3. A configurable number of extra randomized rounds serves as the
   "verification" step; a failure there is recorded as a new counterexample
   and immediately refutes future look-alikes.

The oracle is generic over expression kinds: IR, uber and HVX expressions
are all evaluated to logical lane tuples through :func:`denote`.

Verdicts are memoized through :class:`repro.synthesis.engine.OracleCache`
under a canonical structural key, so repeated queries — within one
compilation, across kernels that share subexpressions, and (with a disk
store) across runs — skip the differential pass entirely.  A verdict is a
pure function of ``(spec, candidate, layout, seed, rounds)``: the replay
set only short-circuits failures the bank pass would rediscover, which is
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


@dataclass
class Oracle:
    """Counterexample-caching differential equivalence checker."""

    stats: SynthesisStats = field(default_factory=SynthesisStats)
    extra_random_rounds: int = 4
    seed: int = 0
    #: evaluate candidates against the whole bank in one vectorized pass
    #: (falls back to the scalar interpreters when an expression cannot be
    #: batched exactly); verdicts are identical either way, so this does
    #: not participate in cache keys
    batch_eval: bool = True
    cache: engine.OracleCache = field(default_factory=engine.OracleCache)
    #: cooperative cancellation checked at every query boundary — a raised
    #: cancellation happens *before* the differential pass starts, so the
    #: verdict caches only ever see complete, sound entries
    cancel: object = None  # CancelToken | None
    #: hierarchical tracer (``repro.trace``); the default no-op tracer makes
    #: every span a shared null context manager, so instrumentation costs
    #: one attribute load + one call when tracing is disabled
    tracer: object = NULL_TRACER  # Tracer | NullTracer
    _counterexamples: dict = field(default_factory=dict)
    _bank_cache: dict = field(default_factory=dict)
    _spec_cache: dict = field(default_factory=dict)
    _canon_cache: dict = field(default_factory=dict)
    _spec_key_cache: dict = field(default_factory=dict)
    _batch_evaluator: object = field(default=None, repr=False)
    _bank_data_cache: dict = field(default_factory=dict)
    _spec_matrix_cache: dict = field(default_factory=dict)
    _env0_cache: dict = field(default_factory=dict)

    def bank_for(self, spec) -> list:
        key = spec
        if key not in self._bank_cache:
            self._bank_cache[key] = valuation.environment_bank(
                spec, n_random_extra=self.extra_random_rounds, seed=self.seed
            )
        return self._bank_cache[key]

    def _spec_lanes(self, spec, env_index: int, env) -> tuple:
        key = (spec, env_index)
        if key not in self._spec_cache:
            self._spec_cache[key] = denote(spec, env)
        return self._spec_cache[key]

    def env0_for(self, spec):
        """The first bank environment, built without the rest of the bank.

        ``environment_zero`` is byte-identical to ``bank_for(spec)[0]``, so
        the lane-0 pruning check never pays for a full bank construction.
        """
        return self._env0(spec)[0]

    def _env0(self, spec) -> tuple:
        """``(environment 0, its one-row BankData)`` for the lane-0 check;
        the bank data is ``None`` when the row cannot be stacked exactly."""
        entry = self._env0_cache.get(spec)
        if entry is None:
            bank = self._bank_cache.get(spec)
            env = (bank[0] if bank is not None
                   else valuation.environment_zero(spec, seed=self.seed))
            entry = self._env0_cache[spec] = (env,
                                              valuation.bank_arrays([env]))
        return entry

    # -- batched evaluation -------------------------------------------------

    def _evaluator(self):
        if self._batch_evaluator is None:
            self._batch_evaluator = batch_plan.BatchedEvaluator()
        # Keep the evaluator on the oracle's tracer (it may be swapped in
        # after construction, e.g. by a traced service job).
        self._batch_evaluator.tracer = self.tracer
        return self._batch_evaluator

    def _bank_data(self, spec):
        """The bank stacked as int64 matrices, or ``None`` if not exact."""
        if spec not in self._bank_data_cache:
            self._bank_data_cache[spec] = valuation.bank_arrays(
                self.bank_for(spec)
            )
        return self._bank_data_cache[spec]

    def _spec_matrix(self, spec, bank_data, ev):
        """The spec's denotation over the whole bank, as a (envs, lanes)
        uint64 matrix of lane bit patterns."""
        matrix = self._spec_matrix_cache.get(spec)
        if matrix is None:
            plan = ev.plan_for(spec)
            if plan is not None and batch_plan.plan_usable(plan, bank_data):
                try:
                    matrix = ev.denote_bank(plan, bank_data, LAYOUT_INORDER)
                except EvaluationError:
                    matrix = None
            if matrix is None:
                # Scalar denotation row by row; spec errors propagate, as
                # they do on the scalar path.
                bank = self.bank_for(spec)
                rows = [
                    self._spec_lanes(spec, i, env)
                    for i, env in enumerate(bank)
                ]
                matrix = batch_plan.np.array(
                    rows, dtype=batch_plan.np.uint64
                )
            self._spec_matrix_cache[spec] = matrix
        return matrix

    # -- cache keying -------------------------------------------------------

    def query_key(self, spec, candidate, layout: str,
                  tag: str = "full") -> str:
        """Canonical memoization key for one query (see engine.query_key)."""
        cached = self._canon_cache.get(spec)
        if cached is None:
            names: dict = {}
            cached = (engine.canonical_expr(spec, names), dict(names))
            self._canon_cache[spec] = cached
        spec_part, names = cached
        cand_part = engine.canonical_expr(candidate, dict(names))
        raw = (f"{tag}|{layout}|{self.seed}|{self.extra_random_rounds}|"
               f"{spec_part}|{cand_part}")
        return hashlib.sha256(raw.encode()).hexdigest()

    def _spec_key(self, spec) -> str:
        key = self._spec_key_cache.get(spec)
        if key is None:
            key = self._spec_key_cache[spec] = engine.spec_key(
                spec, self.seed, self.extra_random_rounds
            )
        return key

    def _stage_ctx(self):
        """Attribute out-of-stage queries (the pipeline's final check) to
        the ``verify`` stage so their cost is visible in Table 1 output."""
        if self.stats._active:
            return nullcontext()
        return self.stats.stage("verify")

    # -- counterexample bank ------------------------------------------------

    def _replay_for(self, spec) -> list:
        """The CEGIS replay set for ``spec``, reloaded from the persistent
        store (as bank indices) the first time the spec is queried."""
        replay = self._counterexamples.get(spec)
        if replay is None:
            replay = []
            stored = self.cache.counterexample_indices(self._spec_key(spec))
            if stored:
                bank = self.bank_for(spec)
                replay = [
                    (i, bank[i]) for i in stored if 0 <= i < len(bank)
                ]
            self._counterexamples[spec] = replay
        return replay

    def counterexamples_for(self, spec) -> list:
        """Public view of the replay set (index, environment) pairs."""
        return list(self._replay_for(spec))

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
        # Shape guard: denotations are bit patterns, so equality is only
        # meaningful at matching lane widths.  This is what stops a
        # predicate (one-bit lanes) from impersonating a 0/1-valued data
        # vector, and a u16 result from impersonating a small u8 one.
        if result_bits(spec) != result_bits(candidate):
            return False

        if self.batch_eval:
            verdict = self._check_full_batched(spec, candidate, layout)
            if verdict is not None:
                return verdict
        self.stats.count("fallback_evals")

        # Phase 1: replay counterexamples recorded for THIS spec — the
        # inputs that refuted earlier candidates reject look-alikes fast.
        replay = self._replay_for(spec)
        for index, env in replay:
            try:
                got = denote(candidate, env, layout)
            except EvaluationError:
                return False
            if got != self._spec_lanes(spec, index, env):
                return False

        # Phase 2 + 3: the structured bank, then randomized verification.
        bank = self.bank_for(spec)
        for index, env in enumerate(bank):
            try:
                got = denote(candidate, env, layout)
            except EvaluationError:
                return False
            want = self._spec_lanes(spec, index, env)
            if got != want:
                replay.append((index, env))
                if len(replay) > 8:
                    replay.pop(0)
                self.stats.count("counterexamples")
                self.tracer.event("oracle.counterexample", index=index)
                self.cache.record_counterexample(self._spec_key(spec), index)
                return False
        return True

    def _check_full_batched(self, spec, candidate, layout: str):
        """Whole-bank check in one compiled pass (the batched fast path).

        Returns ``True``/``False`` with *byte-identical* semantics to the
        scalar phases — including which environment index is recorded as a
        counterexample — or ``None`` when the candidate (or bank) cannot be
        batched exactly and the caller must run the scalar phases instead.
        """
        ev = self._evaluator()
        bank_data = self._bank_data(spec)
        if bank_data is None:
            return None
        plan = ev.plan_for(candidate)
        if plan is None or not batch_plan.plan_usable(plan, bank_data):
            return None
        if plan.pure:
            self.stats.count("batched_evals")
        else:
            self.stats.count("fallback_evals")
        want = self._spec_matrix(spec, bank_data, ev)
        try:
            got = ev.denote_bank(plan, bank_data, layout)
        except EvaluationError:
            # Evaluation errors depend only on the expression's structure
            # and the buffer shapes, which are identical across the bank —
            # so the scalar loop would refute on its very first valuation.
            return False
        np = batch_plan.np
        if got.shape == want.shape:
            eq_env = (got == want).all(axis=1)
        else:
            eq_env = None  # lane-count mismatch: every valuation differs

        # Phase 1: replay — a recorded counterexample index that still
        # mismatches refutes before any new counterexample is recorded.
        replay = self._replay_for(spec)
        for index, _env in replay:
            if eq_env is None or not eq_env[index]:
                return False

        # Phase 2 + 3: the bank scan collapses to one vectorized compare;
        # the first mismatching index is recovered so counterexample
        # recording and replay ordering match the scalar loop exactly.
        if eq_env is None:
            first = 0
        else:
            bad = np.flatnonzero(~eq_env)
            if bad.size == 0:
                return True
            first = int(bad[0])
        bank = self.bank_for(spec)
        replay.append((first, bank[first]))
        if len(replay) > 8:
            replay.pop(0)
        self.stats.count("counterexamples")
        self.tracer.event("oracle.counterexample", index=first)
        self.cache.record_counterexample(self._spec_key(spec), first)
        return False

    def equivalent_lane0(self, spec, candidate, layout: str = LAYOUT_INORDER) -> bool:
        """The first-lane pruning check of Section 4.1.

        Uses environment 0 alone and compares only the first lane, on the
        candidate's batched plan when it has one.  A failure proves the
        candidate wrong; a pass just promotes it to the full check.
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
        if result_bits(spec) != result_bits(candidate):
            return False
        try:
            got = self._denote_env0(spec, candidate, layout)
        except EvaluationError:
            return False
        want = self._spec_cache.get((spec, 0))
        if want is None:
            want = self._spec_cache[(spec, 0)] = tuple(
                self._denote_env0(spec, spec, LAYOUT_INORDER)
            )
        return bool(got) and got[0] == want[0]

    def _denote_env0(self, spec, expr, layout: str):
        """``denote(expr, env0_for(spec), layout)`` as a lane sequence.

        With ``batch_eval`` it runs ``expr``'s memoized plan — the one a
        later full check reuses — over the one-row bank of environment 0,
        and counts nothing, so lane-0 counters and verdicts equal the
        scalar check's; the scalar interpreters answer when the plan is
        ``None`` or cannot run on that row.
        """
        env, row = self._env0(spec)
        if self.batch_eval and row is not None:
            ev = self._evaluator()
            plan = ev.plan_for(expr)
            if plan is not None and batch_plan.plan_usable(plan, row):
                return ev.denote_bank(plan, row, layout)[0].tolist()
        return denote(expr, env, layout)
