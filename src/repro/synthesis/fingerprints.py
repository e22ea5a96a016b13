"""Observational-equivalence pruning: denotation fingerprints (cozy's
``fingerprint(e, examples)`` idiom, adapted to the batched oracle).

Most candidates the enumeration stages produce are *semantically
identical on the current valuation bank* — different load/shuffle
sequences that read the same memory, or lifted expressions that agree on
every valuation the oracle would test.  Querying the oracle for each one
repeats the same differential pass.  This module hashes every candidate
by its batched denotation on a **fingerprint set** ``D`` of bank
environments (computed through the existing :mod:`repro.eval`
lane-parallel plans, so fingerprinting reuses the PR-2 batching rather
than the scalar interpreters); candidates that collide form one
equivalence class, the oracle runs once for the class's first-seen
(lowest-cost, because call sites enumerate cheapest-first)
representative, and the verdict fans out to later members.

Soundness is asymmetric because ``D`` is a *subset* of the bank:

* a **refuted** class is only recorded when some environment in ``D``
  distinguishes the class's denotation from the spec's — any future
  member shares that refuting row, so fanning out ``False`` is sound;
* a **verified** class fans out ``True`` only after comparing the new
  member's digests over the *entire* bank (the representative matched
  the spec everywhere, so full-digest equality is verdict equality);
* when a refutation (or a verified-class mismatch) is only visible in
  an environment **outside** ``D`` — a CEGIS counterexample from the
  randomized verification rounds — that environment is added to ``D``
  and every existing class is invalidated (a *class split*: stale
  classes keyed on the old ``D`` could otherwise merge candidates the
  new distinguishing valuation separates).  ``D`` starts as the
  structured-bank prefix plus any persisted counterexample indices, so
  warm replay sets sharpen fingerprints before the first query.

Verdicts resolved here are still recorded in the verdict cache under
the candidate's canonical key (the key is already computed for the
cache lookup), so cold runs write complete disk stores and warm runs
stay pure cache hits that never reach this layer.

Digests are 16-byte BLAKE2b hashes of each environment's uint64 lane
row; a hash collision could in principle merge inequivalent candidates,
which the differential ``--no-fingerprints`` suite guards empirically.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field

from ..errors import EvaluationError
from ..eval import plan as batch_plan

#: bank environments fingerprinted by default: the structured prefix of
#: :data:`repro.synthesis.valuation.BASE_STYLES` (the randomized
#: verification rounds stay outside ``D`` until one distinguishes)
STRUCTURED_PREFIX = 6

_REFUTED = "refuted"
_VERIFIED = "verified"

#: candidate markers that shortcut without forming a class
_BITS_MISMATCH = "bits"
_ERROR = "error"


def _digest(row) -> bytes:
    """16-byte BLAKE2b of one environment's uint64 lane row."""
    return hashlib.blake2b(row.tobytes(), digest_size=16).digest()


@dataclass
class _SpecState:
    """Fingerprint bookkeeping for one specification."""

    bank_data: object
    spec_digests: dict  # env index -> bytes
    n_envs: int
    #: fingerprint environments, ascending bank order
    D: list
    #: fingerprint key -> _REFUTED | _VERIFIED
    classes: dict = field(default_factory=dict)
    #: (candidate, layout) -> {env index -> bytes} | marker string
    cand_digests: dict = field(default_factory=dict)
    #: env subset tuple -> sliced BankData
    sub_banks: dict = field(default_factory=dict)


class Fingerprinter:
    """Per-oracle observational-equivalence index.

    ``resolve`` answers a query from an existing class (or ``None`` when
    the candidate is unknown / cannot be fingerprinted); ``learn``
    folds a fresh oracle verdict back into the index.  Both are driven
    from :meth:`repro.synthesis.oracle.Oracle.equivalent`, after the
    verdict-cache lookup.
    """

    def __init__(self, oracle):
        # A proxy: the oracle holds this index, and a reference back would
        # leave every dropped oracle, with its banks and plans, to the
        # cyclic collector instead of freeing it at once.
        self.oracle = weakref.proxy(oracle)
        self._states: dict = {}

    # -- per-spec state ------------------------------------------------------

    def _state(self, spec) -> _SpecState | None:
        state = self._states.get(spec, False)
        if state is not False:
            return state
        state = None
        ev = self.oracle._evaluator()
        bank_data = self.oracle._bank_data(spec)
        if bank_data is not None:
            try:
                matrix = self.oracle._spec_matrix(spec, bank_data, ev)
            except EvaluationError:
                matrix = None
            if matrix is not None:
                n_envs = int(matrix.shape[0])
                init = set(range(min(STRUCTURED_PREFIX, n_envs)))
                # Persisted CEGIS counterexamples are known
                # distinguishing valuations: folding them into D up
                # front means classes refuted by them split never.
                for index, _env in self.oracle._replay_for(spec):
                    if 0 <= index < n_envs:
                        init.add(index)
                state = _SpecState(
                    bank_data=bank_data,
                    spec_digests={
                        i: _digest(matrix[i]) for i in range(n_envs)
                    },
                    n_envs=n_envs,
                    D=sorted(init),
                )
        self._states[spec] = state
        return state

    def _sub_bank(self, state: _SpecState, envs: tuple):
        bank = state.sub_banks.get(envs)
        if bank is None:
            full = state.bank_data
            if len(envs) == full.n_envs:
                bank = full
            else:
                np = batch_plan.np
                idx = np.array(envs, dtype=np.intp)
                bank = batch_plan.BankData(
                    n_envs=len(envs),
                    envs=[full.envs[i] for i in envs],
                    buffers={
                        name: (data[idx], elem, origin)
                        for name, (data, elem, origin) in full.buffers.items()
                    },
                    scalars={
                        name: vec[idx]
                        for name, vec in full.scalars.items()
                    },
                )
            state.sub_banks[envs] = bank
        return bank

    # -- candidate digests ---------------------------------------------------

    def _digests(self, state: _SpecState, candidate, layout: str,
                 envs: list):
        """Per-environment digests for ``envs``, memoized incrementally.

        Returns the digest dict, a marker string (``error`` for
        structurally failing candidates), or ``None`` when the candidate
        cannot be evaluated through a batched plan (the caller falls
        through to the oracle unchanged).
        """
        memo = state.cand_digests.get((candidate, layout))
        if isinstance(memo, str):
            return memo
        missing = (tuple(envs) if memo is None
                   else tuple(i for i in envs if i not in memo))
        if not missing:
            return memo
        ev = self.oracle._evaluator()
        plan = ev.plan_for(candidate)
        if plan is None or not batch_plan.plan_usable(plan, state.bank_data):
            return None
        tracer = self.oracle.tracer
        with tracer.span("sketch.fingerprint", envs=len(missing),
                         layout=layout) as sp:
            try:
                matrix = ev.denote_bank(
                    plan, self._sub_bank(state, missing), layout
                )
            except EvaluationError:
                # Evaluation errors depend only on structure and buffer
                # shapes, identical across the bank: the whole candidate
                # is an error class (the oracle refutes it on sight).
                state.cand_digests[(candidate, layout)] = _ERROR
                if sp:
                    sp.set(marker=_ERROR)
                return _ERROR
            if memo is None:
                memo = {}
                state.cand_digests[(candidate, layout)] = memo
            for row, index in zip(matrix, missing):
                memo[index] = _digest(row)
        return memo

    def _key(self, state: _SpecState, digests: dict) -> tuple:
        return tuple(digests[i] for i in state.D)

    def _split(self, state: _SpecState, env_index: int) -> None:
        """Extend ``D`` with a newly distinguishing environment and
        invalidate every class keyed on the old fingerprint set."""
        state.D.append(env_index)
        state.D.sort()
        state.classes.clear()
        self.oracle.stats.count("class_splits")
        self.oracle.tracer.event("fingerprint.split", env=env_index)

    def _full_mismatch_env(self, state: _SpecState, digests: dict,
                           candidate, layout: str):
        """First bank environment where the candidate differs from the
        spec, scanning all environments, or ``None`` if none differ.

        May return a marker/None result from digest extension; callers
        treat anything that is not an ``int`` as "cannot tell".
        """
        extended = self._digests(
            state, candidate, layout, list(range(state.n_envs))
        )
        if not isinstance(extended, dict):
            return extended
        for i in range(state.n_envs):
            if extended[i] != state.spec_digests[i]:
                return i
        return None

    # -- public protocol -----------------------------------------------------

    def resolve(self, spec, candidate, layout: str):
        """Class verdict for ``candidate``, or ``None`` to ask the oracle."""
        state = self._state(spec)
        if state is None:
            return None
        from .oracle import result_bits

        try:
            if result_bits(spec) != result_bits(candidate):
                # The oracle's shape guard refutes unconditionally; no
                # denotation (or class) is needed to fan that out.
                return False
        except EvaluationError:
            return None
        digests = self._digests(state, candidate, layout, state.D)
        if digests is None:
            return None
        if digests == _ERROR:
            return False
        entry = state.classes.get(self._key(state, digests))
        if entry is None:
            return None
        if entry == _REFUTED:
            # Invariant: refuted classes always carry a refuting
            # environment inside D, shared by every member via the key.
            return False
        # Verified class: True fans out only on full-bank agreement; a
        # mismatch can only live outside D (the key matched inside it),
        # so it both refutes this member and splits the stale classes.
        mismatch = self._full_mismatch_env(state, digests, candidate, layout)
        if isinstance(mismatch, int):
            self._split(state, mismatch)
            return False
        if mismatch is None:
            return True
        return None

    def learn(self, spec, candidate, layout: str, verdict: bool) -> None:
        """Fold one fresh oracle verdict into the class index."""
        state = self._state(spec)
        if state is None:
            return
        digests = self._digests(state, candidate, layout, state.D)
        if not isinstance(digests, dict):
            return
        if verdict:
            # The oracle matched the candidate against the whole bank,
            # so its digests must agree with the spec's everywhere; a
            # disagreement means the digests are not trustworthy for
            # this candidate (e.g. mixed scalar/batched paths) — skip.
            full = self._digests(
                state, candidate, layout, list(range(state.n_envs))
            )
            if not isinstance(full, dict) or any(
                full[i] != state.spec_digests[i] for i in range(state.n_envs)
            ):
                return
            state.classes[self._key(state, digests)] = _VERIFIED
            self.oracle.stats.count("classes_formed")
            return
        # Refuted: the class is only sound if some environment in D
        # separates it from the spec.  When the refutation lives outside
        # D (a counterexample from the randomized rounds), extend D —
        # splitting stale classes — and key the class on the new set.
        if all(digests[i] == state.spec_digests[i] for i in state.D):
            mismatch = self._full_mismatch_env(
                state, digests, candidate, layout
            )
            if not isinstance(mismatch, int):
                return  # digest collision or unbatchable: don't record
            self._split(state, mismatch)
            digests = self._digests(state, candidate, layout, state.D)
            if not isinstance(digests, dict):
                return
        state.classes[self._key(state, digests)] = _REFUTED
        self.oracle.stats.count("classes_formed")
