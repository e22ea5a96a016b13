"""Parallel, memoized execution layer under the synthesis pipeline.

The paper's headline cost is synthesis time: every equivalence query pays
for a full differential-testing pass over the valuation bank.  This module
adds the two scaling levers the related work identifies without changing
any synthesis *result*:

1. **Oracle memoization** — each query is keyed by a canonical structural
   hash of ``(spec, candidate, layout, seed, rounds)`` that is insensitive
   to buffer/scalar renaming but sensitive to layout.  Verdicts live in an
   in-process map and, optionally, an append-only JSONL store on disk, so
   repeated compilations and shared subexpressions across kernels skip
   re-verification entirely.  The CEGIS counterexample bank is persisted as
   bank *indices* (the bank itself is a deterministic function of the spec
   and seed), so refuting inputs survive across runs.

2. **Parallel candidate checking** — candidate batches from lifting and
   swizzle concretization fan out over a ``concurrent.futures`` worker
   pool: process-based by default, degrading to threads and finally to
   serial execution when workers cannot be spawned or crash.  Results are
   reduced by *original candidate order*, so the synthesized program is
   byte-identical to serial mode regardless of ``jobs``.

Verdicts are pure functions of ``(spec, candidate, layout, seed, rounds)``:
counterexample replay only short-circuits work the bank pass would repeat,
so caching and parallel evaluation are both sound.

Caveat on rename-insensitivity: the valuation bank assigns pseudo-random
streams to buffers in name-sorted order, so two expressions equal up to
renaming receive *isomorphic* (not identical) valuations.  A cached verdict
for a renamed twin is exactly as trustworthy as a fresh differential pass.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

from .. import faults
from ..faults import RetryPolicy
from ..fsutil import AppendLog
from ..hvx import isa as hvx_isa
from ..ir import expr as ir_expr
from ..trace.core import NULL_SPAN as _NULL_CTX
from ..types import ScalarType, VectorType
from ..uber import instructions as uber_instr

#: default on-disk store location (overridden by $REPRO_CACHE_DIR)
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_FILE_NAME = "oracle.jsonl"


def default_cache_dir() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-rake``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-rake"


# ---------------------------------------------------------------------------
# Canonical structural hashing
# ---------------------------------------------------------------------------

#: dataclass fields holding buffer/variable names, normalized during hashing
_NAME_FIELDS = frozenset({"buffer", "buffer0", "buffer1", "name"})

_EXPR_BASES = (ir_expr.Expr, uber_instr.UberExpr, hvx_isa.HvxExpr)


def canonical_expr(node, names: dict) -> str:
    """Render any expression kind (IR, uber, HVX, sketch) canonically.

    ``names`` maps buffer/scalar names to positional ids in first-occurrence
    order; passing one map across several expressions keeps their shared
    names consistent (a candidate must read the *same* buffers as its spec).
    """
    cls = type(node)
    parts = [cls.__name__]
    for name in _field_names(cls):
        parts.append(_canon_value(getattr(node, name), name, names))
    return "(" + " ".join(parts) + ")"


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    """The dataclass field names of one expression class, in order."""
    return tuple(f.name for f in dataclasses.fields(cls))


def _canon_value(value, field_name: str, names: dict) -> str:
    if isinstance(value, _EXPR_BASES):
        return canonical_expr(value, names)
    if isinstance(value, (ScalarType, VectorType)):
        return value.name
    if isinstance(value, str):
        if field_name in _NAME_FIELDS:
            return names.setdefault(value, f"%{len(names)}")
        return value
    if isinstance(value, (tuple, list)):
        return "[" + " ".join(_canon_value(v, field_name, names)
                              for v in value) + "]"
    return repr(value)


def query_key(
    spec,
    candidate,
    layout: str,
    seed: int = 0,
    rounds: int = 0,
    tag: str = "full",
) -> str:
    """Stable cache key for one equivalence query.

    Insensitive to buffer/scalar renaming (names are positionalized with a
    map shared between spec and candidate), sensitive to layout, oracle
    seed, randomized-round count and query kind (full vs lane-0).
    """
    names: dict = {}
    spec_part = canonical_expr(spec, names)
    cand_part = canonical_expr(candidate, names)
    raw = f"{tag}|{layout}|{seed}|{rounds}|{spec_part}|{cand_part}"
    return hashlib.sha256(raw.encode()).hexdigest()


def canonical_spec(spec) -> str:
    """Rename-insensitive canonical rendering of one spec expression.

    This is the **single** definition of spec identity shared by the
    verdict cache (:func:`spec_key`), the service's request coalescer
    (:mod:`repro.service.coalesce`) and the rewrite-rule library
    (:mod:`repro.rules`) — every layer that answers "have we seen this
    spec before?" must hash the same rendering, or cache keys, coalescing
    keys and rule keys drift apart.
    """
    return canonical_expr(spec, {})


def spec_key(spec, seed: int = 0, rounds: int = 0) -> str:
    """Stable key for a specification's counterexample bank."""
    raw = f"ce|{seed}|{rounds}|{canonical_spec(spec)}"
    return hashlib.sha256(raw.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Verdict / counterexample cache
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class OracleCache:
    """Verdict cache: in-process maps over an optional append log.

    With a log (:meth:`with_disk`) every verdict and counterexample
    index is also a line of ``oracle.jsonl``::

        {"t": "v", "k": "<query key>", "v": 0 | 1}
        {"t": "c", "k": "<spec key>",  "i": <bank index>}

    loaded once when the cache opens and appended through
    :class:`~repro.fsutil.AppendLog` (batches of 128; fault sites
    ``cache.load`` / ``cache.flush``; a failed flush re-queues).  A
    record of any other shape is corrupt: a wrongly typed verdict
    replayed forever would be a permanent false accept.

    Safe to share between threads: the compilation service hands one cache
    to every worker so concurrent jobs warm each other.  Verdicts are pure
    functions of their key, so a lost race is just a duplicate proof —
    the lock only protects the maps, never a verdict's validity.
    """

    store: AppendLog | None = None
    _verdicts: dict = dataclasses.field(default_factory=dict)
    _counterexamples: dict = dataclasses.field(default_factory=dict)
    _lock: threading.RLock = dataclasses.field(
        default_factory=threading.RLock, repr=False
    )
    #: counterexample indices loaded from the store; replayed after this
    #: cache's own (``_counterexamples``), in file order
    _stored_counterexamples: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False
    )

    @classmethod
    def with_disk(cls, directory: str | Path | None = None) -> "OracleCache":
        """A cache backed by ``<directory>/oracle.jsonl`` (default dir if
        ``None``)."""
        directory = Path(directory) if directory else default_cache_dir()
        cache = cls()
        cache.store = AppendLog(
            directory / CACHE_FILE_NAME, cache, flush_every=128,
            load_site=faults.SITE_CACHE_LOAD,
            flush_site=faults.SITE_CACHE_FLUSH,
        )
        cache.store.load(cache._load_record)
        return cache

    def _load_record(self, rec: dict) -> bool:
        key, kind = rec.get("k"), rec.get("t")
        if not isinstance(key, str):
            return False
        verdict, index = rec.get("v"), rec.get("i")
        if kind == "v" and type(verdict) is int and verdict in (0, 1):
            self._verdicts[key] = bool(verdict)
            return True
        if kind == "c" and type(index) is int and index >= 0:
            bucket = self._stored_counterexamples.setdefault(key, [])
            if index not in bucket:
                bucket.append(index)
            return True
        return False

    def lookup(self, key: str) -> bool | None:
        with self._lock:
            return self._verdicts.get(key)

    def record(self, key: str, verdict: bool) -> None:
        with self._lock:
            fresh = key not in self._verdicts
            self._verdicts[key] = verdict
            if fresh and self.store is not None:
                self.store.append({"t": "v", "k": key, "v": int(verdict)})

    def counterexample_indices(self, skey: str) -> list[int]:
        with self._lock:
            own = self._counterexamples.get(skey, [])
            stored = self._stored_counterexamples.get(skey, ())
            return own + [i for i in stored if i not in own]

    def record_counterexample(self, skey: str, index: int) -> None:
        with self._lock:
            bucket = self._counterexamples.setdefault(skey, [])
            if index in bucket:
                return
            bucket.append(index)
            stored = self._stored_counterexamples.get(skey, ())
            if self.store is not None and index not in stored:
                self.store.append({"t": "c", "k": skey, "i": index})

    def __len__(self) -> int:
        with self._lock:
            return len(self._verdicts)

    def flush(self) -> None:
        if self.store is not None:
            self.store.flush()


# ---------------------------------------------------------------------------
# Parallel candidate checking
# ---------------------------------------------------------------------------

_worker_local = threading.local()


def _pure_check(payload):
    """Worker entry point: one equivalence query with a per-worker oracle.

    Oracles are kept per ``(seed, rounds, batch_eval)`` in worker-local
    storage so the valuation banks they build amortize across batches.  The verdict is a
    pure function of the payload, which is what makes fan-out sound.

    ``payload`` is ``(spec, candidate, layout, seed, rounds, batch_eval)``
    plus an optional trailing *trace context* (``Tracer.context()``).
    Without one — the default — the return value is the bare verdict.
    With one, the worker records its oracle spans under a local tracer
    that shares the parent's ``trace_id`` and returns
    ``(verdict, span_dicts)``; the dispatching :class:`ParallelChecker`
    reattaches the subtree under the batch span.  The same payload shape
    crosses the whole process → thread → serial fallback ladder.
    """
    from ..targets import ensure_semantics
    from ..trace.core import NULL_TRACER, Tracer
    from .oracle import Oracle  # deferred: avoid a cycle at import time

    # Process-pool workers unpickle machine instructions that look their
    # descriptors up lazily by op name — make sure every target's ISA
    # semantics are registered in this interpreter first.
    ensure_semantics()

    # Fault site engine.worker: only observable in thread/serial modes —
    # process workers live in separate interpreters and never see the
    # parent's active plan (process crashes are injected at engine.batch).
    faults.fire(faults.SITE_ENGINE_WORKER)

    spec, candidate, layout, seed, rounds, batch_eval = payload[:6]
    trace_ctx = payload[6] if len(payload) > 6 else None
    oracles = getattr(_worker_local, "oracles", None)
    if oracles is None:
        oracles = _worker_local.oracles = {}
    oracle = oracles.get((seed, rounds, batch_eval))
    if oracle is None:
        oracle = oracles[(seed, rounds, batch_eval)] = Oracle(
            seed=seed, extra_random_rounds=rounds, batch_eval=batch_eval
        )
    if trace_ctx is None:
        return bool(oracle.equivalent(spec, candidate, layout))
    tracer = Tracer(trace_id=trace_ctx[0])
    oracle.tracer = tracer
    try:
        with tracer.span("engine.worker", pid=os.getpid()):
            verdict = bool(oracle.equivalent(spec, candidate, layout))
    finally:
        oracle.tracer = NULL_TRACER
    return verdict, tracer.tree()["spans"]


MODE_PROCESS = "process"
MODE_THREAD = "thread"
MODE_SERIAL = "serial"
_FALLBACK_ORDER = {MODE_PROCESS: MODE_THREAD, MODE_THREAD: MODE_SERIAL}


class ParallelChecker:
    """Deterministic fan-out of equivalence checks over a worker pool.

    ``jobs <= 1`` (or batches below ``min_batch``) run serially through the
    caller's oracle — the exact code path the serial engine uses.  Larger
    batches are dispatched to a process pool; any pool failure (spawn error,
    unpicklable candidate, worker crash) is first retried in the same mode
    — the pool is rebuilt and the batch resubmitted up to
    ``retry.attempts`` times with exponential backoff — and only a failure
    that outlives the retry budget degrades the checker one step
    (process → thread → serial) and transparently re-runs the batch, so a
    crash never changes results, only speed.
    """

    def __init__(self, jobs: int = 1, mode: str | None = None,
                 min_batch: int = 2, retry: RetryPolicy | None = None):
        if mode is not None and mode not in (
            MODE_PROCESS, MODE_THREAD, MODE_SERIAL
        ):
            raise ValueError(f"unknown checker mode: {mode}")
        self.jobs = max(1, int(jobs))
        self.mode = (
            MODE_SERIAL if self.jobs <= 1 else (mode or MODE_PROCESS)
        )
        self.min_batch = min_batch
        self.retry = retry if retry is not None else RetryPolicy()
        self.fallbacks = 0
        self.retries = 0
        self._executor = None
        self._executor_mode = None

    # -- pool management ---------------------------------------------------

    def _pool(self):
        if self._executor is None or self._executor_mode != self.mode:
            self.close()
            cls = (
                ProcessPoolExecutor
                if self.mode == MODE_PROCESS
                else ThreadPoolExecutor
            )
            self._executor = cls(max_workers=self.jobs)
            self._executor_mode = self.mode
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=False)
            self._executor = None
            self._executor_mode = None

    def _degrade(self) -> None:
        self.fallbacks += 1
        self.close()
        self.mode = _FALLBACK_ORDER.get(self.mode, MODE_SERIAL)

    # -- batch API ---------------------------------------------------------

    def check_batch(self, oracle, spec, candidates, layout) -> list:
        """Verdicts for every candidate, in candidate order."""
        n = len(candidates)
        if n == 0:
            return []
        if oracle.cancel is not None:
            # Cooperative cancellation observes batch boundaries: a batch
            # already dispatched to workers completes (its verdicts are
            # sound and cacheable), the next one never starts.
            oracle.cancel.check()
        if self.mode == MODE_SERIAL or n < self.min_batch:
            return [oracle.equivalent(spec, c, layout) for c in candidates]

        tracer = getattr(oracle, "tracer", None)
        trace_ctx = tracer.context() if tracer is not None else None
        with (tracer.span("engine.batch", n=n, mode=self.mode)
              if trace_ctx is not None else _NULL_CTX) as batch_span:
            verdicts: list = [None] * n
            to_run = []
            fp = getattr(oracle, "_fingerprinter", lambda: None)()
            for i, cand in enumerate(candidates):
                key = oracle.query_key(spec, cand, layout)
                hit = oracle.cache.lookup(key)
                if hit is not None:
                    oracle.note_cached_query(hit=True)
                    verdicts[i] = hit
                    continue
                if fp is not None:
                    # Parent-side equivalence-class lookup: a fanned-out
                    # verdict is recorded under the canonical key (cold
                    # stores stay complete) but skips worker dispatch.
                    resolved = fp.resolve(spec, cand, layout)
                    if resolved is not None:
                        oracle.note_fingerprint_query()
                        oracle.cache.record(key, resolved)
                        verdicts[i] = resolved
                        continue
                to_run.append((i, key, cand))
            if batch_span:
                batch_span.set(cached=n - len(to_run), dispatched=len(to_run))

            if to_run:
                payloads = [
                    (spec, cand, layout, oracle.seed,
                     oracle.extra_random_rounds,
                     getattr(oracle, "batch_eval", True), trace_ctx)
                    for _i, _key, cand in to_run
                ]
                results = self._dispatch(
                    payloads, getattr(oracle, "stats", None)
                )
                if results is None:
                    # Pool is gone; the degraded (eventually serial) retry
                    # below keeps verdicts identical.
                    if batch_span:
                        batch_span.set(degraded_to=self.mode)
                    return self.check_batch(oracle, spec, candidates, layout)
                for (i, key, cand), result in zip(to_run, results):
                    if isinstance(result, tuple):
                        verdict, spans = result
                        if tracer is not None:
                            tracer.attach(spans)
                    else:
                        verdict = result
                    oracle.note_cached_query(hit=False)
                    oracle.cache.record(key, verdict)
                    if fp is not None:
                        fp.learn(spec, cand, layout, verdict)
                    verdicts[i] = verdict
            return verdicts

    def first_equivalent(self, oracle, spec, candidates, layout):
        """Index of the first equivalent candidate, or ``None``.

        Serial mode stops at the first success (the classic loop); parallel
        mode dispatches *waves* of candidates concurrently and stops at the
        first wave containing a success, reducing by original order within
        it — the selected candidate is identical either way, and a hit in
        an early wave never pays for the candidates behind it.
        """
        if not candidates:
            return None
        if self.mode == MODE_SERIAL or len(candidates) < self.min_batch:
            for i, cand in enumerate(candidates):
                if oracle.equivalent(spec, cand, layout):
                    return i
            return None
        wave = max(self.jobs * 2, self.min_batch)
        for start in range(0, len(candidates), wave):
            if oracle.cancel is not None:
                oracle.cancel.check()
            verdicts = self.check_batch(
                oracle, spec, candidates[start:start + wave], layout
            )
            for i, verdict in enumerate(verdicts):
                if verdict:
                    return start + i
        return None

    def _dispatch(self, payloads, stats=None) -> list | None:
        """Run payloads on the current pool; retry, then degrade, on failure.

        Each mode gets ``retry.attempts`` resubmissions with a rebuilt pool
        and exponential backoff before the checker steps down the
        process → thread → serial ladder.  A transient worker crash (OOM
        kill, injected ``BrokenProcessPool``) therefore costs one pool
        rebuild, not the whole process tier.
        """
        while self.mode != MODE_SERIAL:
            for attempt in range(self.retry.attempts + 1):
                try:
                    faults.fire(faults.SITE_ENGINE_BATCH)
                    chunk = max(1, len(payloads) // (self.jobs * 2) or 1)
                    return list(
                        self._pool().map(
                            _pure_check, payloads, chunksize=chunk
                        )
                    )
                except Exception:
                    # The pool may be broken (dead worker, unpicklable
                    # payload); tear it down so a retry starts fresh.
                    self.close()
                    if attempt < self.retry.attempts:
                        self.retries += 1
                        if stats is not None:
                            stats.count_retry()
                        self.retry.sleep(attempt)
            self._degrade()
        return None
