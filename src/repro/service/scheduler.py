"""Job scheduling for the compilation service.

A bounded priority queue feeding a pool of worker threads, each running
one compilation at a time against a **shared**
:class:`~repro.synthesis.engine.OracleCache` — the warm state that makes
a long-lived server worth having.  Scheduling policy:

* **Bounded admission** — past ``queue_size`` pending jobs, ``submit``
  raises :class:`~repro.errors.QueueFullError` (the server maps this to
  HTTP 503) instead of letting latency grow without bound.
* **Priority with aging** — lower ``priority`` runs first, but a job's
  effective priority improves by ``aging_rate`` per queued second, so a
  stream of urgent small kernels can never starve a big one (and vice
  versa: small kernels behind one long synthesis overtake bulk batches).
* **Deadlines and cancellation** — each running job carries a
  :class:`~repro.cancel.CancelToken`; deadlines arm the token's clock,
  ``cancel()`` trips it explicitly, and the synthesis stages observe it
  at query boundaries (see :mod:`repro.cancel` for why that can never
  leave partial cache entries).  Either way the worker slot is freed and
  the job lands in a terminal state (``timeout`` / ``cancelled``).
* **Coalescing** — identical in-flight submissions (canonical spec hash,
  :mod:`repro.service.coalesce`) share one job.

The scheduler is independent of HTTP: tests and the benchmark drive it
directly, the server wraps it.
"""

from __future__ import annotations

import inspect
import threading
import time
import uuid
from dataclasses import dataclass, field

from .. import faults
from ..cancel import CancelToken
from ..errors import (
    CancelledError,
    CircuitOpenError,
    DeadlineExceededError,
    ProtocolError,
    QueueFullError,
    ReproError,
    ServiceError,
)
from ..faults import BREAKER_STATE_VALUES, CircuitBreaker
from ..synthesis.engine import OracleCache
from ..trace.core import Tracer
from ..trace.log import get_logger
from .coalesce import Coalescer, request_key
from .metrics import MetricsRegistry, observe_synthesis_stats, observe_trace
from .protocol import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JOB_TIMEOUT,
    TERMINAL_STATES,
    CompileRequest,
    CompileResult,
    JobView,
    result_from_compiled,
)

#: terminal jobs retained for ``GET /jobs/<id>`` after completion
MAX_RETAINED = 512

_log = get_logger("repro.service.scheduler")


@dataclass
class Job:
    """One scheduled compilation and its full lifecycle record."""

    id: str
    request: CompileRequest
    key: str
    state: str = JOB_QUEUED
    submitted_mono: float = 0.0  # time.monotonic, for aging/wait math
    submitted_at: float = 0.0  # time.time, for the wire
    started_at: float | None = None
    finished_at: float | None = None
    wait_s: float | None = None
    run_s: float | None = None
    coalesced_waiters: int = 0
    error: str | None = None
    result: CompileResult | None = None
    trace_id: str | None = None
    trace: dict | None = None  # serialized span tree (Tracer.tree())
    node_id: str | None = None  # the daemon that owns this job
    routed_by: str | None = None  # cluster router identity, if dispatched
    cancel_token: CancelToken = field(default_factory=CancelToken)
    done: threading.Event = field(default_factory=threading.Event)

    def view(self) -> JobView:
        return JobView(
            id=self.id,
            state=self.state,
            request=self.request,
            key=self.key,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            wait_s=self.wait_s,
            run_s=self.run_s,
            coalesced_waiters=self.coalesced_waiters,
            error=self.error,
            result=self.result,
            trace_id=self.trace_id,
            degraded=bool(self.result.degraded) if self.result else False,
            node_id=self.node_id,
            routed_by=self.routed_by,
        )


def default_compile_fn(request: CompileRequest, cancel: CancelToken,
                       cache: OracleCache, stats_sink=None,
                       tracer=None, rules=None) -> CompileResult:
    """Compile one workload request against the shared verdict cache.

    This is the serving path's equivalent of the CLI's ``_compile_one``:
    same pipeline, same cycle model, same listings — which is what makes
    server results byte-comparable to one-shot compiles.
    """
    from ..pipeline import compile_pipeline
    from ..sim import measure
    from ..synthesis.stats import SynthesisStats
    from ..workloads.base import get, names

    if request.workload not in names():
        raise ProtocolError(f"unknown workload {request.workload!r}")
    wl = get(request.workload)
    stats = SynthesisStats()
    compiled = compile_pipeline(
        wl.build(),
        backend=request.backend,
        jobs=request.jobs,
        stats=stats,
        cache=cache,
        batch_eval=request.batch_eval,
        cancel=cancel,
        tracer=tracer,
        target=request.target,
        rules=rules,
    )
    cycles = measure(
        compiled, request.width or wl.width, request.height or wl.height
    )
    if stats_sink is not None:
        stats_sink(stats)
    return result_from_compiled(request, compiled, cycles)


class JobScheduler:
    """Bounded queue + worker pool over a shared warm cache.

    ``compile_fn(request, cancel, cache)`` produces a
    :class:`CompileResult`; the default runs the real pipeline.  Tests
    inject stubs to pin scheduling behaviour without synthesis cost.

    Construct with ``paused=True`` (or call :meth:`pause`) to hold workers
    before they pick jobs — this is how tests and the server's smoke check
    make coalescing deterministic.
    """

    def __init__(
        self,
        workers: int = 2,
        queue_size: int = 64,
        cache: OracleCache | None = None,
        cache_dir: str | None = None,
        compile_fn=None,
        metrics: MetricsRegistry | None = None,
        aging_rate: float = 1.0,
        paused: bool = False,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 30.0,
        rules: bool = False,
        rules_dir: str | None = None,
        telemetry_dir: str | None = None,
        node_id: str | None = None,
    ):
        if workers < 1:
            raise ValueError("scheduler needs at least one worker")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self.cache = cache if cache is not None else (
            OracleCache.with_disk(cache_dir) if cache_dir else OracleCache()
        )
        self.compile_fn = compile_fn or default_compile_fn
        # Stubs injected by tests keep the legacy 3-arg signature; only
        # pass a tracer / rule library to compile functions that declare
        # the keyword.
        try:
            params = inspect.signature(self.compile_fn).parameters
            self._compile_takes_tracer = "tracer" in params
            self._compile_takes_rules = "rules" in params
        except (TypeError, ValueError):  # builtins / C callables
            self._compile_takes_tracer = False
            self._compile_takes_rules = False
        # Shared per-target rewrite-rule libraries (repro.rules): created
        # lazily on the first opted-in job for a target, living next to
        # the verdict store unless rules_dir says otherwise.
        self._rules_enabled = bool(rules)
        self._rules_dir = rules_dir if rules_dir is not None else cache_dir
        self._rule_libraries: dict = {}
        self._rules_lock = threading.Lock()
        # Persistent telemetry corpus (repro.telemetry): one record per
        # completed job, strictly best-effort — the store swallows its
        # own write failures, so a broken corpus never fails a job.
        self.telemetry = None
        self._telemetry_dir = telemetry_dir
        if telemetry_dir:
            from ..telemetry import TelemetryStore

            self.telemetry = TelemetryStore(telemetry_dir)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.queue_size = queue_size
        self.aging_rate = aging_rate
        self.node_id = node_id
        self.coalescer = Coalescer()
        # Client idempotency keys → job ids, living as long as the job is
        # retained: a submission retried after a dropped connection maps
        # back onto the job the first attempt minted.
        self._idempotency: dict[str, str] = {}
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold,
            cooldown_s=breaker_cooldown_s,
            on_change=self._on_breaker_change,
        )
        # Every injection from an active fault plan lands in
        # repro_faults_injected_total{site=...} — chaos runs are visible
        # at /metrics, not just in the plan's own trace.
        self._fault_listener = self._on_fault_injected
        faults.add_listener(self._fault_listener)

        self._cond = threading.Condition()
        self._pending: list[Job] = []
        self._jobs: dict[str, Job] = {}
        self._inflight = 0
        self._accepting = True
        self._stop = False
        self._resume = threading.Event()
        if not paused:
            self._resume.set()

        self._init_metrics(workers)
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # -- metrics -----------------------------------------------------------

    def _init_metrics(self, workers: int) -> None:
        m = self.metrics
        m.gauge("repro_workers", "compilation worker threads").set(workers)
        m.gauge("repro_queue_depth", "jobs waiting for a worker")
        m.gauge("repro_jobs_inflight", "jobs currently compiling")
        m.gauge(
            "repro_breaker_state",
            "scheduler circuit breaker (0=closed, 1=half-open, 2=open)",
        ).set(BREAKER_STATE_VALUES[self.breaker.state])
        for name, help_text in (
            ("repro_jobs_submitted_total", "jobs admitted to the queue"),
            ("repro_jobs_coalesced_total",
             "submissions deduplicated onto an in-flight identical job"),
            ("repro_jobs_idempotent_total",
             "retried submissions replayed onto their original job via "
             "the idempotency key"),
            ("repro_jobs_rejected_total",
             "submissions rejected (full queue or shutdown)"),
            ("repro_jobs_completed_total", "jobs finished successfully"),
            ("repro_jobs_failed_total", "jobs that raised an error"),
            ("repro_jobs_cancelled_total", "jobs cancelled before finishing"),
            ("repro_jobs_timeout_total", "jobs that exceeded their deadline"),
            ("repro_jobs_shed_total",
             "submissions shed by the open circuit breaker"),
            ("repro_retries_total",
             "worker-pool batch resubmissions after a crashed dispatch"),
            ("repro_degraded_jobs_total",
             "jobs that completed with a degraded (baseline) result"),
            ("repro_faults_injected_total",
             "faults injected by the active fault plan"),
        ):
            m.counter(name, help_text)
        m.histogram("repro_job_wait_seconds", "queue wait per started job")
        m.histogram("repro_job_run_seconds", "compile time per finished job")

    def _on_breaker_change(self, state: str) -> None:
        self.metrics.gauge("repro_breaker_state").set(
            BREAKER_STATE_VALUES[state]
        )
        _log.warning("circuit breaker state change", state=state,
                     trips=self.breaker.trips)

    def _on_fault_injected(self, record: dict) -> None:
        self.metrics.counter(
            "repro_faults_injected_total",
            "faults injected by the active fault plan",
            labels={"site": record.get("site", "?")},
        ).inc()

    # -- rewrite rules -----------------------------------------------------

    def _rules_for(self, request: CompileRequest):
        """The shared per-target rule library for an opted-in job.

        ``None`` unless the server enabled rules *and* the request asked
        for them — rules change which (verified) program a generalized
        hit selects, so they are never applied to jobs that did not opt
        in.  Library construction failures degrade to no-rules service.
        """
        if not self._rules_enabled or not getattr(request, "rules", False):
            return None
        target = request.target
        with self._rules_lock:
            if target not in self._rule_libraries:
                from ..rules import RuleLibrary, rules_file

                try:
                    self._rule_libraries[target] = RuleLibrary(
                        rules_file(self._rules_dir, target), target=target
                    )
                except Exception:
                    self._rule_libraries[target] = None
            return self._rule_libraries[target]

    # -- admission ---------------------------------------------------------

    def submit(self, request: CompileRequest,
               routed_by: str | None = None) -> tuple[Job, bool]:
        """Admit one request; returns ``(job, coalesced)``.

        A coalesced submission returns the in-flight leader job for an
        identical request instead of queueing a duplicate; a submission
        whose ``idempotency_key`` was already seen returns the job that
        key minted (``coalesced`` is the string ``"idempotent"`` — truthy,
        so callers that only care whether a new job was minted need not
        distinguish).  ``routed_by`` stamps the dispatching cluster
        router's identity onto the job.  Raises :class:`QueueFullError`
        when the queue is at capacity, :class:`CircuitOpenError` while
        the circuit breaker is shedding load after repeated worker
        crashes, and :class:`ServiceError` after shutdown began.
        """
        request.validate()
        replay = self._idempotent_replay(request)
        if replay is not None:
            return replay, "idempotent"
        if not self.breaker.allow():
            self.metrics.counter("repro_jobs_shed_total").inc()
            self.metrics.counter("repro_jobs_rejected_total").inc()
            raise CircuitOpenError(
                "circuit breaker open after repeated job crashes; "
                "shedding load",
                retry_after_s=max(0.1, self.breaker.retry_after_s()),
            )
        try:
            return self._submit_admitted(request, routed_by=routed_by)
        except Exception:
            # If this submission held the half-open probe slot and never
            # became a job (full queue, shutdown), free the slot so the
            # next submission can probe.
            self.breaker.release_probe()
            raise

    def _idempotent_replay(self, request: CompileRequest) -> Job | None:
        """The retained job an already-seen idempotency key minted, if
        any — the retry-safety contract behind ``POST /compile``."""
        if not request.idempotency_key:
            return None
        with self._cond:
            job_id = self._idempotency.get(request.idempotency_key)
            job = self._jobs.get(job_id) if job_id is not None else None
            if job is None:
                return None
            self.metrics.counter("repro_jobs_idempotent_total").inc()
            return job

    def _submit_admitted(self, request: CompileRequest,
                         routed_by: str | None = None) -> tuple[Job, bool]:
        key = request_key(request)
        with self._cond:
            if not self._accepting:
                self.metrics.counter("repro_jobs_rejected_total").inc()
                raise ServiceError("scheduler is shutting down")
            job_box: list = []

            def _mint() -> str:
                if len(self._pending) >= self.queue_size:
                    raise QueueFullError(
                        f"job queue full ({self.queue_size} pending)"
                    )
                now = time.monotonic()
                job = Job(
                    id=uuid.uuid4().hex[:12],
                    request=request,
                    key=key,
                    submitted_mono=now,
                    submitted_at=time.time(),
                    node_id=self.node_id,
                    routed_by=routed_by,
                )
                if request.deadline_s is not None:
                    # Deadlines are a client-facing SLA: the clock starts
                    # at submission, so queue wait counts against it.
                    job.cancel_token.deadline = now + request.deadline_s
                job_box.append(job)
                return job.id

            try:
                job_id, coalesced = self.coalescer.claim(key, _mint)
            except QueueFullError:
                self.metrics.counter("repro_jobs_rejected_total").inc()
                raise
            if coalesced:
                leader = self._jobs[job_id]
                leader.coalesced_waiters = self.coalescer.waiters(key)
                self.metrics.counter("repro_jobs_coalesced_total").inc()
                if request.idempotency_key:
                    # A retry of this submission must replay onto the
                    # leader even after the leader goes terminal.
                    self._idempotency[request.idempotency_key] = leader.id
                return leader, True
            job = job_box[0]
            self._jobs[job.id] = job
            if request.idempotency_key:
                self._idempotency[request.idempotency_key] = job.id
            self._pending.append(job)
            self.metrics.counter("repro_jobs_submitted_total").inc()
            self.metrics.gauge("repro_queue_depth").set(len(self._pending))
            self._trim_retained_locked()
            self._cond.notify()
            return job, False

    # -- queries -----------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._cond:
            return self._jobs.get(job_id)

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        job = self.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        if not job.done.wait(timeout):
            raise ServiceError(f"timed out waiting for job {job_id}")
        return job

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._pending)

    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    # -- cancellation ------------------------------------------------------

    def cancel(self, job_id: str, reason: str = "cancelled by client") -> bool:
        """Cancel a queued or running job; ``False`` if already terminal."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.state in TERMINAL_STATES:
                return False
            if job.state == JOB_QUEUED:
                self._pending.remove(job)
                self.metrics.gauge("repro_queue_depth").set(
                    len(self._pending)
                )
                self._finish_locked(job, JOB_CANCELLED, error=reason)
                return True
        # Running: trip the token; the worker observes it at the next
        # query boundary and finishes the job as cancelled.
        job.cancel_token.cancel(reason)
        return True

    # -- pause/resume (deterministic tests & smoke checks) -----------------

    def pause(self) -> None:
        """Hold workers before they pick the next job (running jobs
        continue)."""
        self._resume.clear()

    def resume(self) -> None:
        self._resume.set()
        with self._cond:
            self._cond.notify_all()

    # -- worker pool -------------------------------------------------------

    def _effective_priority(self, job: Job, now: float) -> float:
        return job.request.priority - self.aging_rate * (
            now - job.submitted_mono
        )

    def _pick_locked(self) -> Job:
        """Pop the pending job with the best aged priority (FIFO on ties)."""
        now = time.monotonic()
        best_index = 0
        best = (self._effective_priority(self._pending[0], now),
                self._pending[0].submitted_mono)
        for i, job in enumerate(self._pending[1:], start=1):
            score = (self._effective_priority(job, now), job.submitted_mono)
            if score < best:
                best, best_index = score, i
        return self._pending.pop(best_index)

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._stop and (
                    not self._pending or not self._resume.is_set()
                ):
                    self._cond.wait(0.1)
                if self._stop and not self._pending:
                    return
                if not self._resume.is_set():
                    continue
                job = self._pick_locked()
                now = time.monotonic()
                job.state = JOB_RUNNING
                job.started_at = time.time()
                job.wait_s = now - job.submitted_mono
                self._inflight += 1
                self.metrics.gauge("repro_queue_depth").set(
                    len(self._pending)
                )
                self.metrics.gauge("repro_jobs_inflight").set(self._inflight)
            self.metrics.histogram("repro_job_wait_seconds").observe(
                job.wait_s
            )
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        start = time.monotonic()
        state, error, result = JOB_DONE, None, None
        tracer = None
        if job.request.trace and self._compile_takes_tracer:
            tracer = Tracer()
            job.trace_id = tracer.trace_id
        _log.info("job started", job=job.id, workload=job.request.workload,
                  backend=job.request.backend, wait_s=round(job.wait_s, 4),
                  trace_id=job.trace_id)
        crashed = False
        try:
            # A job whose deadline lapsed (or that was cancelled) while
            # queued must never start compiling.
            job.cancel_token.check()
            faults.fire(faults.SITE_SCHEDULER_JOB, tracer=tracer)
            kwargs = {}
            if tracer is not None:
                kwargs["tracer"] = tracer
            if self._compile_takes_rules:
                library = self._rules_for(job.request)
                if library is not None:
                    kwargs["rules"] = library
            result = self.compile_fn(
                job.request, job.cancel_token, self.cache, **kwargs
            )
        except DeadlineExceededError as exc:
            state, error = JOB_TIMEOUT, str(exc)
        except CancelledError as exc:
            state, error = JOB_CANCELLED, str(exc)
        except ReproError as exc:
            state, error = JOB_FAILED, str(exc)
        except Exception as exc:  # worker must survive any job
            state, error = JOB_FAILED, f"{type(exc).__name__}: {exc}"
            crashed = True
        run_s = time.monotonic() - start
        # Breaker accounting: only *crashes* (untyped exceptions — the
        # infrastructure failing, not the request) count as failures.
        # Typed job failures prove the worker is healthy and close a
        # half-open breaker; neutral outcomes free the probe slot.
        if crashed:
            self.breaker.record_failure()
        elif state in (JOB_DONE, JOB_FAILED):
            self.breaker.record_success()
        else:
            self.breaker.release_probe()
        if tracer is not None:
            job.trace = tracer.tree()
        self.metrics.histogram("repro_job_run_seconds").observe(run_s)
        if result is not None and result.degraded:
            self.metrics.counter("repro_degraded_jobs_total").inc()
        if result is not None and result.stats:
            observe_synthesis_stats(self.metrics, result.stats)
        if job.trace is not None:
            observe_trace(self.metrics, job.trace)
        if state == JOB_DONE and result is not None:
            # Per-workload x target latency is always on at /metrics;
            # the durable corpus record additionally requires telemetry
            # to have been enabled at construction.
            self.metrics.histogram(
                "repro_compile_seconds",
                "compile seconds per completed job by workload and target",
                labels={"workload": job.request.workload,
                        "target": job.request.target},
            ).observe(run_s)
            self._emit_telemetry(job, result, run_s)
        # Finish last: a waiter woken by ``done`` reads /metrics and the
        # telemetry corpus with this job already in them.
        with self._cond:
            job.run_s = run_s
            self._inflight -= 1
            self.metrics.gauge("repro_jobs_inflight").set(self._inflight)
            self._finish_locked(job, state, error=error, result=result)
        if error is None:
            _log.info("job finished", job=job.id, state=state,
                      run_s=round(run_s, 4))
        else:
            _log.warning("job finished", job=job.id, state=state,
                         run_s=round(run_s, 4), error=error)

    def _emit_telemetry(self, job: Job, result: CompileResult,
                        run_s: float) -> None:
        """Append one corpus record for a completed job; best-effort."""
        if self.telemetry is None:
            return
        from ..telemetry import build_record, emit

        try:
            record = build_record(
                source="service",
                workload=job.request.workload,
                target=job.request.target,
                backend=job.request.backend,
                wall_s=run_s,
                stats=result.stats or None,
                trace_tree=job.trace,
                degraded=bool(result.degraded),
                queue_wait_s=job.wait_s,
                node_id=self.node_id,
                routed_by=job.routed_by,
                knobs={
                    "jobs": job.request.jobs,
                    "batch_eval": job.request.batch_eval,
                    "rules": bool(getattr(job.request, "rules", False)),
                },
                extra={"job_id": job.id},
            )
        except Exception:  # record building must not kill the worker
            return
        emit(self.telemetry, record)

    def telemetry_summary(self) -> dict:
        """The corpus view behind ``GET /telemetry/summary``."""
        if self.telemetry is None:
            return {"enabled": False}
        from ..telemetry import read_store, summarize_groups

        report = read_store(self._telemetry_dir, repair=False)
        return {
            "enabled": True,
            "dir": str(self._telemetry_dir),
            "records": len(report.records),
            "segments": report.segments,
            "corrupt_lines": report.corrupt_lines,
            "appended": self.telemetry.log.appended,
            "write_errors": self.telemetry.log.write_errors,
            "groups": summarize_groups(report.records),
        }

    def _finish_locked(self, job: Job, state: str, error: str | None = None,
                       result: CompileResult | None = None) -> None:
        job.state = state
        job.error = error
        job.result = result
        job.finished_at = time.time()
        job.coalesced_waiters = self.coalescer.waiters(job.key)
        self.coalescer.release(job.key)
        counter = {
            JOB_DONE: "repro_jobs_completed_total",
            JOB_FAILED: "repro_jobs_failed_total",
            JOB_CANCELLED: "repro_jobs_cancelled_total",
            JOB_TIMEOUT: "repro_jobs_timeout_total",
        }[state]
        self.metrics.counter(counter).inc()
        if state in (JOB_CANCELLED, JOB_TIMEOUT):
            # A cancelled/timed-out job proves nothing about worker
            # health; if it held the half-open probe slot, free it.
            self.breaker.release_probe()
        job.done.set()
        self._cond.notify_all()

    def _trim_retained_locked(self) -> None:
        if len(self._jobs) <= MAX_RETAINED:
            return
        terminal = [
            job_id for job_id, job in self._jobs.items()
            if job.state in TERMINAL_STATES
        ]
        excess = len(self._jobs) - MAX_RETAINED
        evicted = set(terminal[:excess])
        for job_id in evicted:
            del self._jobs[job_id]
        if evicted and self._idempotency:
            # Keys outlive their jobs only while the job is retained; a
            # replay after eviction becomes an ordinary fresh submission.
            self._idempotency = {
                k: v for k, v in self._idempotency.items()
                if v not in evicted
            }

    # -- shutdown ----------------------------------------------------------

    def shutdown(self, drain: bool = True,
                 timeout: float | None = None) -> bool:
        """Stop the pool; returns whether all work finished cleanly.

        ``drain=True`` stops admission, lets queued and running jobs
        finish, then joins the workers.  ``drain=False`` cancels queued
        jobs and trips running jobs' tokens first.  Either way the shared
        verdict cache is flushed to disk before returning.
        """
        deadline = time.monotonic() + timeout if timeout is not None else None
        with self._cond:
            self._accepting = False
            if not drain:
                for job in list(self._pending):
                    self._pending.remove(job)
                    self._finish_locked(
                        job, JOB_CANCELLED, error="server shutdown"
                    )
                self.metrics.gauge("repro_queue_depth").set(0)
                for job in self._jobs.values():
                    if job.state == JOB_RUNNING:
                        job.cancel_token.cancel("server shutdown")
            self._resume.set()
            clean = True
            while self._pending or self._inflight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        clean = False
                        break
                self._cond.wait(remaining if remaining is not None else 0.5)
            self._stop = True
            self._cond.notify_all()
        for t in self._threads:
            t.join(timeout=5.0)
        faults.remove_listener(self._fault_listener)
        self.cache.flush()
        with self._rules_lock:
            for library in self._rule_libraries.values():
                if library is not None:
                    library.flush()
        if self.telemetry is not None:
            self.telemetry.flush()
        return clean
