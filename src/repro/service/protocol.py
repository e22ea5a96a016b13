"""Wire protocol for the compilation service.

Typed request/response dataclasses with versioned JSON encodings.  Every
message carries ``"v": PROTOCOL_VERSION``; the server rejects versions it
does not speak with a :class:`~repro.errors.ProtocolError` rather than
guessing, and tolerates *unknown* fields inside a known version so older
clients keep working against newer servers.

The dataclasses are the single source of truth: the HTTP server and the
Python client both (de)serialize exclusively through ``to_dict`` /
``from_dict``, and the tests round-trip every message kind.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from urllib.parse import parse_qs

from ..errors import ProtocolError

#: bump when a message's meaning changes; additions of optional fields
#: with safe defaults do NOT require a bump.
#: v2: requests carry a ``target`` ISA — a v1 server would silently
#: compile for HVX, a different result, so this is a meaning change.
#: v3: submissions carry a client-generated ``idempotency_key`` that the
#: server dedupes on — a v2 server would run a retried ``POST /compile``
#: twice, a different admission behaviour, so this is a meaning change.
#: Job views additionally carry the serving ``node_id`` (and, through a
#: cluster router, ``routed_by``).
#: v4: ``GET /jobs/<id>?wait=S`` holds the reply until the job is
#: terminal or S seconds pass — a v3 server would answer at once and a v4
#: client waiting on it would spin, so this is a meaning change.
PROTOCOL_VERSION = 4

BACKENDS = ("rake", "baseline")

TARGETS = ("hvx", "neon")

# -- job lifecycle states ----------------------------------------------------

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"
JOB_TIMEOUT = "timeout"

JOB_STATES = (
    JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED, JOB_CANCELLED, JOB_TIMEOUT
)

#: states a job can never leave
TERMINAL_STATES = (JOB_DONE, JOB_FAILED, JOB_CANCELLED, JOB_TIMEOUT)

#: longest one ``GET /jobs/<id>?wait=S`` long-poll holds its reply; larger
#: windows are clamped, so a waiter re-asks at least this often
MAX_WAIT_S = 10.0


def parse_wait(query: str | None) -> float:
    """The long-poll window ``S`` of ``GET /jobs/<id>?wait=S``, in seconds.

    No ``wait`` means 0 (answer at once); a window above
    :data:`MAX_WAIT_S` is clamped to it.  Anything but a finite,
    non-negative number is a :class:`ProtocolError` (HTTP 400).
    """
    values = parse_qs(query or "", keep_blank_values=True).get("wait")
    if not values:
        return 0.0
    try:
        wait = float(values[-1])
    except ValueError:
        wait = math.nan
    if not math.isfinite(wait) or wait < 0:
        raise ProtocolError(
            f"wait must be a finite number of seconds >= 0, "
            f"got {values[-1]!r}"
        )
    return min(wait, MAX_WAIT_S)


def _require_version(data: dict, kind: str) -> None:
    version = data.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"{kind}: unsupported protocol version {version!r} "
            f"(this build speaks {PROTOCOL_VERSION})"
        )


@dataclass(frozen=True)
class CompileRequest:
    """One compilation submission.

    ``priority`` orders the queue (lower runs first; the scheduler ages
    waiting jobs so low-priority ones are never starved).  ``deadline_s``
    bounds wall-clock time from *submission* — queue wait counts, so it is
    a client-facing SLA; past it, the job is cooperatively cancelled and
    reported as ``timeout`` (a lapsed job never starts compiling).  ``jobs`` is the per-job equivalence-check fan-out (the
    service's worker pool is the outer level of parallelism).

    ``trace=True`` records a hierarchical span tree for the compilation
    (see :mod:`repro.trace`); the job's ``trace_id`` appears in its
    :class:`JobView` and ``GET /jobs/<id>?trace=1`` returns the tree.

    ``rules=True`` opts the job into the server's rewrite-rule fast path
    (:mod:`repro.rules`); it is honored only when the server was started
    with rules enabled, and it participates in the coalescing key since
    a generalized rule hit may select a different (equally verified)
    program than a fresh synthesis.

    ``idempotency_key`` (v3) is a client-generated opaque token: the
    server remembers which job each key minted, so a submission retried
    after a dropped connection lands on the *same* job instead of
    double-running.  The client fills it automatically; the cluster
    router relies on it to make failover re-dispatch safe.
    """

    workload: str
    backend: str = "rake"
    target: str = "hvx"
    width: int | None = None
    height: int | None = None
    priority: int = 10
    deadline_s: float | None = None
    jobs: int = 1
    batch_eval: bool = True
    trace: bool = False
    rules: bool = False
    idempotency_key: str | None = None

    def validate(self, known_workloads=None) -> "CompileRequest":
        if not self.workload or not isinstance(self.workload, str):
            raise ProtocolError("compile request: missing workload name")
        if known_workloads is not None and self.workload not in known_workloads:
            raise ProtocolError(
                f"compile request: unknown workload {self.workload!r}"
            )
        if self.backend not in BACKENDS:
            raise ProtocolError(
                f"compile request: unknown backend {self.backend!r} "
                f"(expected one of {', '.join(BACKENDS)})"
            )
        if self.target not in TARGETS:
            raise ProtocolError(
                f"compile request: unknown target {self.target!r} "
                f"(expected one of {', '.join(TARGETS)})"
            )
        for name in ("width", "height"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or value <= 0):
                raise ProtocolError(
                    f"compile request: {name} must be a positive integer"
                )
        if not isinstance(self.priority, int):
            raise ProtocolError("compile request: priority must be an integer")
        if self.deadline_s is not None and (
            not isinstance(self.deadline_s, (int, float)) or self.deadline_s <= 0
        ):
            raise ProtocolError(
                "compile request: deadline_s must be a positive number"
            )
        if not isinstance(self.jobs, int) or self.jobs < 1:
            raise ProtocolError("compile request: jobs must be >= 1")
        if not isinstance(self.trace, bool):
            raise ProtocolError("compile request: trace must be a boolean")
        if not isinstance(self.rules, bool):
            raise ProtocolError("compile request: rules must be a boolean")
        if self.idempotency_key is not None and (
            not isinstance(self.idempotency_key, str)
            or not self.idempotency_key
            or len(self.idempotency_key) > 128
        ):
            raise ProtocolError(
                "compile request: idempotency_key must be a non-empty "
                "string of at most 128 characters"
            )
        return self

    def to_dict(self) -> dict:
        data = asdict(self)
        data["v"] = PROTOCOL_VERSION
        return data

    @classmethod
    def from_dict(cls, data) -> "CompileRequest":
        if not isinstance(data, dict):
            raise ProtocolError("compile request: body must be a JSON object")
        _require_version(data, "compile request")
        known = {f: data[f] for f in (
            "workload", "backend", "target", "width", "height", "priority",
            "deadline_s", "jobs", "batch_eval", "trace", "rules",
            "idempotency_key",
        ) if f in data}
        try:
            return cls(**known).validate()
        except TypeError as exc:  # pragma: no cover - defensive
            raise ProtocolError(f"compile request: {exc}") from exc


@dataclass(frozen=True)
class CompileResult:
    """The service-side rendering of one compiled pipeline.

    ``programs`` carries the selected instruction listing per non-trivial
    expression (``program_listing`` text), which is what the acceptance
    check compares byte-for-byte against the one-shot CLI.  ``stats`` is
    the full :meth:`SynthesisStats.as_dict` payload.
    """

    workload: str
    backend: str
    total_cycles: int
    target: str = "hvx"
    stage_cycles: tuple = ()  # tuple[dict]: name/total/compute_ii/...
    programs: tuple = ()  # tuple[dict]: stage/selector/listing
    optimized_exprs: int = 0
    fallbacks: int = 0
    #: synthesis crashed past its retry budget on >= 1 expression and the
    #: pipeline substituted the (verified) baseline lowering — the result
    #: is correct but not the optimized program the client asked for
    degraded: bool = False
    #: expressions answered by the rewrite-rule fast path (also flagged
    #: per program as ``rule_hit`` in ``programs``)
    rule_hits: int = 0
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["stage_cycles"] = list(self.stage_cycles)
        data["programs"] = list(self.programs)
        data["v"] = PROTOCOL_VERSION
        return data

    @classmethod
    def from_dict(cls, data) -> "CompileResult":
        if not isinstance(data, dict):
            raise ProtocolError("compile result: body must be a JSON object")
        _require_version(data, "compile result")
        try:
            return cls(
                workload=data["workload"],
                backend=data["backend"],
                total_cycles=int(data["total_cycles"]),
                target=data.get("target", "hvx"),
                stage_cycles=tuple(data.get("stage_cycles", ())),
                programs=tuple(data.get("programs", ())),
                optimized_exprs=int(data.get("optimized_exprs", 0)),
                fallbacks=int(data.get("fallbacks", 0)),
                degraded=bool(data.get("degraded", False)),
                rule_hits=int(data.get("rule_hits", 0)),
                stats=dict(data.get("stats", {})),
            )
        except KeyError as exc:
            raise ProtocolError(f"compile result: missing field {exc}") from exc


@dataclass(frozen=True)
class JobView:
    """The wire form of a scheduled job, as returned by ``GET /jobs/<id>``."""

    id: str
    state: str
    request: CompileRequest
    key: str = ""  # coalescing key (the canonical spec hash)
    submitted_at: float = 0.0  # server wall-clock (time.time)
    started_at: float | None = None
    finished_at: float | None = None
    wait_s: float | None = None
    run_s: float | None = None
    coalesced_waiters: int = 0
    error: str | None = None
    result: CompileResult | None = None
    trace_id: str | None = None
    #: mirrors ``result.degraded`` at the job level so clients can gate
    #: on it without unpacking the result payload
    degraded: bool = False
    #: identity of the worker daemon that ran (or is running) the job
    node_id: str | None = None
    #: identity of the cluster router that dispatched it, if any
    routed_by: str | None = None

    def to_dict(self) -> dict:
        return {
            "v": PROTOCOL_VERSION,
            "id": self.id,
            "state": self.state,
            "request": self.request.to_dict(),
            "key": self.key,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wait_s": self.wait_s,
            "run_s": self.run_s,
            "coalesced_waiters": self.coalesced_waiters,
            "error": self.error,
            "result": self.result.to_dict() if self.result else None,
            "trace_id": self.trace_id,
            "degraded": self.degraded,
            "node_id": self.node_id,
            "routed_by": self.routed_by,
        }

    @classmethod
    def from_dict(cls, data) -> "JobView":
        if not isinstance(data, dict):
            raise ProtocolError("job view: body must be a JSON object")
        _require_version(data, "job view")
        try:
            state = data["state"]
            if state not in JOB_STATES:
                raise ProtocolError(f"job view: unknown state {state!r}")
            result = data.get("result")
            return cls(
                id=data["id"],
                state=state,
                request=CompileRequest.from_dict(data["request"]),
                key=data.get("key", ""),
                submitted_at=data.get("submitted_at", 0.0),
                started_at=data.get("started_at"),
                finished_at=data.get("finished_at"),
                wait_s=data.get("wait_s"),
                run_s=data.get("run_s"),
                coalesced_waiters=data.get("coalesced_waiters", 0),
                error=data.get("error"),
                result=CompileResult.from_dict(result) if result else None,
                trace_id=data.get("trace_id"),
                degraded=bool(data.get("degraded", False)),
                node_id=data.get("node_id"),
                routed_by=data.get("routed_by"),
            )
        except KeyError as exc:
            raise ProtocolError(f"job view: missing field {exc}") from exc

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


def result_from_compiled(request: CompileRequest, compiled,
                         cycles) -> CompileResult:
    """Build the wire result from a :class:`CompiledPipeline` + cycle model.

    Listings are rendered with the same ``program_listing`` the CLI's
    ``--show-programs`` uses, so a service compile and a one-shot compile
    of the same workload are comparable byte for byte.
    """
    from ..hvx import program_listing

    programs = []
    for cstage in compiled.stages:
        for ce in cstage.exprs:
            if ce.selector == "trivial":
                continue
            programs.append({
                "stage": cstage.name,
                "selector": ce.selector,
                "listing": program_listing(ce.program),
                "rule_hit": bool(getattr(ce, "via_rule", False)),
            })
    stage_cycles = tuple(
        {
            "name": sc.name,
            "total": sc.total,
            "compute_ii": sc.compute_ii,
            "memory_cycles": sc.memory_cycles,
            "bound": sc.bound,
        }
        for sc in cycles.stages
    )
    return CompileResult(
        workload=request.workload,
        backend=request.backend,
        total_cycles=cycles.total,
        target=getattr(compiled, "target", request.target),
        stage_cycles=stage_cycles,
        programs=tuple(programs),
        optimized_exprs=compiled.optimized_exprs,
        fallbacks=compiled.fallbacks,
        degraded=bool(getattr(compiled, "degraded", False)),
        rule_hits=int(getattr(compiled, "rule_hits", 0)),
        stats=compiled.stats.as_dict(),
    )
