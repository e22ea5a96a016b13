"""repro.service — a long-lived compilation server above the engine.

The one-shot CLI rebuilds every engine structure per invocation; the
service keeps them alive.  One process owns a shared
:class:`~repro.synthesis.engine.OracleCache` (optionally disk-backed), a
bounded priority scheduler feeding a worker pool, and an in-flight
request coalescer, and exposes the whole thing as JSON over HTTP:

* :mod:`repro.service.protocol` — versioned request/response dataclasses
* :mod:`repro.service.coalesce` — in-flight deduplication on the engine's
  canonical spec hash
* :mod:`repro.service.scheduler` — bounded queue, priority aging,
  deadlines, cooperative cancellation, worker pool
* :mod:`repro.service.metrics`  — counters/gauges/histograms for /metrics
* :mod:`repro.service.server`   — the HTTP daemon (stdlib ``http.server``)
* :mod:`repro.service.client`   — a blocking, long-polling Python client

See ``docs/service.md`` for the wire API and lifecycle semantics.
"""

from .client import ServiceClient
from .coalesce import Coalescer, request_key
from .metrics import MetricsRegistry
from .protocol import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JOB_TIMEOUT,
    PROTOCOL_VERSION,
    CompileRequest,
    CompileResult,
    JobView,
)
from .scheduler import Job, JobScheduler
from .server import CompileServer

__all__ = [
    "CompileRequest",
    "CompileResult",
    "CompileServer",
    "Coalescer",
    "Job",
    "JobScheduler",
    "JobView",
    "JOB_CANCELLED",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_TIMEOUT",
    "MetricsRegistry",
    "PROTOCOL_VERSION",
    "ServiceClient",
    "request_key",
]
