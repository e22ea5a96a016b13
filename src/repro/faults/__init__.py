"""Deterministic fault injection and the resilience primitives it exercises.

``repro.faults`` is the chaos-testing layer for the whole stack: named
injection *sites* are threaded through the hot paths (oracle queries,
oracle cache load/flush, batched-eval plan compilation, scheduler job
execution, the HTTP request path), and a seeded :class:`FaultPlan`
decides — deterministically — which calls to those sites inject a raised
exception, an ``OSError``, latency, a torn cache write or a socket
reset.  Every injection is recorded, so a chaos run is
replayable: same plan + same seed ⇒ same injection trace.

The package also houses the resilience primitives the chaos suite
exercises:

* :class:`~repro.faults.retry.RetryPolicy` — bounded retry with
  exponential backoff and deterministic jitter (the service client's
  transient-connection retry).
* :class:`~repro.faults.breaker.CircuitBreaker` — a
  closed → open → half-open breaker the scheduler uses to shed load
  after consecutive job crashes.

See ``docs/robustness.md`` for the fault-plan JSON format and the full
site catalogue.
"""

from .breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BREAKER_STATE_VALUES,
    CircuitBreaker,
)
from .core import (
    KIND_ERROR,
    KIND_LATENCY,
    KIND_OSERROR,
    KIND_SOCKET_RESET,
    KIND_TORN_WRITE,
    KINDS,
    SITE_CACHE_FLUSH,
    SITE_CACHE_LOAD,
    SITE_CACHETIER_GET,
    SITE_CACHETIER_PUT,
    SITE_ORACLE_QUERY,
    SITE_PLAN_COMPILE,
    SITE_ROUTER_FORWARD,
    SITE_RULES_LOAD,
    SITE_SCHEDULER_JOB,
    SITE_SERVER_REQUEST,
    SITE_TELEMETRY_FLUSH,
    SITE_WORKER_HEALTH,
    SITES,
    FaultPlan,
    FaultRule,
    InjectedFaultError,
    active_plan,
    activate,
    add_listener,
    builtin_plans,
    corrupt,
    deactivate,
    fire,
    injected,
    load_plan,
    remove_listener,
)
from .retry import RetryPolicy

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BREAKER_STATE_VALUES",
    "CircuitBreaker",
    "FaultPlan",
    "FaultRule",
    "InjectedFaultError",
    "KIND_ERROR",
    "KIND_LATENCY",
    "KIND_OSERROR",
    "KIND_SOCKET_RESET",
    "KIND_TORN_WRITE",
    "KINDS",
    "RetryPolicy",
    "SITE_CACHE_FLUSH",
    "SITE_CACHE_LOAD",
    "SITE_CACHETIER_GET",
    "SITE_CACHETIER_PUT",
    "SITE_ORACLE_QUERY",
    "SITE_PLAN_COMPILE",
    "SITE_ROUTER_FORWARD",
    "SITE_RULES_LOAD",
    "SITE_SCHEDULER_JOB",
    "SITE_SERVER_REQUEST",
    "SITE_TELEMETRY_FLUSH",
    "SITE_WORKER_HEALTH",
    "SITES",
    "activate",
    "active_plan",
    "add_listener",
    "builtin_plans",
    "corrupt",
    "deactivate",
    "fire",
    "injected",
    "load_plan",
    "remove_listener",
]
