"""Seeded fault plans and the ambient injection API.

Design constraints, in order:

1. **Zero overhead when disabled.**  Every instrumented hot path calls
   :func:`fire` unconditionally; with no active plan that is one global
   load and one ``None`` check — the same budget as the null tracer.
2. **Deterministic.**  Rules trigger on call counts (``on_nth``,
   ``every``) or on a probability drawn from a *per-site* RNG seeded by
   ``(plan seed, site)``, so one site's draw sequence never depends on
   how other sites interleave across threads.  Injection records carry
   sequence numbers, not timestamps, so two runs with the same seed
   produce byte-identical traces.
3. **Composable from JSON.**  A plan round-trips through a plain dict
   (``{"seed": 0, "rules": [{"site": ..., "kind": ..., ...}]}``), which
   is what makes chaos runs replayable from a file checked into CI.

The injected failure *kinds* mirror what production actually throws at
the stack: ``oserror`` raises :class:`OSError` (disk trouble), ``error``
raises :class:`InjectedFaultError` (an arbitrary in-process bug, such as
a crashed synthesis), ``latency`` sleeps, and ``torn_write`` /
``socket_reset`` are returned to the call site, which owns the byte
truncation or connection teardown.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# -- injection sites ---------------------------------------------------------

SITE_ORACLE_QUERY = "oracle.query"      # every full oracle query
SITE_CACHE_LOAD = "cache.load"          # verdict-store JSONL load
SITE_CACHE_FLUSH = "cache.flush"        # verdict-store JSONL append
SITE_PLAN_COMPILE = "eval.plan_compile"  # batched-eval plan compilation
SITE_SCHEDULER_JOB = "scheduler.job"    # scheduler job execution
SITE_SERVER_REQUEST = "server.request"  # HTTP request/response path
SITE_RULES_LOAD = "rules.load"          # rewrite-rule library JSONL load
SITE_TELEMETRY_FLUSH = "telemetry.flush"  # telemetry segment JSONL append
SITE_ROUTER_FORWARD = "router.forward"  # cluster router → worker dispatch
SITE_CACHETIER_GET = "cachetier.get"    # shared cache-tier lookup RPC
SITE_CACHETIER_PUT = "cachetier.put"    # shared cache-tier publish RPC
SITE_WORKER_HEALTH = "worker.health"    # router health probe of one node

SITES = (
    SITE_ORACLE_QUERY,
    SITE_CACHE_LOAD,
    SITE_CACHE_FLUSH,
    SITE_PLAN_COMPILE,
    SITE_SCHEDULER_JOB,
    SITE_SERVER_REQUEST,
    SITE_RULES_LOAD,
    SITE_TELEMETRY_FLUSH,
    SITE_ROUTER_FORWARD,
    SITE_CACHETIER_GET,
    SITE_CACHETIER_PUT,
    SITE_WORKER_HEALTH,
)

# -- failure kinds -----------------------------------------------------------

KIND_ERROR = "error"              # raise InjectedFaultError
KIND_OSERROR = "oserror"          # raise OSError (disk/socket trouble)
KIND_LATENCY = "latency"          # sleep latency_s, then continue
KIND_TORN_WRITE = "torn_write"    # caller truncates the payload mid-line
KIND_SOCKET_RESET = "socket_reset"  # caller resets the connection

KINDS = (
    KIND_ERROR, KIND_OSERROR, KIND_LATENCY, KIND_TORN_WRITE,
    KIND_SOCKET_RESET,
)

#: kinds :func:`fire` resolves by raising; the rest return the rule so the
#: call site can perform the byte- or socket-level damage itself
_RAISING_KINDS = (KIND_ERROR, KIND_OSERROR)


class InjectedFaultError(Exception):
    """An injected in-process failure.

    Deliberately **not** a :class:`~repro.errors.ReproError`: it models an
    unexpected crash (the bug you did not write a typed error for), which
    is exactly the path the resilience layers must survive.
    """


@dataclass
class FaultRule:
    """One trigger at one site.

    Exactly one trigger should be set: ``on_nth`` fires on the Nth call
    to the site (1-based), ``every`` fires on every Nth call, ``p`` fires
    with seeded probability per call.  ``max_fires`` bounds the total
    number of injections from this rule (``None`` = unbounded).
    """

    site: str
    kind: str
    on_nth: int | None = None
    every: int | None = None
    p: float = 0.0
    max_fires: int | None = None
    latency_s: float = 0.0
    message: str = ""
    fires: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not self.site:
            raise ValueError("fault rule needs a site")

    def wants(self, call: int, rng: random.Random) -> bool:
        """Whether this rule fires on the ``call``-th call (1-based)."""
        if self.max_fires is not None and self.fires >= self.max_fires:
            return False
        if self.on_nth is not None:
            return call == self.on_nth
        if self.every is not None and self.every > 0:
            return call % self.every == 0
        if self.p > 0.0:
            return rng.random() < self.p
        return False

    def to_dict(self) -> dict:
        data = {"site": self.site, "kind": self.kind}
        if self.on_nth is not None:
            data["on_nth"] = self.on_nth
        if self.every is not None:
            data["every"] = self.every
        if self.p:
            data["p"] = self.p
        if self.max_fires is not None:
            data["max_fires"] = self.max_fires
        if self.latency_s:
            data["latency_s"] = self.latency_s
        if self.message:
            data["message"] = self.message
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        if not isinstance(data, dict):
            raise ValueError("fault rule must be a JSON object")
        unknown = set(data) - {
            "site", "kind", "on_nth", "every", "p", "max_fires",
            "latency_s", "message",
        }
        if unknown:
            raise ValueError(
                f"fault rule has unknown fields: {', '.join(sorted(unknown))}"
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValueError(f"bad fault rule: {exc}") from exc


def _site_rng(seed: int, site: str) -> random.Random:
    """A per-site RNG: one site's draw sequence is independent of how
    calls to *other* sites interleave across threads."""
    digest = hashlib.sha256(f"{seed}|{site}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class FaultPlan:
    """A seeded, replayable set of fault rules.

    Thread-safe: sites are hit from worker threads, the scheduler pool
    and HTTP handler threads concurrently; per-site call counters and the
    injection log are kept under one lock.
    """

    def __init__(self, rules=(), seed: int = 0, name: str = ""):
        self.seed = int(seed)
        self.name = name
        self.rules: list[FaultRule] = [
            r if isinstance(r, FaultRule) else FaultRule.from_dict(r)
            for r in rules
        ]
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}
        self._rngs: dict[str, random.Random] = {}
        self.injections: list[dict] = []

    # -- the decision ------------------------------------------------------

    def decide(self, site: str) -> FaultRule | None:
        """Count one call to ``site``; return the rule to inject, if any."""
        with self._lock:
            call = self._calls.get(site, 0) + 1
            self._calls[site] = call
            rng = self._rngs.get(site)
            if rng is None:
                rng = self._rngs[site] = _site_rng(self.seed, site)
            for rule in self.rules:
                if rule.site == site and rule.wants(call, rng):
                    rule.fires += 1
                    record = {
                        "seq": len(self.injections) + 1,
                        "site": site,
                        "kind": rule.kind,
                        "call": call,
                    }
                    self.injections.append(record)
                    return rule
            return None

    # -- introspection -----------------------------------------------------

    def calls(self, site: str) -> int:
        with self._lock:
            return self._calls.get(site, 0)

    def injected_total(self) -> int:
        with self._lock:
            return len(self.injections)

    def by_site(self) -> dict:
        """Injection counts per site (for ``/metrics`` and CLI summaries)."""
        with self._lock:
            counts: dict[str, int] = {}
            for record in self.injections:
                counts[record["site"]] = counts.get(record["site"], 0) + 1
            return counts

    def trace(self) -> list:
        """The injection log (sequence numbers, no timestamps — two runs
        with the same seed compare equal)."""
        with self._lock:
            return [dict(r) for r in self.injections]

    def reset(self) -> None:
        """Clear counters and the log so the same plan replays from zero."""
        with self._lock:
            self._calls.clear()
            self._rngs.clear()
            self.injections.clear()
            for rule in self.rules:
                rule.fires = 0

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict:
        data = {"seed": self.seed, "rules": [r.to_dict() for r in self.rules]}
        if self.name:
            data["name"] = self.name
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError("fault plan must be a JSON object")
        return cls(
            rules=data.get("rules", ()),
            seed=data.get("seed", 0),
            name=data.get("name", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Ambient injection API
# ---------------------------------------------------------------------------

_active: FaultPlan | None = None
_listeners: list = []
_state_lock = threading.Lock()


def activate(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` as the process-wide active plan."""
    global _active
    with _state_lock:
        _active = plan
    return plan


def deactivate() -> None:
    global _active
    with _state_lock:
        _active = None


def active_plan() -> FaultPlan | None:
    return _active


@contextmanager
def injected(plan: FaultPlan):
    """Activate ``plan`` for the duration of the block (tests, CLI)."""
    previous = _active
    activate(plan)
    try:
        yield plan
    finally:
        with _state_lock:
            globals()["_active"] = previous


def add_listener(fn) -> None:
    """Register ``fn(record)`` to observe every injection (metrics)."""
    with _state_lock:
        if fn not in _listeners:
            _listeners.append(fn)


def remove_listener(fn) -> None:
    with _state_lock:
        if fn in _listeners:
            _listeners.remove(fn)


def _notify(record: dict) -> None:
    for fn in list(_listeners):
        try:
            fn(record)
        except Exception:  # a broken listener must never amplify a fault
            pass


def fire(site: str, tracer=None) -> FaultRule | None:
    """One call to an injection site.

    With no active plan: one global load, one ``None`` check, return.
    With a plan whose rule fires: record the injection (and a trace event
    when ``tracer`` is given), then raise for the raising kinds, sleep
    for ``latency``, or return the rule for the kinds the call site
    implements itself (``torn_write``, ``socket_reset``).
    """
    plan = _active
    if plan is None:
        return None
    rule = plan.decide(site)
    if rule is None:
        return None
    _notify(plan.injections[-1])
    if tracer is not None:
        tracer.event("fault.injected", site=site, kind=rule.kind)
    if rule.kind == KIND_LATENCY:
        time.sleep(rule.latency_s)
        return rule
    if rule.kind in _RAISING_KINDS:
        message = rule.message or f"injected {rule.kind} at {site}"
        if rule.kind == KIND_OSERROR:
            raise OSError(message)
        raise InjectedFaultError(message)
    return rule


def corrupt(site: str, payload: bytes) -> bytes:
    """Fire ``site`` and apply a torn write to ``payload`` if injected.

    A torn write truncates the batch mid-line — the exact shape a crashed
    or concurrently-killed writer leaves behind — so loaders must prove
    they skip the partial record.  Raising kinds raise as usual.
    """
    rule = fire(site)
    if rule is not None and rule.kind == KIND_TORN_WRITE:
        cut = max(1, (len(payload) * 2) // 3)
        return payload[:cut]
    return payload


# ---------------------------------------------------------------------------
# Built-in chaos plans
# ---------------------------------------------------------------------------


def builtin_plans() -> dict:
    """The named chaos plans the invariant suite and CI replay.

    Fresh instances on every call (plans carry mutable counters).
    """
    return {
        "torn-cache": FaultPlan(name="torn-cache", seed=11, rules=[
            # Every other cache flush lands torn; the CRC loader must
            # skip the partial tail and quarantine + compact the store.
            FaultRule(site=SITE_CACHE_FLUSH, kind=KIND_TORN_WRITE, every=2),
        ]),
        "slow-oracle": FaultPlan(name="slow-oracle", seed=13, rules=[
            # Every oracle query pays injected latency; with a deadline
            # the compile must end in a typed timeout, never a hang.
            FaultRule(site=SITE_ORACLE_QUERY, kind=KIND_LATENCY,
                      every=1, latency_s=0.02),
        ]),
        "socket-reset": FaultPlan(name="socket-reset", seed=17, rules=[
            # One HTTP exchange is reset mid-flight — the 2nd, the first
            # status read after a submit; the waiting client's transient
            # retry must absorb it.
            FaultRule(site=SITE_SERVER_REQUEST, kind=KIND_SOCKET_RESET,
                      on_nth=2, max_fires=1),
        ]),
        "cachetier-outage": FaultPlan(name="cachetier-outage", seed=23, rules=[
            # The shared cache tier goes dark: every get and put fails.
            # Workers must degrade to their node-local caches silently —
            # a compile may get slower, never wronger, never failed.
            FaultRule(site=SITE_CACHETIER_GET, kind=KIND_OSERROR, every=1),
            FaultRule(site=SITE_CACHETIER_PUT, kind=KIND_OSERROR, every=1),
        ]),
        "router-flap": FaultPlan(name="router-flap", seed=29, rules=[
            # One forward dies on the wire and one health probe lies;
            # the router must retry on the next node and keep serving.
            FaultRule(site=SITE_ROUTER_FORWARD, kind=KIND_OSERROR,
                      on_nth=1, max_fires=1),
            FaultRule(site=SITE_WORKER_HEALTH, kind=KIND_OSERROR,
                      on_nth=2, max_fires=1),
        ]),
    }


def load_plan(source: str) -> FaultPlan:
    """A plan from a built-in name or a JSON file path."""
    plans = builtin_plans()
    if source in plans:
        return plans[source]
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return FaultPlan.from_json(fh.read())
    except OSError as exc:
        raise ValueError(
            f"fault plan {source!r} is neither a built-in plan "
            f"({', '.join(sorted(plans))}) nor a readable file: "
            f"{exc.strerror or exc}"
        ) from exc
