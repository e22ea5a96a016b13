"""In-flight request coalescing.

N identical concurrent submissions should run **one** synthesis and fan
the result out to every waiter.  Identity is decided the same way the
engine decides verdict identity: the request's workload pipeline is
lowered and every stage expression is rendered through
:func:`repro.synthesis.engine.canonical_spec` — the rename-insensitive
structural rendering under the verdict cache and the rewrite-rule
library — together with the knobs that
can change the *result* (backend, target, image size, rules).
Parameters that only change scheduling (``priority``, ``deadline_s``)
are deliberately excluded, so a patient submission and an urgent one
still coalesce.

The coalescer tracks keys for **active** (queued or running) jobs only:
once a job reaches a terminal state its key is released, and the next
identical submission becomes a fresh job — which then runs against warm
caches instead of piggybacking.
"""

from __future__ import annotations

import hashlib
import threading

from ..frontend import lower_pipeline
from ..synthesis.engine import canonical_spec
from ..targets import resolve_target
from ..workloads.base import get
from .protocol import CompileRequest

#: canonical spec renderings are deterministic per (workload, target);
#: memoize
_SPEC_HASH_CACHE: dict = {}
_SPEC_HASH_LOCK = threading.Lock()


def _spec_hash(workload: str, target: str = "hvx") -> str:
    """Canonical hash of every vector expression the workload compiles.

    The target decides the lowering width, so the same workload hashes
    differently per target — HVX and Neon submissions never share a key.
    """
    cache_key = (workload, target)
    with _SPEC_HASH_LOCK:
        cached = _SPEC_HASH_CACHE.get(cache_key)
    if cached is not None:
        return cached
    tgt = resolve_target(target)
    lowered = lower_pipeline(get(workload).build(), vector_bytes=tgt.vbytes)
    parts = []
    for stage in lowered.stages:
        for expr in stage.exprs:
            parts.append(canonical_spec(expr))
    digest = hashlib.sha256("|".join(parts).encode()).hexdigest()
    with _SPEC_HASH_LOCK:
        _SPEC_HASH_CACHE[cache_key] = digest
    return digest


def request_key(request: CompileRequest) -> str:
    """Coalescing key: canonical spec hash x result-affecting knobs."""
    raw = "|".join((
        _spec_hash(request.workload, request.target),
        request.backend,
        request.target,
        str(request.width),
        str(request.height),
        # A generalized rule hit may select a different (equally
        # verified) program, so rules-on and rules-off jobs never share
        # a leader.
        str(bool(getattr(request, "rules", False))),
    ))
    return hashlib.sha256(raw.encode()).hexdigest()


class Coalescer:
    """Maps active coalescing keys to job ids.

    ``claim(key, job_id_factory)`` either returns the id of the active
    leader job for ``key`` (a coalesced submission) or mints a new job id
    through the factory and records it as the leader.  ``release(key)``
    drops the mapping when the leader reaches a terminal state.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._active: dict[str, str] = {}
        self._waiters: dict[str, int] = {}
        self.coalesced_total = 0

    def claim(self, key: str, job_id_factory) -> tuple[str, bool]:
        """Return ``(job_id, coalesced)`` for a submission under ``key``."""
        with self._lock:
            leader = self._active.get(key)
            if leader is not None:
                self.coalesced_total += 1
                self._waiters[key] = self._waiters.get(key, 0) + 1
                return leader, True
            job_id = job_id_factory()
            self._active[key] = job_id
            self._waiters[key] = 0
            return job_id, False

    def waiters(self, key: str) -> int:
        """How many submissions coalesced onto the active leader."""
        with self._lock:
            return self._waiters.get(key, 0)

    def release(self, key: str) -> None:
        with self._lock:
            self._active.pop(key, None)
            self._waiters.pop(key, None)

    def active(self) -> int:
        with self._lock:
            return len(self._active)
