"""The benchmark's own span recorder and the per-layer wrappers.

Each timed entry point of a layer is replaced, for the traced run only,
by a wrapper that records one span: name, start, end, parent span and
request id.  Spans stay in memory and are written out when the run ends.
The recorder lives here, not in ``repro.trace``, so a change to the
program's tracing cannot change how the benchmark measures.

A wrapper may also record one small outcome with its span (a cache hit,
a fingerprint-class hit, a full oracle check), so ratios are counted at
the same boundary where the time is measured.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        #: (id, parent, name, request id, start, end, outcome)
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []

    # -- request scope -------------------------------------------------------

    def set_request(self, rid) -> None:
        """Attribute this thread's following spans to request ``rid``."""
        self._local.rid = rid

    def wrap(self, name: str, fn, pre=None, post=None):
        """``fn`` recording a ``name`` span per call.

        ``pre(args)`` runs before the call; ``post(args, result, pre)``
        after it, and its value is stored as the span's outcome.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = recorder._local
            stack = local.__dict__.setdefault("stack", [])
            sid = next(recorder._ids)
            parent = stack[-1] if stack else 0
            before = pre(args) if pre is not None else None
            result = None
            stack.append(sid)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                outcome = (post(args, result, before)
                           if post is not None else None)
                recorder.spans.append((
                    sid, parent, name, getattr(local, "rid", None),
                    start, end, outcome,
                ))

        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a ``name`` span (for the benchmark's roots)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, pre=None, post=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(
                self.wrap(name, original.__func__, pre, post)
            )
        else:
            replacement = self.wrap(name, original, pre, post)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        """Restore every patched entry point."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Append this process's spans to ``path`` as JSON lines."""
        pid = os.getpid()
        with open(path, "a", encoding="utf-8") as fh:
            for sid, parent, name, rid, start, end, outcome in self.spans:
                fh.write(json.dumps({
                    "id": f"{pid}:{sid}",
                    "parent": f"{pid}:{parent}" if parent else None,
                    "name": name, "rid": rid,
                    "start": start, "end": end, "outcome": outcome,
                }) + "\n")


def _cache_misses(args) -> int:
    stats = args[0].stats
    return sum(stage.cache_misses for stage in stats.stages.values())


def _full_checks(args, result, before) -> int:
    """Full differential checks one ``Oracle.equivalent`` call ran."""
    return _cache_misses(args) - before


def _hit(args, result, before) -> bool:
    return result is not None


def install_layers(recorder: Recorder) -> None:
    """Wrap every layer's timed entry points (the ledger's span names)."""
    import repro.pipeline as pipeline
    import repro.sim as sim
    from repro.baseline.optimizer import HalideOptimizer
    from repro.eval.plan import BatchedEvaluator
    from repro.rules.library import RuleLibrary
    from repro.synthesis import lowering, swizzle_synth, valuation
    from repro.synthesis.engine import OracleCache
    from repro.synthesis.fingerprints import Fingerprinter
    from repro.synthesis.lifting import Lifter
    from repro.synthesis.oracle import Oracle

    patch = recorder.patch
    patch(valuation, "environment_bank", "valuation")
    patch(valuation, "environment_zero", "valuation")
    patch(Lifter, "lift", "lifting")
    patch(lowering.Lowerer, "lower", "lowering")
    # the call site in lowering and the recursive one in swizzle_synth
    patch(lowering, "synthesize_swizzles", "swizzle")
    patch(swizzle_synth, "synthesize_swizzles", "swizzle")
    patch(Oracle, "equivalent", "oracle", pre=_cache_misses,
          post=_full_checks)
    patch(Oracle, "equivalent_lane0", "oracle.lane0")
    patch(Oracle, "query_key", "oracle.query_key")
    patch(Fingerprinter, "resolve", "fingerprints.resolve", post=_hit)
    patch(Fingerprinter, "learn", "fingerprints.learn")
    patch(BatchedEvaluator, "plan_for", "eval.plan")
    patch(BatchedEvaluator, "denote_bank", "eval.denote_bank")
    patch(OracleCache, "with_disk", "cache.load")
    patch(OracleCache, "lookup", "cache.lookup", post=_hit)
    patch(OracleCache, "record", "cache.record")
    patch(OracleCache, "flush", "cache.flush")
    patch(RuleLibrary, "match", "rules.match", post=_hit)
    patch(RuleLibrary, "learn", "rules.learn")
    patch(RuleLibrary, "flush", "rules.flush")
    patch(pipeline, "lower_pipeline", "frontend")
    patch(sim, "measure", "sim")
    patch(HalideOptimizer, "optimize", "baseline")
    patch(pipeline, "compile_pipeline", "pipeline")


def install_job_root(recorder: Recorder) -> None:
    """Root each daemon job at ``default_compile_fn``, under the request's
    idempotency key, so daemon spans share the client's request id."""
    from repro.service import scheduler

    original = scheduler.default_compile_fn

    @functools.wraps(original)
    def rooted(request, *args, **kwargs):
        recorder.set_request(request.idempotency_key)
        try:
            return recorder.span("job", original, request, *args, **kwargs)
        finally:
            recorder.set_request(None)

    recorder._patches.append((scheduler, "default_compile_fn", original))
    scheduler.default_compile_fn = rooted


# -- reading spans back ------------------------------------------------------


def load_spans(paths) -> list:
    spans = []
    for path in paths:
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def layer_totals(spans: list, rids: set) -> dict:
    """Per span name over requests ``rids``: calls, self and total ms,
    and the summed outcomes.

    Self time is a span's duration minus the time its child spans cover;
    children run nested on their parent's thread, so they never overlap.
    """
    child_s = defaultdict(float)
    for sp in spans:
        if sp["parent"] is not None:
            child_s[sp["parent"]] += sp["end"] - sp["start"]
    out = defaultdict(lambda: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0,
                               "outcome": 0})
    for sp in spans:
        if sp["rid"] not in rids:
            continue
        dur = sp["end"] - sp["start"]
        entry = out[sp["name"]]
        entry["calls"] += 1
        entry["total_ms"] += dur * 1000.0
        entry["self_ms"] += (dur - child_s.get(sp["id"], 0.0)) * 1000.0
        if sp["outcome"]:
            entry["outcome"] += int(sp["outcome"])
    return out
