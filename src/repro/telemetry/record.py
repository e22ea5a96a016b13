"""The schema-versioned compile-telemetry record.

One record per compile, whatever drove it — the CLI's ``compile``, a
service job or a benchmark runner — so every consumer of the corpus
(``repro perf``, the CI regression gate, the ROADMAP's learned-search
work) reads one shape.  :func:`build_record` folds the inputs every
producer already has:

* wall-clock duration and (when the scheduler ran it) queue wait;
* every :class:`~repro.synthesis.stats.SynthesisStats` counter —
  queries, cache hits, rule-library activity —
  plus per-stage times, via ``as_dict`` so a live stats object and the
  service's already-serialized payload fold identically;
* per-span-kind inclusive durations when the compile was traced
  (:meth:`repro.trace.Tracer.tree`);
* the configuration knobs that change the performance story
  (rules and verdict cache on-off);
* identity: workload, target, backend, the producing source, the git
  revision and the schema version — which is what makes two corpora
  from different checkouts machine-diffable.

``schema`` is bumped whenever a field's meaning changes; readers skip
records from schemas they do not speak rather than guessing.
"""

from __future__ import annotations

import os
import subprocess
import time
import uuid
from pathlib import Path

from ..synthesis.stats import COUNTERS

#: bump when a field's meaning changes; additive optional fields do not
#: require a bump (readers must tolerate unknown fields)
SCHEMA_VERSION = 1

#: $REPRO_GIT_REV overrides revision discovery (hermetic builds, CI
#: checkouts without a .git directory)
GIT_REV_ENV = "REPRO_GIT_REV"

#: SynthesisStats totals folded into every record (a missing counter
#: records as 0 so schema-1 readers can sum without guarding)
COUNTER_FIELDS = tuple(c.name for c in COUNTERS)

_git_rev_cache: str | None = None

#: the checkout :func:`git_rev` describes: the one holding this package
_PACKAGE_DIR = Path(__file__).resolve().parent


def _git(*args) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=_PACKAGE_DIR,
                          capture_output=True, text=True, timeout=5.0)


def git_rev() -> str:
    """The repository's short revision, cached per process.

    ``$REPRO_GIT_REV`` wins; otherwise ``git rev-parse --short HEAD`` run
    from the package directory, with ``-dirty`` appended when a tracked
    file differs from ``HEAD`` (``git diff --quiet HEAD``), so a result
    regenerated before its change is committed does not name the parent
    commit as its producer.  Any failure — no git binary, an installed
    wheel outside a checkout — degrades to ``"unknown"``: telemetry
    identity is best-effort like everything else here.
    """
    global _git_rev_cache
    env = os.environ.get(GIT_REV_ENV)
    if env:
        return env
    if _git_rev_cache is None:
        rev = "unknown"
        try:
            head = _git("rev-parse", "--short", "HEAD")
            sha = head.stdout.strip()
            if head.returncode == 0 and sha:
                diff = _git("diff", "--quiet", "HEAD", "--")
                if diff.returncode in (0, 1):
                    rev = sha if diff.returncode == 0 else f"{sha}-dirty"
        except (OSError, subprocess.SubprocessError):
            pass
        _git_rev_cache = rev
    return _git_rev_cache


def _stats_dict(stats) -> dict:
    """Normalize a stats input: a live :class:`SynthesisStats`, its
    ``as_dict`` payload, or ``None`` (no-synthesis compiles)."""
    if stats is None:
        return {}
    as_dict = getattr(stats, "as_dict", None)
    if callable(as_dict):
        return as_dict()
    return dict(stats)


def _fold_spans(tree: dict | None) -> dict:
    """Total inclusive seconds per span kind from a serialized trace."""
    if not tree:
        return {}
    from ..trace.core import iter_span_dicts, span_duration

    folded: dict[str, float] = {}
    for span, _depth in iter_span_dicts(tree):
        name = span.get("name")
        if not name:
            continue
        folded[name] = folded.get(name, 0.0) + span_duration(span)
    return {name: round(total, 6) for name, total in sorted(folded.items())}


def build_record(
    *,
    source: str,
    workload: str,
    target: str,
    backend: str = "rake",
    wall_s: float,
    stats=None,
    trace_tree: dict | None = None,
    degraded: bool = False,
    queue_wait_s: float | None = None,
    knobs: dict | None = None,
    extra: dict | None = None,
    node_id: str | None = None,
    routed_by: str | None = None,
) -> dict:
    """One telemetry record, ready for :meth:`TelemetryStore.append`.

    ``source`` names the producer (``"cli"``, ``"service"``,
    ``"bench:table1"`` …).  ``stats`` accepts a live
    :class:`~repro.synthesis.stats.SynthesisStats` or its ``as_dict``
    payload.  ``knobs`` records the performance-relevant configuration
    (``rules``/``cache``); ``extra``
    carries producer-specific context (a benchmark's cold/warm phase)
    without a schema change.  ``node_id``/``routed_by`` identify the
    cluster worker that ran the compile and the router that dispatched
    it, so multi-node corpora join single-node ones cleanly (both read
    as ``None`` for non-cluster producers).
    """
    payload = _stats_dict(stats)
    totals = payload.get("totals", {})
    stages = payload.get("stages", {})
    record = {
        "schema": SCHEMA_VERSION,
        "id": uuid.uuid4().hex[:12],
        "ts": round(time.time(), 3),
        "rev": git_rev(),
        "source": source,
        "workload": workload,
        "target": target,
        "backend": backend,
        "wall_s": round(float(wall_s), 6),
        "queue_wait_s": (round(float(queue_wait_s), 6)
                         if queue_wait_s is not None else None),
        "degraded": bool(degraded),
        "node_id": node_id,
        "routed_by": routed_by,
        "knobs": dict(knobs or {}),
        "totals": {f: int(totals.get(f, 0)) for f in COUNTER_FIELDS},
        "stage_time_s": {
            name: round(float(stage.get("time_s", 0.0)), 6)
            for name, stage in stages.items()
        },
        "spans": _fold_spans(trace_tree),
    }
    if extra:
        record["extra"] = dict(extra)
    return record


def is_record(rec) -> bool:
    """Whether a decoded JSONL line is a telemetry record this schema
    version can read."""
    return (
        isinstance(rec, dict)
        and rec.get("schema") == SCHEMA_VERSION
        and isinstance(rec.get("workload"), str)
        and isinstance(rec.get("target"), str)
        and isinstance(rec.get("wall_s"), (int, float))
    )
