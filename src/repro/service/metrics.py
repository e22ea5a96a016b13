"""Counters, gauges and histograms for the service's ``/metrics`` endpoint.

A tiny dependency-free registry in the Prometheus exposition style: every
metric has a name, a help string and a type line, counters are monotonic,
and histograms expose count/sum plus streaming quantiles computed over a
bounded reservoir of recent observations (the service cares about *recent*
latency, so a sliding window is the right estimator and keeps memory
constant under heavy traffic).

The scheduler owns one registry; per-job synthesis statistics
(:class:`~repro.synthesis.stats.SynthesisStats`) are folded into it after
every job through :func:`observe_synthesis_stats`, which is how cache hit
ratios and per-stage latency lifted from the engine become visible at
``/metrics``.
"""

from __future__ import annotations

import re
import threading
from collections import deque

from ..numerics import quantile as _nearest_rank
from ..synthesis.stats import COUNTERS

#: histogram reservoir size — quantiles are computed over the most recent
#: observations only
RESERVOIR = 1024

#: quantiles rendered per histogram
QUANTILES = (0.5, 0.9, 0.95, 0.99)


def _label_str(labels: dict | None) -> str:
    """Prometheus label rendering: ``{a="x",b="y"}`` (sorted), or ``""``."""
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing counter."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, lock: threading.RLock,
                 labels: dict | None = None):
        self.name = name
        self.help = help_text
        self.labels = dict(labels) if labels else {}
        self.full_name = name + _label_str(self.labels)
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def render(self) -> list:
        return [f"{self.full_name} {_fmt(self.value)}"]

    def as_dict(self):
        return self.value


class Gauge(Counter):
    """A value that can go up and down (queue depth, jobs in flight)."""

    kind = "gauge"

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value


class Histogram:
    """Count/sum plus reservoir quantiles over recent observations."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str, lock: threading.RLock,
                 labels: dict | None = None):
        self.name = name
        self.help = help_text
        self.labels = dict(labels) if labels else {}
        self.full_name = name + _label_str(self.labels)
        self._lock = lock
        self.count = 0
        self.sum = 0.0
        self._window: deque = deque(maxlen=RESERVOIR)

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            self._window.append(value)

    def quantile(self, q: float) -> float | None:
        """The q-quantile (0..1) of the reservoir, ``None`` when empty.

        Nearest-rank on the sorted window (:func:`repro.numerics.quantile`):
        exact for windows smaller than the reservoir, a recency-weighted
        estimate beyond it.  ``q=0`` is the window minimum, ``q=1`` the
        maximum; out-of-range ``q`` raises :class:`ValueError`.
        """
        with self._lock:
            ordered = sorted(self._window)
        return _nearest_rank(ordered, q)

    def render(self) -> list:
        lines = []
        suffix = _label_str(self.labels)
        for q in QUANTILES:
            value = self.quantile(q)
            if value is not None:
                merged = dict(self.labels)
                merged["quantile"] = str(q)
                lines.append(
                    f"{self.name}{_label_str(merged)} {_fmt(value)}"
                )
        lines.append(f"{self.name}_count{suffix} {self.count}")
        lines.append(f"{self.name}_sum{suffix} {_fmt(self.sum)}")
        return lines

    def as_dict(self):
        return {
            "count": self.count,
            "sum": round(self.sum, 6),
            **{
                f"p{int(q * 100)}": self.quantile(q)
                for q in QUANTILES
            },
        }


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(round(float(value), 9))


class MetricsRegistry:
    """A named collection of metrics with text and JSON renderings.

    ``counter``/``gauge``/``histogram`` are get-or-create and therefore
    safe to call from any thread at any time; re-registering a name with a
    different kind is a programming error and raises.

    Metrics may carry **labels** (``labels={"site": "oracle.query"}``):
    each distinct label set is its own child series under the family
    name, rendered Prometheus-style as ``name{site="oracle.query"}``.
    The kind check applies to the whole family, and ``HELP``/``TYPE``
    lines are emitted once per family.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._metrics: dict = {}  # (name, sorted label items) -> metric
        self._kinds: dict = {}  # family name -> metric class

    def _get_or_create(self, cls, name: str, help_text: str,
                       labels: dict | None = None):
        key = (name, tuple(sorted((labels or {}).items())))
        with self._lock:
            registered = self._kinds.get(name)
            if registered is None:
                self._kinds[name] = cls
            elif registered is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{registered.kind}"
                )
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = cls(
                    name, help_text, self._lock, labels
                )
            return metric

    def counter(self, name: str, help_text: str = "",
                labels: dict | None = None) -> Counter:
        return self._get_or_create(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: dict | None = None) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: dict | None = None) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, labels)

    def render_text(self) -> str:
        """Prometheus-style exposition text."""
        out = []
        with self._lock:
            metrics = sorted(
                self._metrics.values(), key=lambda m: (m.name, m.full_name)
            )
        previous = None
        for metric in metrics:
            if metric.name != previous:
                if metric.help:
                    out.append(f"# HELP {metric.name} {metric.help}")
                out.append(f"# TYPE {metric.name} {metric.kind}")
                previous = metric.name
            out.extend(metric.render())
        return "\n".join(out) + "\n"

    def as_dict(self) -> dict:
        with self._lock:
            metrics = sorted(
                self._metrics.values(), key=lambda m: (m.name, m.full_name)
            )
        return {metric.full_name: metric.as_dict() for metric in metrics}


#: synthesis stages mirrored into per-stage latency/query metrics
_STAGE_METRICS = ("lifting", "sketching", "swizzling", "verify")


def observe_synthesis_stats(registry: MetricsRegistry, stats: dict) -> None:
    """Fold one job's synthesis statistics into the service registry.

    ``stats`` is the :meth:`SynthesisStats.as_dict` payload (the same dict
    shipped in a job's :class:`~repro.service.protocol.CompileResult`), so
    any compile function that fills ``result.stats`` feeds the registry.
    Called once per finished job: counters aggregate across the server's
    lifetime while histograms track the per-job distribution.
    """
    totals = stats.get("totals", {})
    for counter in COUNTERS:
        if counter.metric is not None:
            registry.counter(counter.metric, counter.help).inc(
                totals.get(counter.name, 0))
    stages = stats.get("stages", {})
    for name in _STAGE_METRICS:
        stage = stages.get(name)
        if stage is None:
            continue
        registry.histogram(
            f"repro_stage_{name}_seconds",
            f"per-job wall-clock seconds spent in the {name} stage",
        ).observe(stage.get("time_s", 0.0))
        registry.counter(
            f"repro_stage_{name}_queries_total",
            f"equivalence queries issued by the {name} stage",
        ).inc(stage.get("queries", 0))


def _span_slug(name: str) -> str:
    return re.sub(r"[^a-zA-Z0-9]+", "_", name).strip("_").lower()


def observe_trace(registry: MetricsRegistry, tree: dict) -> None:
    """Fold one job's span tree into per-span-kind duration histograms.

    ``tree`` is a serialized :meth:`repro.trace.Tracer.tree`.  Every span
    contributes its inclusive duration to ``repro_span_<slug>_seconds``
    (e.g. ``oracle.query`` → ``repro_span_oracle_query_seconds``), so a
    handful of traced jobs is enough to see where service compile time
    goes without pulling full traces.
    """
    from ..trace.core import iter_span_dicts, span_duration

    for span, _depth in iter_span_dicts(tree):
        slug = _span_slug(span.get("name", ""))
        if not slug:
            continue
        registry.histogram(
            f"repro_span_{slug}_seconds",
            f"inclusive duration of {span['name']} spans from traced jobs",
        ).observe(span_duration(span))
