"""Hierarchical spans: the zero-dependency core of ``repro.trace``.

A :class:`Tracer` records a tree of timed :class:`Span` objects — one per
interesting unit of work (a pipeline stage, a sketch, an oracle query) —
with structured attributes and point-in-time events.  Design constraints:

* **Zero overhead when disabled.**  Every instrumentation site goes
  through a tracer handle that defaults to the :data:`NULL_TRACER`
  singleton, whose ``span()`` returns a shared no-op context manager.
  The cost of a disabled site is one attribute load and one method call;
  :mod:`benchmarks.bench_trace_overhead` enforces the budget (<3% on the
  Table-1 subset).  ``NULL_SPAN`` is *falsy*, so call sites can guard
  expensive attribute rendering with ``if sp: sp.set(expr=pretty(e))``.

* **Thread-aware.**  The span stack is thread-local: spans opened by
  different threads nest within their own thread and become siblings in
  the trace, each stamped with a thread id for the Chrome-trace export.
  A span opened with no enclosing span on its thread is a *root*.

* **Serializable.**  :meth:`Span.to_dict` renders a subtree as plain
  dicts, the format :meth:`Tracer.tree` exports and the service ships
  over the wire.

Timestamps are ``time.perf_counter()`` offsets from the tracer's epoch
(monotonic, sub-microsecond); the wall-clock epoch is kept alongside for
export metadata only.
"""

from __future__ import annotations

import threading
import time
import uuid


class _NullSpan:
    """Shared no-op span; falsy so callers can skip attribute rendering."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumented code holds a tracer reference unconditionally and never
    branches on enablement for correctness — only (optionally) to skip
    building expensive attribute values via ``if sp:`` / ``tracer.enabled``.
    """

    __slots__ = ()
    enabled = False
    trace_id = None

    def span(self, name: str, **attrs) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        return None

    def current(self):
        return None

    def tree(self) -> dict:
        return {"trace_id": None, "spans": []}


NULL_TRACER = NullTracer()


class Span:
    """One timed, attributed node of the trace tree."""

    __slots__ = ("name", "start_s", "end_s", "tid", "attrs", "events",
                 "children", "_tracer")

    def __init__(self, name: str, start_s: float, tid: int,
                 tracer: "Tracer | None", attrs: dict | None = None):
        self.name = name
        self.start_s = start_s
        self.end_s: float | None = None
        self.tid = tid
        self.attrs: dict = dict(attrs) if attrs else {}
        self.events: list = []
        self.children: list = []
        self._tracer = tracer

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.start_s:.6f}"
                f"..{self.end_s if self.end_s is None else round(self.end_s, 6)},"
                f" attrs={self.attrs})")

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set(self, **attrs) -> "Span":
        """Merge structured attributes into the span."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs) -> "Span":
        """Record a point-in-time event inside the span."""
        ts = self._tracer.now() if self._tracer is not None else self.start_s
        self.events.append({"name": name, "ts_s": ts, "attrs": attrs})
        return self

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if self._tracer is not None:
            self._tracer._close(self)
        elif self.end_s is None:  # pragma: no cover - detached span
            self.end_s = self.start_s
        return False

    # -- (de)serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s if self.end_s is not None else self.start_s,
            "tid": self.tid,
            "attrs": dict(self.attrs),
            "events": [dict(e) for e in self.events],
            "children": [c.to_dict() for c in self.children],
        }

    def walk(self, depth: int = 0):
        """Yield ``(span, depth)`` for this span and every descendant."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)


class Tracer:
    """A recording tracer: one per traced run (CLI invocation, service job).

    Not free-threaded in the lock-free sense — span *open/close* is
    thread-local (each thread nests its own spans), while the root list
    takes a small lock.  Reading the tree while spans are
    still open is supported (open spans render with zero duration).
    """

    enabled = True

    def __init__(self, trace_id: str | None = None):
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.wall_epoch = time.time()
        self._epoch = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.roots: list[Span] = []

    def now(self) -> float:
        """Seconds since the tracer's epoch (monotonic)."""
        return time.perf_counter() - self._epoch

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- span lifecycle -----------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """Open a span nested under the current thread's innermost span."""
        sp = Span(name, self.now(), threading.get_ident(), self, attrs)
        stack = self._stack()
        if stack:
            stack[-1].children.append(sp)
        else:
            with self._lock:
                self.roots.append(sp)
        stack.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        if sp.end_s is None:
            sp.end_s = self.now()
        stack = self._stack()
        while stack:
            top = stack.pop()
            if top is sp:
                break
            if top.end_s is None:  # unbalanced exit: close abandoned spans
                top.end_s = sp.end_s

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def event(self, name: str, **attrs) -> None:
        """Record an event on the current span (dropped if none is open)."""
        sp = self.current()
        if sp is not None:
            sp.event(name, **attrs)

    # -- export -------------------------------------------------------------

    def tree(self) -> dict:
        """The whole trace as a plain-dict tree (the wire/export format)."""
        with self._lock:
            roots = list(self.roots)
        return {
            "trace_id": self.trace_id,
            "wall_epoch": self.wall_epoch,
            "spans": [r.to_dict() for r in roots],
        }

    def walk(self):
        """Yield ``(span, depth)`` over every recorded span."""
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            yield from root.walk()


def iter_span_dicts(tree: dict):
    """Yield ``(span_dict, depth)`` over a serialized trace tree."""
    stack = [(span, 0) for span in reversed(tree.get("spans", ()))]
    while stack:
        span, depth = stack.pop()
        yield span, depth
        for child in reversed(span.get("children", ())):
            stack.append((child, depth + 1))


def span_duration(span: dict) -> float:
    """Duration in seconds of a serialized span dict."""
    return max(0.0, float(span.get("end_s", 0.0)) - float(span.get("start_s", 0.0)))
