"""Tests for the tracing core (:mod:`repro.trace.core`)."""

import json
import pickle
import threading

from repro.trace.core import (
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    iter_span_dicts,
    span_duration,
)


class TestNullTracer:
    def test_span_is_shared_noop(self):
        assert NULL_TRACER.span("anything", x=1) is NULL_SPAN
        with NULL_TRACER.span("a") as sp:
            assert sp is NULL_SPAN
            sp.set(ignored=True).event("nothing", k=2)

    def test_null_span_is_falsy(self):
        assert not NULL_SPAN
        with NULL_TRACER.span("a") as sp:
            # the guard pattern every instrumented site uses
            assert not sp

    def test_disabled_flags(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.current() is None
        assert NULL_TRACER.tree() == {"trace_id": None, "spans": []}
        NULL_TRACER.event("dropped")


class TestSpans:
    def test_nesting_and_durations(self):
        tr = Tracer()
        with tr.span("outer", kind="test") as outer:
            assert tr.current() is outer
            with tr.span("inner") as inner:
                assert tr.current() is inner
            assert tr.current() is outer
        assert tr.current() is None
        assert len(tr.roots) == 1
        root = tr.roots[0]
        assert root.name == "outer"
        assert root.attrs == {"kind": "test"}
        assert [c.name for c in root.children] == ["inner"]
        assert root.end_s is not None
        assert root.duration_s >= root.children[0].duration_s >= 0.0

    def test_spans_are_truthy(self):
        tr = Tracer()
        with tr.span("a") as sp:
            assert sp

    def test_set_merges_attrs(self):
        tr = Tracer()
        with tr.span("a", x=1) as sp:
            sp.set(y=2)
            sp.set(x=3)
        assert tr.roots[0].attrs == {"x": 3, "y": 2}

    def test_events_recorded_with_timestamps(self):
        tr = Tracer()
        with tr.span("a") as sp:
            sp.event("tick", n=1)
            tr.event("tock")  # lands on the current span
        events = tr.roots[0].events
        assert [e["name"] for e in events] == ["tick", "tock"]
        assert events[0]["attrs"] == {"n": 1}
        assert all(e["ts_s"] >= tr.roots[0].start_s for e in events)

    def test_event_without_open_span_is_dropped(self):
        tr = Tracer()
        tr.event("orphan")
        assert tr.roots == []

    def test_exception_marks_error_and_closes(self):
        tr = Tracer()
        try:
            with tr.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        root = tr.roots[0]
        assert root.attrs["error"] == "ValueError"
        assert root.end_s is not None

    def test_unbalanced_exit_closes_abandoned_children(self):
        tr = Tracer()
        outer = tr.span("outer")
        tr.span("abandoned")  # never explicitly closed
        outer.__exit__(None, None, None)
        assert tr.current() is None
        abandoned = tr.roots[0].children[0]
        assert abandoned.end_s is not None

    def test_sibling_roots(self):
        tr = Tracer()
        with tr.span("first"):
            pass
        with tr.span("second"):
            pass
        assert [r.name for r in tr.roots] == ["first", "second"]

    def test_threads_get_sibling_roots(self):
        tr = Tracer()
        done = threading.Event()

        def other():
            with tr.span("thread-root"):
                pass
            done.set()

        with tr.span("main-root"):
            t = threading.Thread(target=other)
            t.start()
            t.join()
        assert done.is_set()
        names = sorted(r.name for r in tr.roots)
        assert names == ["main-root", "thread-root"]
        tids = {r.tid for r in tr.roots}
        assert len(tids) == 2


class TestSerialization:
    def _sample(self):
        tr = Tracer(trace_id="cafe")
        with tr.span("root", a=1) as sp:
            sp.event("ev", b=2)
            with tr.span("child"):
                pass
        return tr

    def test_round_trip(self):
        tr = self._sample()
        data = tr.roots[0].to_dict()
        clone = json.loads(json.dumps(data))
        assert clone == data
        assert clone["name"] == "root"
        assert clone["attrs"] == {"a": 1}
        assert clone["events"][0]["name"] == "ev"
        assert [c["name"] for c in clone["children"]] == ["child"]

    def test_tree_is_picklable_and_plain(self):
        tree = self._sample().tree()
        assert tree["trace_id"] == "cafe"
        assert "wall_epoch" in tree
        pickle.loads(pickle.dumps(tree))

    def test_iter_span_dicts_depths(self):
        tree = self._sample().tree()
        walked = [(s["name"], d) for s, d in iter_span_dicts(tree)]
        assert walked == [("root", 0), ("child", 1)]

    def test_span_duration_clamps_negative(self):
        assert span_duration({"start_s": 5.0, "end_s": 4.0}) == 0.0
        assert span_duration({"start_s": 1.0, "end_s": 3.5}) == 2.5


class TestTracerIdentity:
    def test_trace_id_generated_and_propagated(self):
        tr = Tracer()
        assert len(tr.trace_id) == 16
        assert Tracer(trace_id="abc").trace_id == "abc"

    def test_walk_yields_depths(self):
        tr = Tracer()
        with tr.span("a"):
            with tr.span("b"):
                pass
        assert [(s.name, d) for s, d in tr.walk()] == [("a", 0), ("b", 1)]
