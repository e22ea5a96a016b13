"""Trace coverage of an end-to-end compile.

A traced compile records one span tree rooted at ``pipeline.compile``
that covers every synthesis stage, and tracing never changes the
selected programs (see docs/observability.md).
"""

import pytest

from repro import workloads  # noqa: F401 - populate the registry
from repro.pipeline import compile_pipeline
from repro.trace import Tracer
from repro.trace.core import iter_span_dicts
from repro.workloads.base import get


def _names(tree):
    return [span["name"] for span, _d in iter_span_dicts(tree)]


def _spans_named(tree, name):
    return [span for span, _d in iter_span_dicts(tree)
            if span["name"] == name]


class TestTracedPipeline:
    """A traced end-to-end compile covers every synthesis stage."""

    @pytest.fixture(scope="class")
    def traced(self):
        tracer = Tracer()
        wl = get("mul")
        compiled = compile_pipeline(wl.build(), backend="rake",
                                    tracer=tracer)
        return compiled, tracer.tree()

    def test_span_coverage(self, traced):
        _compiled, tree = traced
        names = set(_names(tree))
        assert {"pipeline.compile", "pipeline.stage", "pipeline.expr",
                "lifting", "lowering", "sketch", "swizzle",
                "oracle.query", "pipeline.verify"} <= names

    def test_root_is_pipeline_compile(self, traced):
        _compiled, tree = traced
        roots = [s["name"] for s in tree["spans"]]
        assert roots == ["pipeline.compile"]
        root = tree["spans"][0]
        assert root["attrs"]["backend"] == "rake"
        assert "optimized" in root["attrs"]
        assert "jobs" not in root["attrs"]

    def test_oracle_queries_have_cache_attrs(self, traced):
        _compiled, tree = traced
        queries = _spans_named(tree, "oracle.query")
        assert queries
        assert {q["attrs"]["cache"] for q in queries} <= {"hit", "miss"}
        assert all(q["attrs"]["tag"] in ("full", "lane0") for q in queries)

    def test_tracing_does_not_change_output(self, traced):
        from repro.hvx import program_listing

        compiled, _tree = traced
        wl = get("mul")
        untraced = compile_pipeline(wl.build(), backend="rake")

        def listings(pipeline):
            return [program_listing(ce.program)
                    for cs in pipeline.stages for ce in cs.exprs]

        assert listings(compiled) == listings(untraced)
