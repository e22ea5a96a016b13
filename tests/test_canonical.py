"""The template renderer of query keys against the walk it replaced.

``reference_canonical_expr`` is the renderer from before each node's
rendering was memoized as a template, kept verbatim: it walked the whole
tree on every call, positionalizing names in one ``names`` map as it met
them.  :func:`repro.synthesis.engine.canonical_expr` renders from
per-node templates through a memo and must return the same string and
leave the same ``names`` map behind, whether its memo is fresh or shared
with earlier trees, and whatever the map held before the call.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib

from hypothesis import HealthCheck, given, settings, strategies as st

import repro.workloads  # noqa: F401 - populate the registry
from repro.hvx import isa as hvx_isa
from repro.ir import expr as ir_expr
from repro.pipeline import compile_pipeline
from repro.synthesis import sketch as S
from repro.synthesis.engine import canonical_expr, canonical_spec
from repro.synthesis.oracle import Oracle
from repro.types import I16, U8, U16, ScalarType, VectorType
from repro.uber import instructions as uber_instr
from repro.workloads.base import get

from test_batched_eval import hvx_exprs, ir_exprs, uber_exprs

_NAME_FIELDS = frozenset({"buffer", "buffer0", "buffer1", "name"})

_EXPR_BASES = (ir_expr.Expr, uber_instr.UberExpr, hvx_isa.HvxExpr)


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    """The dataclass field names of one expression class, in order."""
    return tuple(f.name for f in dataclasses.fields(cls))


def reference_canonical_expr(node, names: dict) -> str:
    cls = type(node)
    parts = [cls.__name__]
    for name in _field_names(cls):
        parts.append(_canon_value(getattr(node, name), name, names))
    return "(" + " ".join(parts) + ")"


def _canon_value(value, field_name: str, names: dict) -> str:
    if isinstance(value, _EXPR_BASES):
        return reference_canonical_expr(value, names)
    if isinstance(value, (ScalarType, VectorType)):
        return value.name
    if isinstance(value, str):
        if field_name in _NAME_FIELDS:
            return names.setdefault(value, f"%{len(names)}")
        return value
    if isinstance(value, (tuple, list)):
        return "[" + " ".join(_canon_value(v, field_name, names)
                              for v in value) + "]"
    return repr(value)


def reference_query_key(oracle: Oracle, spec, candidate, layout: str,
                        tag: str = "full") -> str:
    """The query key as the walk gave it: spec first, then the candidate
    under a copy of the spec's names."""
    names: dict = {}
    spec_part = reference_canonical_expr(spec, names)
    cand_part = reference_canonical_expr(candidate, dict(names))
    raw = (f"{tag}|{layout}|{oracle.seed}|{oracle.extra_random_rounds}|"
           f"{spec_part}|{cand_part}")
    return hashlib.sha256(raw.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

BUFFERS = ("A", "B", "in", "%0", "{0}")

#: literal strings the renderer must copy through untouched
LITERALS = st.text(alphabet="%{}0s ab", max_size=6)


@st.composite
def sketches(draw):
    """Sketch placeholders over several buffers, possibly swizzled."""
    buffer = st.sampled_from(BUFFERS)
    kind = draw(st.sampled_from(["window", "pair", "rows"]))
    if kind == "window":
        node = S.AbstractWindow(draw(buffer), draw(st.integers(-4, 4)), 64,
                                U8, draw(st.sampled_from([1, 2])))
    elif kind == "pair":
        node = S.AbstractPairWindow(draw(buffer), draw(st.integers(-4, 4)),
                                    128, U8)
    else:
        node = S.AbstractRows(draw(buffer), draw(st.integers(-4, 4)),
                              draw(buffer), draw(st.integers(-4, 4)), 64, U8)
    if kind != "window" and draw(st.booleans()):
        node = S.AbstractSwizzle(node, draw(st.sampled_from(
            [S.SWIZZLE_IDENTITY, S.SWIZZLE_INTERLEAVE,
             S.SWIZZLE_DEINTERLEAVE])))
    return node


@dataclasses.dataclass(frozen=True)
class Bundle(hvx_isa.HvxExpr):
    """A test-only node: names inside a tuple field, a free-text label and
    a tuple of subtrees, rendered like any other dataclass node."""

    name: tuple
    label: str
    parts: tuple


def any_exprs():
    return st.one_of(ir_exprs(), uber_exprs(), hvx_exprs(), sketches())


@st.composite
def bundles(draw):
    """Multi-buffer trees: several subtrees under one node, with names in
    a tuple field and labels holding ``%`` and ``{``."""
    return Bundle(
        tuple(draw(st.lists(st.sampled_from(BUFFERS + ("s",)), max_size=3))),
        draw(LITERALS),
        tuple(draw(st.lists(any_exprs(), min_size=1, max_size=3))),
    )


def trees():
    return st.one_of(any_exprs(), bundles())


#: one memo shared by every example below, so templates built for one
#: tree are reused by later trees that share (equal) subtrees
SHARED_MEMO: dict = {}

SETTINGS = settings(max_examples=120, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def assert_renders_like_reference(node, names: dict, memo: dict) -> None:
    want_names, got_names = dict(names), dict(names)
    want = reference_canonical_expr(node, want_names)
    assert canonical_expr(node, got_names, memo) == want
    assert got_names == want_names
    assert list(got_names) == list(want_names)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@SETTINGS
@given(trees())
def test_fresh_and_shared_memo_match_reference(node):
    assert_renders_like_reference(node, {}, {})
    assert_renders_like_reference(node, {}, SHARED_MEMO)
    # A second render through the same memo replays the stored template.
    assert_renders_like_reference(node, {}, SHARED_MEMO)


@SETTINGS
@given(trees(), st.dictionaries(st.sampled_from(BUFFERS + ("s", "zz")),
                                st.sampled_from(["%0", "%1", "%7", "x"]),
                                max_size=4))
def test_preseeded_names_match_reference(node, seeded):
    assert_renders_like_reference(node, seeded, {})
    assert_renders_like_reference(node, seeded, SHARED_MEMO)


@SETTINGS
@given(trees(), trees())
def test_one_names_map_across_two_trees(first, second):
    """Spec then candidate through one map, as ``query_key`` renders."""
    memo: dict = {}
    want_names: dict = {}
    want = (reference_canonical_expr(first, want_names),
            reference_canonical_expr(second, want_names))
    got_names: dict = {}
    got = (canonical_expr(first, got_names, memo),
           canonical_expr(second, got_names, memo))
    assert got == want
    assert got_names == want_names


@SETTINGS
@given(trees(), st.permutations(BUFFERS + ("s",)), LITERALS)
def test_shared_subtree_under_two_names_orders(shared, order, label):
    """One subtree, one memo, two outer trees that meet the names in
    different orders: the stored template renders right under both."""
    memo: dict = {}
    outer = (Bundle(tuple(order), label, (shared,)),
             Bundle(tuple(reversed(order)), label, (shared,)))
    for node in (shared,) + outer:
        assert_renders_like_reference(node, {}, memo)
    assert shared in memo


def test_literal_percent_and_braces_copy_through():
    node = Bundle(("{0}", "%1", "{0}"), "%s {1} }{ %%",
                  (hvx_isa.HvxLoad("%1", 0, 64, U8),))
    names: dict = {}
    out = canonical_expr(node, names, {})
    assert out == reference_canonical_expr(node, {})
    assert "%s {1} }{ %%" in out
    assert names == {"{0}": "%0", "%1": "%1"}


def test_canonical_spec_is_rename_insensitive():
    def spec(buffer):
        load = ir_expr.Load(buffer, 0, 8, U8)
        return ir_expr.Mul(ir_expr.Cast(U16, load), ir_expr.Cast(U16, load))

    assert canonical_spec(spec("a")) == canonical_spec(spec("zzz"))
    assert canonical_spec(spec("a")) == reference_canonical_expr(
        spec("a"), {})
    other = ir_expr.Cast(I16, ir_expr.Load("a", 0, 8, U8))
    assert canonical_spec(spec("a")) != canonical_spec(other)


def test_compile_query_keys_equal_reference(monkeypatch):
    """Every key a gaussian3x3 compile asks for, on both targets, is the
    key the walk gave."""
    seen = []
    real = Oracle.query_key

    def recording(self, spec, candidate, layout, tag="full"):
        key = real(self, spec, candidate, layout, tag)
        seen.append((self, spec, candidate, layout, tag, key))
        return key

    monkeypatch.setattr(Oracle, "query_key", recording)
    for target in ("hvx", "neon"):
        compile_pipeline(get("gaussian3x3").build(), backend="rake",
                         target=target)
    assert len({id(call[0]) for call in seen}) >= 2
    assert len(seen) > 100
    for oracle, spec, candidate, layout, tag, key in seen:
        assert key == reference_query_key(oracle, spec, candidate, layout,
                                          tag)
