"""The rewrite-rule library (:mod:`repro.rules`).

Soundness is the point under test: a rule hit must return a program the
full valuation bank just verified, byte-identical on replayed traffic,
and *any* corruption — tampered templates, torn files, unreadable
libraries — must degrade to plain CEGIS, never to a wrong selection.
The differential sweep at the bottom is the acceptance check: compiling
with a warm library and compiling without one select identical
instructions at identical cost.
"""

from __future__ import annotations

import json

import pytest

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the dev env
    HAVE_HYPOTHESIS = False

from repro import faults
from repro import workloads  # noqa: F401 - populate the registry
from repro.cli import main
from repro.faults import FaultPlan, FaultRule
from repro.frontend import lower_pipeline
from repro.fsutil import decode_record, encode_record
from repro.ir import builder as B
from repro.pipeline import _is_trivial, compile_pipeline
from repro.rules import (
    Rule,
    RuleLibrary,
    abstract_spec,
    encode_node,
    mine_rules,
    rules_file,
)
from repro.rules.codec import Abstraction, decode_node
from repro.service.protocol import CompileRequest
from repro.sim import measure
from repro.synthesis import RakeSelector
from repro.synthesis.oracle import Oracle
from repro.synthesis.stats import SynthesisStats
from repro.targets import resolve_target
from repro.types import U8
from repro.workloads.base import get, names


@pytest.fixture(autouse=True)
def no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


def _mul_spec(buf="a", k=2):
    """A small widening-multiply spec; ``buf``/``k`` vary identity."""
    return B.widen(B.load(buf, 0, 8, U8)) * k


def workload_specs(name, target="hvx"):
    """Every non-trivial vector expression the pipeline would synthesize."""
    tgt = resolve_target(target)
    lowered = lower_pipeline(get(name).build(), vector_bytes=tgt.vbytes)
    return [e for stage in lowered.stages for e in stage.exprs
            if not _is_trivial(e)]


def _selection(compiled):
    return [repr(ce.program) for cs in compiled.stages for ce in cs.exprs]


def _tamper(tree):
    """Shift every literal load offset in a template by one element.

    The result still type-checks (offsets are unconstrained ints), so the
    only thing standing between the tampered rule and a wrong selection
    is the full-bank re-check.
    """
    changed = False
    if isinstance(tree, dict):
        for key, value in list(tree.items()):
            if key == "offset" and isinstance(value, int):
                tree[key] = value + 1
                changed = True
            else:
                changed |= _tamper(value)
    elif isinstance(tree, list):
        for item in tree:
            changed |= _tamper(item)
    return changed


# -- codec: abstraction keys and template round-trips ------------------------


class TestCodec:
    def test_rename_does_not_change_any_key(self):
        base = abstract_spec(_mul_spec("a"))
        renamed = abstract_spec(_mul_spec("other_buffer"))
        assert renamed.exact == base.exact
        assert renamed.lhs == base.lhs
        assert renamed.root == base.root

    def test_constant_changes_exact_but_not_lhs(self):
        base = abstract_spec(_mul_spec(k=2))
        other = abstract_spec(_mul_spec(k=7))
        assert other.exact != base.exact
        assert other.lhs == base.lhs

    def test_bindings_recover_the_concrete_spec(self):
        spec = _mul_spec("input_row", k=19)
        ab = Abstraction()
        tree = encode_node(spec, ab)
        json.dumps(tree)  # the template must be JSON-safe
        assert decode_node(tree, ab.bindings()) == spec

    def test_structurally_different_specs_get_different_lhs(self):
        a = abstract_spec(_mul_spec())
        b = abstract_spec(B.widen(B.load("a", 0, 8, U8)) + 2)
        assert a.lhs != b.lhs

    if HAVE_HYPOTHESIS:

        @settings(max_examples=40, deadline=None)
        @given(st.sampled_from(("a", "b", "in", "rows0")),
               st.integers(min_value=1, max_value=255))
        def test_lhs_key_is_name_and_constant_invariant(self, name, k):
            base = abstract_spec(_mul_spec("a", 2))
            p = abstract_spec(_mul_spec(name, k))
            assert p.lhs == base.lhs
            assert p.root == base.root
            assert (p.exact == base.exact) == (k == 2)

        @settings(max_examples=40, deadline=None)
        @given(st.sampled_from(("a", "b", "in")),
               st.integers(min_value=0, max_value=255),
               st.sampled_from(("add", "mul", "minimum", "maximum")))
        def test_template_roundtrip_is_identity(self, name, k, op):
            spec = getattr(B, op)(B.widen(B.load(name, 0, 8, U8)), k)
            ab = Abstraction()
            tree = encode_node(spec, ab)
            assert decode_node(tree, ab.bindings()) == spec


# -- the single definition of spec identity (anti-drift regression) ----------


class TestCanonicalSpecSharing:
    def test_coalescer_and_rules_share_the_engine_definition(self):
        """The verdict cache, the request coalescer and the rule library
        must never disagree about what "the same spec" means."""
        from repro.rules import codec
        from repro.service import coalesce
        from repro.synthesis import engine

        assert coalesce.compile_digest is engine.compile_digest
        assert codec.canonical_spec is engine.canonical_spec

    def test_spec_key_and_exact_key_agree_on_renames(self):
        from repro.synthesis.engine import canonical_spec

        assert (canonical_spec(_mul_spec("a"))
                == canonical_spec(_mul_spec("zzz")))
        assert (abstract_spec(_mul_spec("a")).exact
                == abstract_spec(_mul_spec("zzz")).exact)


    def test_match_renders_through_the_oracle_memo(self, monkeypatch):
        """``match`` keys its exact index through the oracle's template
        memo: the key is the fresh-memo rendering's, byte for byte, and
        the recheck's query key finds the spec's template built."""
        import hashlib

        from repro.synthesis.engine import canonical_spec

        spec = workload_specs("mul")[0]
        oracle = Oracle()
        # A memo that already holds other templates renders the same key.
        oracle.query_key(_mul_spec("zzz", 3), _mul_spec("zzz", 3), "inorder")
        shared = abstract_spec(spec, oracle._canon_cache).exact
        fresh = canonical_spec(spec)
        assert fresh == canonical_spec(spec, {})
        assert shared == abstract_spec(spec).exact
        assert shared == hashlib.sha256(fresh.encode()).hexdigest()

        library = RuleLibrary()
        assert library.learn(spec, RakeSelector().select(spec).program)
        oracle = Oracle()
        built = []
        equivalent = oracle.equivalent

        def recheck(spec, program):
            built.append(spec in oracle._canon_cache)
            return equivalent(spec, program)

        monkeypatch.setattr(oracle, "equivalent", recheck)
        assert library.match(spec, oracle) is not None
        assert built == [True]  # built by the exact key, before the query


# -- library: learn, match, persist ------------------------------------------


@pytest.mark.parametrize("target", ["hvx", "neon"])
def test_mined_rule_reproduces_the_original_selection(target):
    specs = workload_specs("mul", target)
    assert specs
    spec = specs[0]
    selector = RakeSelector(target=target)
    program = selector.select(spec).program
    library = RuleLibrary(target=target)
    assert library.learn(spec, program, provenance={"src": "test"})
    oracle = Oracle()
    matched = library.match(spec, oracle)
    assert repr(matched) == repr(program)
    assert oracle.stats.rule_recheck_failures == 0


def test_learn_is_idempotent():
    spec = workload_specs("mul")[0]
    program = RakeSelector().select(spec).program
    library = RuleLibrary()
    assert library.learn(spec, program)
    assert not library.learn(spec, program)
    assert len(library) == 1


def test_library_persists_and_reloads(tmp_path):
    path = rules_file(tmp_path, "hvx")
    spec = workload_specs("mul")[0]
    program = RakeSelector().select(spec).program
    library = RuleLibrary(path)
    library.learn(spec, program)
    library.flush()
    assert path.exists()
    reloaded = RuleLibrary(path)
    assert len(reloaded) == 1
    assert repr(reloaded.match(spec, Oracle())) == repr(program)


def test_tampered_rhs_is_refuted_by_the_recheck(tmp_path):
    """A well-typed but wrong template must be caught by the full-bank
    re-check — soundness never rests on the stored rule being honest."""
    spec = workload_specs("mul")[0]
    program = RakeSelector().select(spec).program
    pattern = abstract_spec(spec)
    from repro.rules import encode_program

    rhs = encode_program(program, spec)
    assert _tamper(rhs), "expected at least one load offset to tamper"
    rule = Rule(target="hvx", exact=pattern.exact, lhs=pattern.lhs,
                root=pattern.root, rhs=rhs)
    path = rules_file(tmp_path, "hvx")
    path.write_text(encode_record(rule.to_record()) + "\n")
    library = RuleLibrary(path)
    assert len(library) == 1
    oracle = Oracle()
    assert library.match(spec, oracle) is None
    assert oracle.stats.rule_recheck_failures >= 1


def test_corrupt_lines_are_quarantined_and_compacted(tmp_path):
    path = rules_file(tmp_path, "hvx")
    spec = workload_specs("mul")[0]
    program = RakeSelector().select(spec).program
    library = RuleLibrary(path)
    library.learn(spec, program)
    library.flush()
    with open(path, "a") as fh:
        fh.write('{"not": "a rule record"}\n')
        fh.write("torn garbage\n")
    reloaded = RuleLibrary(path)
    assert reloaded.log.corrupt_lines == 2
    assert reloaded.log.quarantined is not None
    assert reloaded.log.quarantined.exists()
    assert len(reloaded) == 1
    assert reloaded.match(spec, Oracle()) is not None
    # The compacted file is clean on the next load.
    clean = RuleLibrary(path)
    assert clean.log.corrupt_lines == 0
    assert len(clean) == 1


def test_rules_load_fault_degrades_to_empty_library(tmp_path):
    path = rules_file(tmp_path, "hvx")
    spec = workload_specs("mul")[0]
    program = RakeSelector().select(spec).program
    seeded = RuleLibrary(path)
    seeded.learn(spec, program)
    seeded.flush()
    with faults.injected(FaultPlan(rules=[
        FaultRule(site=faults.SITE_RULES_LOAD, kind="oserror", on_nth=1),
    ])):
        library = RuleLibrary(path)
    assert library.log.load_errors == 1
    assert len(library) == 0
    assert library.match(spec, Oracle()) is None
    # The compile itself is unaffected: full synthesis, correct result.
    compiled = compile_pipeline(get("mul").build(), backend="rake",
                                rules=library)
    plain = compile_pipeline(get("mul").build(), backend="rake")
    assert _selection(compiled) == _selection(plain)


# -- pipeline integration: the fast path -------------------------------------


def test_warm_library_bypasses_sketch_and_swizzle_enumeration():
    library = RuleLibrary()
    cold_stats = SynthesisStats()
    cold = compile_pipeline(get("mul").build(), backend="rake",
                            rules=library, stats=cold_stats)
    assert cold.rule_hits == 0
    assert cold_stats.rules_mined >= 1
    assert cold_stats.rule_misses >= 1

    warm_stats = SynthesisStats()
    warm = compile_pipeline(get("mul").build(), backend="rake",
                            rules=library, stats=warm_stats)
    assert warm.rule_hits == warm.optimized_exprs > 0
    assert warm_stats.rule_hits == warm.rule_hits
    assert warm_stats.stages["lifting"].queries == 0
    assert warm_stats.stages["sketching"].queries == 0
    assert warm_stats.stages["swizzling"].queries == 0

    plain = compile_pipeline(get("mul").build(), backend="rake")
    assert _selection(warm) == _selection(plain)
    assert measure(warm).total == measure(plain).total


def test_tampered_library_still_compiles_correctly(tmp_path):
    """With every stored rule corrupted, the pipeline silently falls back
    to CEGIS and selects exactly what it would have without rules."""
    path = rules_file(tmp_path, "hvx")
    library = RuleLibrary(path)
    compile_pipeline(get("mul").build(), backend="rake", rules=library)
    library.flush()
    tampered_lines = []
    for line in path.read_text().splitlines():
        rec = decode_record(line)
        _tamper(rec["rhs"])
        tampered_lines.append(encode_record(rec))
    path.write_text("\n".join(tampered_lines) + "\n")

    tampered = RuleLibrary(path)
    stats = SynthesisStats()
    compiled = compile_pipeline(get("mul").build(), backend="rake",
                                rules=tampered, stats=stats)
    plain = compile_pipeline(get("mul").build(), backend="rake")
    assert _selection(compiled) == _selection(plain)
    assert stats.rule_hits == 0
    assert stats.rule_recheck_failures >= 1


def test_mine_rules_warms_a_library(tmp_path):
    reports = mine_rules(workloads=["mul"], targets=("hvx",),
                         rules_dir=tmp_path)
    assert len(reports) == 1
    assert reports[0].mined >= 1
    assert rules_file(tmp_path, "hvx").exists()
    # A second mining pass over the same workload is all hits, no growth.
    again = mine_rules(workloads=["mul"], targets=("hvx",),
                       rules_dir=tmp_path)
    assert again[0].rule_hits >= 1
    assert again[0].mined == 0


# -- counters, protocol, CLI --------------------------------------------------


def test_rule_counters_merge_and_serialize():
    stats = SynthesisStats()
    stats.count("rule_hits")
    stats.count("rules_mined")
    stats.count("rule_misses")
    stats.count("rule_misses")
    stats.count("rule_recheck_failures")
    totals = stats.as_dict()["totals"]
    assert (totals["rule_hits"], totals["rule_misses"], totals["rules_mined"],
            totals["rule_recheck_failures"]) == (1, 2, 1, 1)


def test_compile_request_rules_field_round_trips():
    request = CompileRequest(workload="mul", rules=True).validate()
    assert CompileRequest.from_dict(request.to_dict()).rules is True
    # Old clients that never send the field keep working.
    data = CompileRequest(workload="mul").to_dict()
    del data["rules"]
    assert CompileRequest.from_dict(data).rules is False


def test_rules_on_and_off_jobs_never_coalesce():
    from repro.service.coalesce import request_key

    on = CompileRequest(workload="mul", rules=True)
    off = CompileRequest(workload="mul", rules=False)
    assert request_key(on) != request_key(off)


class TestRulesCli:
    def test_mine_then_compile_hits(self, tmp_path, capsys):
        rc = main(["mine-rules", "--target", "hvx", "--workloads", "mul",
                   "--rules-dir", str(tmp_path)])
        assert rc == 0
        assert "mined" in capsys.readouterr().out
        rc = main(["compile", "mul", "--backend", "rake", "--rules",
                   "--rules-dir", str(tmp_path)])
        assert rc == 0
        assert "via rules" in capsys.readouterr().out

    def test_unwritable_rules_dir_is_one_line_error(self, capsys):
        rc = main(["compile", "mul", "--backend", "rake", "--rules",
                   "--rules-dir", "/proc/nonexistent"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --rules:")
        assert err.strip().count("\n") == 0

    def test_unwritable_mine_rules_dir_is_one_line_error(self, capsys):
        rc = main(["mine-rules", "--rules-dir", "/proc/nonexistent"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --rules-dir:")
        assert err.strip().count("\n") == 0


# -- the acceptance differential: --rules vs --no-rules ----------------------


def _differential(name, target):
    library = RuleLibrary(target=target)
    compile_pipeline(get(name).build(), backend="rake", target=target,
                     rules=library)  # cold pass mines
    warm = compile_pipeline(get(name).build(), backend="rake", target=target,
                            rules=library)
    plain = compile_pipeline(get(name).build(), backend="rake", target=target)
    assert _selection(warm) == _selection(plain)
    assert measure(warm).total == measure(plain).total
    if warm.optimized_exprs:
        assert warm.rule_hits == warm.optimized_exprs


SUBSET = ("mul", "add", "dilate3x3")


@pytest.mark.parametrize("target", ["hvx", "neon"])
@pytest.mark.parametrize("name", SUBSET)
def test_rules_differential_subset(name, target):
    _differential(name, target)


@pytest.mark.slow
@pytest.mark.parametrize("target", ["hvx", "neon"])
@pytest.mark.parametrize("name", names())
def test_rules_differential_full_suite(name, target):
    """All 21 workloads x both targets: a warm rule library changes
    nothing observable — identical instructions at identical cost."""
    _differential(name, target)
