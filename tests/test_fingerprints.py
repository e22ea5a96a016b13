"""Tests for observational-equivalence pruning.

Two layers under test:

* :mod:`repro.synthesis.fingerprints` — denotation fingerprints must
  only ever *eliminate* oracle queries, never change a verdict: verdicts
  with and without fingerprints agree (property-based), refuted/verified
  classes fan out soundly, and counterexamples outside the fingerprint
  set split stale classes instead of merging inequivalent candidates.
* :mod:`repro.targets.pruning` — precomputed pruned grammars: signature
  invariance, table loading/fallback through ``REPRO_PRUNED_GRAMMAR_DIR``,
  the offline builder's collapse check, and the ``repro prune-grammar``
  CLI subcommand.
"""

import gc
import json
import os
import weakref

import pytest

pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import workloads  # noqa: F401 - populate the registry
from repro.cli import main as cli_main
from repro.ir import builder as B
from repro.pipeline import compile_pipeline
from repro.synthesis import sketch as S
from repro.synthesis.fingerprints import _REFUTED, _VERIFIED
from repro.synthesis.oracle import LAYOUT_INORDER, Oracle
from repro.targets import get_target, pruning
from repro.types import U8, U16
from repro.workloads.base import get, names


def u8v(offset=0, lanes=8):
    return B.load("in", offset, lanes, U8)


def _spec():
    return B.widen(u8v()) * 2


def _selection(compiled) -> list:
    return [repr(ce.program)
            for cs in compiled.stages for ce in cs.exprs]


# ---------------------------------------------------------------------------
# Fingerprint soundness
# ---------------------------------------------------------------------------


class TestFingerprintFanOut:
    def test_verified_class_fans_out_true(self):
        oracle = Oracle()
        spec = _spec()
        shl = B.shl(B.widen(u8v()), B.broadcast(1, 8, U16))
        mul = B.widen(u8v()) * 2
        assert oracle.equivalent(spec, shl, LAYOUT_INORDER) is True
        assert oracle.equivalent(spec, mul, LAYOUT_INORDER) is True
        # the mul form shares the shl form's denotation: one oracle
        # query, one class, one fan-out
        assert oracle.stats.total("queries") == 1
        assert oracle.stats.total("fingerprint_hits") == 1
        assert oracle.stats.total("classes_formed") == 1

    def test_refuted_class_fans_out_false(self):
        oracle = Oracle()
        spec = _spec()
        tripled = B.widen(u8v()) * 3
        summed = B.widen(u8v()) + B.widen(u8v()) + B.widen(u8v())
        assert oracle.equivalent(spec, tripled, LAYOUT_INORDER) is False
        assert oracle.equivalent(spec, summed, LAYOUT_INORDER) is False
        assert oracle.stats.total("queries") == 1
        assert oracle.stats.total("fingerprint_hits") == 1

    def test_fingerprint_verdicts_recorded_in_cache(self):
        # Fan-out verdicts still land in the verdict cache: a warm run
        # against the same cache is pure cache hits and never needs the
        # fingerprint index (the pre-refactor disk-store contract).
        oracle = Oracle()
        spec = _spec()
        shl = B.shl(B.widen(u8v()), B.broadcast(1, 8, U16))
        mul = B.widen(u8v()) * 2
        oracle.equivalent(spec, shl, LAYOUT_INORDER)
        oracle.equivalent(spec, mul, LAYOUT_INORDER)
        warm = Oracle(cache=oracle.cache)
        assert warm.equivalent(spec, mul, LAYOUT_INORDER) is True
        assert warm.stats.total("cache_hits") == 1
        assert warm.stats.total("fingerprint_hits") == 0

    def test_dropped_oracle_is_freed_at_once(self):
        # The index must hold its oracle weakly, or each finished
        # compile's banks and plans wait for the cyclic collector.
        oracle = Oracle()
        spec = _spec()
        oracle.equivalent(spec, B.shl(B.widen(u8v()), B.broadcast(1, 8, U16)),
                          LAYOUT_INORDER)
        assert oracle.equivalent(spec, B.widen(u8v()) * 2, LAYOUT_INORDER)
        assert oracle.stats.total("fingerprint_hits") == 1
        dropped = weakref.ref(oracle)
        gc.disable()
        try:
            del oracle
            assert dropped() is None
        finally:
            gc.enable()

    def test_disabled_fingerprints_query_every_candidate(self):
        oracle = Oracle(fingerprints=False)
        spec = _spec()
        oracle.equivalent(
            spec, B.shl(B.widen(u8v()), B.broadcast(1, 8, U16)),
            LAYOUT_INORDER)
        oracle.equivalent(spec, B.widen(u8v()) * 2, LAYOUT_INORDER)
        assert oracle.stats.total("queries") == 2
        assert oracle.stats.total("fingerprint_hits") == 0


@st.composite
def weighted_sums(draw):
    """Small widening stencil sums — dense in denotation collisions."""
    n_terms = draw(st.integers(1, 3))
    acc = None
    for _ in range(n_terms):
        offset = draw(st.integers(0, 2))
        weight = draw(st.integers(1, 3))
        term = B.widen(u8v(offset)) * weight
        acc = term if acc is None else acc + term
    return acc


#: shared across hypothesis examples so equivalence classes accumulate
_FP_ORACLE = Oracle()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(weighted_sums())
def test_fingerprint_verdicts_match_plain_oracle(candidate):
    """Fingerprint-equal implies verdict-equal: a class-resolved verdict
    always agrees with a fresh fingerprint-free oracle."""
    spec = B.widen(u8v(0)) * 2 + B.widen(u8v(1))
    fanned = _FP_ORACLE.equivalent(spec, candidate, LAYOUT_INORDER)
    plain = Oracle(fingerprints=False)
    assert fanned == plain.equivalent(spec, candidate, LAYOUT_INORDER)


# ---------------------------------------------------------------------------
# Class splits
# ---------------------------------------------------------------------------


def _tampered_digests(state, outside_env, junk=b"\x00" * 16):
    """Digests agreeing with the spec everywhere except one environment
    outside the fingerprint set — the shape of a candidate only a
    randomized verification round can distinguish."""
    assert outside_env not in state.D
    digests = dict(state.spec_digests)
    digests[outside_env] = junk
    return digests


class TestClassSplits:
    def test_verified_class_mismatch_outside_d_splits(self):
        """A member whose only disagreement lies outside D must be
        refuted and split the class — never fan out True."""
        oracle = Oracle()
        fp = oracle._fingerprinter()
        spec = _spec()
        right = B.shl(B.widen(u8v()), B.broadcast(1, 8, U16))
        assert oracle.equivalent(spec, right, LAYOUT_INORDER) is True
        state = fp._state(spec)
        assert list(state.classes.values()) == [_VERIFIED]
        outside = [i for i in range(state.n_envs) if i not in state.D]
        assert outside, "bank must extend past the fingerprint set"

        wrong = B.widen(u8v()) * 3
        state.cand_digests[(wrong, LAYOUT_INORDER)] = _tampered_digests(
            state, outside[0])
        # counters attribute to the innermost active stage, as in a real
        # compile where resolve/learn always run inside one
        with oracle.stats.stage("swizzling"):
            assert fp.resolve(spec, wrong, LAYOUT_INORDER) is False
        assert oracle.stats.total("class_splits") == 1
        assert outside[0] in state.D
        assert state.classes == {}  # stale classes invalidated

        # after the split the old class is gone: the correct candidate
        # resolves to "ask the oracle", not to a stale verdict
        assert fp.resolve(spec, right, LAYOUT_INORDER) is None

    def test_refutation_outside_d_extends_d_before_recording(self):
        """learn(False) with no refuting env in D must split first, so
        the refuted class can never capture spec-equivalent members."""
        oracle = Oracle()
        fp = oracle._fingerprinter()
        spec = _spec()
        state = fp._state(spec)
        outside = [i for i in range(state.n_envs) if i not in state.D]

        wrong = B.widen(u8v()) * 3
        state.cand_digests[(wrong, LAYOUT_INORDER)] = _tampered_digests(
            state, outside[0])
        with oracle.stats.stage("swizzling"):
            fp.learn(spec, wrong, LAYOUT_INORDER, False)
        assert oracle.stats.total("class_splits") == 1
        assert outside[0] in state.D
        assert list(state.classes.values()) == [_REFUTED]

        # a genuinely equivalent candidate keys differently at the new
        # environment: it must not inherit the refuted verdict
        right = B.shl(B.widen(u8v()), B.broadcast(1, 8, U16))
        assert fp.resolve(spec, right, LAYOUT_INORDER) is not False

    def test_full_digest_collision_is_never_recorded(self):
        """A refutation invisible to every bank digest (a hash collision
        in miniature) must not form a class at all."""
        oracle = Oracle()
        fp = oracle._fingerprinter()
        spec = _spec()
        state = fp._state(spec)
        wrong = B.widen(u8v()) * 3
        state.cand_digests[(wrong, LAYOUT_INORDER)] = dict(state.spec_digests)
        fp.learn(spec, wrong, LAYOUT_INORDER, False)
        assert state.classes == {}
        assert oracle.stats.total("class_splits") == 0


# ---------------------------------------------------------------------------
# --no-fingerprints differential
# ---------------------------------------------------------------------------


DIFF_WORKLOADS = ["mul", "dilate3x3", "l2norm"]


@pytest.mark.parametrize("target", ["hvx", "neon"])
@pytest.mark.parametrize("name", DIFF_WORKLOADS)
def test_no_fingerprints_identical_selection(name, target):
    wl = get(name)
    with_fp = compile_pipeline(wl.build(), backend="rake", target=target)
    without = compile_pipeline(wl.build(), backend="rake", target=target,
                               fingerprints=False)
    assert _selection(with_fp) == _selection(without)
    assert with_fp.stats.total("queries") <= without.stats.total("queries")
    assert without.stats.total("fingerprint_hits") == 0


@pytest.mark.slow
@pytest.mark.parametrize("target", ["hvx", "neon"])
def test_no_fingerprints_full_suite(target):
    """Nightly: every registered workload selects identically with
    fingerprints on and off, on both targets."""
    for name in names():
        wl = get(name)
        with_fp = compile_pipeline(wl.build(), backend="rake", target=target)
        without = compile_pipeline(wl.build(), backend="rake", target=target,
                                   fingerprints=False)
        assert _selection(with_fp) == _selection(without), name


# ---------------------------------------------------------------------------
# Pruned grammars
# ---------------------------------------------------------------------------


@pytest.fixture
def pruned_dir(tmp_path):
    """Point the pruned-grammar loader at a fresh directory (masking the
    shipped data files) and restore + invalidate afterwards."""
    old = os.environ.get(pruning.ENV_DIR)
    os.environ[pruning.ENV_DIR] = str(tmp_path)
    pruning.invalidate()
    try:
        yield tmp_path
    finally:
        if old is None:
            os.environ.pop(pruning.ENV_DIR, None)
        else:
            os.environ[pruning.ENV_DIR] = old
        pruning.invalidate()


def _unaligned_window():
    return S.AbstractWindow("input", 1, 128, U8, 1)


def _write_table(path, target_name, signatures, version=pruning.DATA_VERSION):
    payload = {"version": version, "target": target_name,
               "signatures": signatures}
    path.write_text(json.dumps(payload))


class TestSignatures:
    def test_invariant_under_rename_and_translation(self):
        ph = _unaligned_window()
        moved = S.AbstractWindow("other", 1 + 5 * 128, 128, U8, 1)
        assert pruning.signature_of(ph) == pruning.signature_of(moved)
        canon = pruning.canonical_placeholder(ph)
        assert pruning.signature_of(canon) == pruning.signature_of(ph)

    def test_residue_distinguishes(self):
        a = S.AbstractWindow("input", 1, 128, U8, 1)
        b = S.AbstractWindow("input", 2, 128, U8, 1)
        assert pruning.signature_of(a) != pruning.signature_of(b)

    def test_rows_shared_buffer_flag(self):
        shared = S.AbstractRows("x", 0, "x", 128, 128, U8, 1)
        split = S.AbstractRows("x", 0, "y", 128, 128, U8, 1)
        assert pruning.signature_of(shared) != pruning.signature_of(split)

    def test_abstract_swizzle_is_unprunable(self):
        ph = S.AbstractSwizzle(u8v(), S.SWIZZLE_IDENTITY)
        assert pruning.signature_of(ph) is None
        assert pruning.canonical_placeholder(ph) is None

    def test_canonical_realizations_match_shape(self):
        """The canonical placeholder enumerates the same number of
        realizations with the same costs — the property the offline
        table relies on to transfer keep-lists across call sites."""
        tgt = get_target("hvx")
        ph = S.AbstractWindow("input", 1 + 3 * 128, 128, U8, 1)
        canon = pruning.canonical_placeholder(ph)
        costs = [tgt.cost_of(r).key for r in tgt.realizations(ph)]
        canon_costs = [tgt.cost_of(r).key for r in tgt.realizations(canon)]
        assert costs == canon_costs


class TestTableLoading:
    def test_missing_table_falls_back(self, pruned_dir):
        assert pruning.load_table("hvx") is None
        ph = _unaligned_window()
        options = list(get_target("hvx").realizations(ph))
        kept, pruned = pruning.pruned_options("hvx", ph, options)
        assert kept == options and pruned is False

    def test_custom_table_prunes(self, pruned_dir):
        tgt = get_target("hvx")
        ph = _unaligned_window()
        options = list(tgt.realizations(ph))
        assert len(options) >= 2  # vmemu vs. align-splice
        sig = pruning.signature_of(ph)
        _write_table(pruned_dir / "pruned_hvx.json", "hvx",
                     {sig: {"total": len(options), "keep": [0]}})
        pruning.invalidate()
        kept, pruned = pruning.pruned_options("hvx", ph, options)
        assert pruned is True and kept == [options[0]]

    def test_stale_total_falls_back(self, pruned_dir):
        tgt = get_target("hvx")
        ph = _unaligned_window()
        options = list(tgt.realizations(ph))
        sig = pruning.signature_of(ph)
        _write_table(pruned_dir / "pruned_hvx.json", "hvx",
                     {sig: {"total": len(options) + 1, "keep": [0]}})
        pruning.invalidate()
        kept, pruned = pruning.pruned_options("hvx", ph, options)
        assert kept == options and pruned is False

    def test_malformed_keep_falls_back(self, pruned_dir):
        tgt = get_target("hvx")
        ph = _unaligned_window()
        options = list(tgt.realizations(ph))
        sig = pruning.signature_of(ph)
        for keep in ([], [len(options)], ["0"]):
            _write_table(pruned_dir / "pruned_hvx.json", "hvx",
                         {sig: {"total": len(options), "keep": keep}})
            pruning.invalidate()
            kept, pruned = pruning.pruned_options("hvx", ph, options)
            assert kept == options and pruned is False

    def test_version_mismatch_ignored(self, pruned_dir):
        _write_table(pruned_dir / "pruned_hvx.json", "hvx", {}, version=99)
        pruning.invalidate()
        assert pruning.load_table("hvx") is None

    def test_corrupt_json_ignored(self, pruned_dir):
        (pruned_dir / "pruned_hvx.json").write_text("{not json")
        pruning.invalidate()
        assert pruning.load_table("hvx") is None


class TestOfflineBuilder:
    def test_build_entry_collapses_unaligned_window(self):
        tgt = get_target("hvx")
        ph = pruning.canonical_placeholder(_unaligned_window())
        options = list(tgt.realizations(ph))
        entry = pruning.build_entry(tgt, ph)
        assert entry is not None
        assert entry["total"] == len(options)
        assert len(entry["keep"]) == 1
        assert 0 <= entry["keep"][0] < len(options)

    def test_build_entry_single_realization_is_none(self):
        tgt = get_target("hvx")
        aligned = S.AbstractWindow("b0", 0, 128, U8, 1)
        if len(list(tgt.realizations(aligned))) <= 1:
            assert pruning.build_entry(tgt, aligned) is None

    def test_deleting_tables_preserves_selection(self, pruned_dir):
        """The acceptance contract: with the data files masked, the
        compile falls back to full enumeration and selects the exact
        same programs (just without the pruned-grammar savings)."""
        wl = get("dilate3x3")
        masked = compile_pipeline(wl.build(), backend="rake")
        assert masked.stats.total("pruned_grammar_hits") == 0
        os.environ.pop(pruning.ENV_DIR, None)
        pruning.invalidate()
        shipped = compile_pipeline(wl.build(), backend="rake")
        assert shipped.stats.total("pruned_grammar_hits") > 0
        assert _selection(masked) == _selection(shipped)


class TestPruneGrammarCli:
    def test_prune_grammar_writes_loadable_table(self, tmp_path):
        rc = cli_main(["prune-grammar", "--target", "hvx",
                       "--out", str(tmp_path), "--workloads", "mul"])
        assert rc == 0
        path = tmp_path / "pruned_hvx.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["version"] == pruning.DATA_VERSION
        assert payload["target"] == "hvx"
        assert isinstance(payload["signatures"], dict)
        for entry in payload["signatures"].values():
            assert entry["total"] > len(entry["keep"]) >= 1

    def test_unknown_workload_rejected(self, tmp_path, capsys):
        rc = cli_main(["prune-grammar", "--target", "hvx",
                       "--out", str(tmp_path),
                       "--workloads", "definitely-not-a-workload"])
        assert rc != 0
