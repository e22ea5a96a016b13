"""Tests for precomputed pruned grammars (:mod:`repro.targets.pruning`):
signature invariance, table loading/fallback through
``REPRO_PRUNED_GRAMMAR_DIR``, the offline builder's collapse check, and
the ``repro prune-grammar`` CLI subcommand.
"""

import json
import os

import pytest

from repro import workloads  # noqa: F401 - populate the registry
from repro.cli import main as cli_main
from repro.ir import builder as B
from repro.pipeline import compile_pipeline
from repro.synthesis import sketch as S
from repro.targets import get_target, pruning
from repro.types import U8
from repro.workloads.base import get


def u8v(offset=0, lanes=8):
    return B.load("in", offset, lanes, U8)


def _selection(compiled) -> list:
    return [repr(ce.program)
            for cs in compiled.stages for ce in cs.exprs]


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
