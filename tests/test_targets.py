"""Tests for the repro.targets interface and HVX byte-compatibility.

The refactor that introduced :class:`repro.targets.TargetDescription`
must leave the HVX path byte-identical: same synthesis verdicts, same
counterexample order, same canonical cache keys.  The proof is a disk
verdict store generated *before* the refactor
(``tests/fixtures/prerefactor_store``): warm-loading it must serve every
oracle query from cache, with zero misses and zero new entries.
"""

from __future__ import annotations

import hashlib
import pathlib
import shutil

import pytest

import repro.workloads as workloads
from repro.errors import ReproError
from repro.eval import BatchedEvaluator, lower_hvx, lower_neon
from repro.hvx.printer import to_string
from repro.neon import semantics as _neon_semantics  # noqa: F401
from repro.pipeline import compile_pipeline
from repro.synthesis.sketch import (
    SWIZZLE_DEINTERLEAVE,
    SWIZZLE_IDENTITY,
    SWIZZLE_INTERLEAVE,
    AbstractPairWindow,
    AbstractRows,
    AbstractSwizzle,
    AbstractWindow,
)
from repro.targets import TARGET_NAMES, get_target, nodes as N, resolve_target
from repro.types import I16, U16, U8

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestRegistry:
    def test_registered_targets(self):
        assert TARGET_NAMES == ("hvx", "neon")
        hvx, neon = get_target("hvx"), get_target("neon")
        assert (hvx.vbytes, neon.vbytes) == (128, 16)
        assert hvx.pair_op == "vcombine" and neon.pair_op == "neon.vpair"

    def test_instances_are_memoized(self):
        assert get_target("hvx") is get_target("hvx")

    def test_resolve(self):
        assert resolve_target(None).name == "hvx"
        assert resolve_target("neon").name == "neon"
        tgt = get_target("neon")
        assert resolve_target(tgt) is tgt

    def test_unknown_target_raises(self):
        with pytest.raises(ReproError):
            get_target("sse42")


class TestFamilyDispatch:
    """The plan compiler sends ``neon.`` instructions to the Neon lowering
    and every other machine node to the HVX lowering."""

    @pytest.fixture
    def lowered(self, monkeypatch):
        seen = []
        for module, attr in ((lower_hvx, "compile_hvx"),
                             (lower_neon, "compile_neon")):
            def spy(expr, ev, _original=getattr(module, attr),
                    _name=module.__name__.rsplit(".", 1)[1]):
                seen.append((_name, expr))
                return _original(expr, ev)

            monkeypatch.setattr(module, attr, spy)
        return seen

    def test_neon_prefix_owns_neon_instrs(self, lowered):
        ld = N.HvxLoad("in", 0, 16, U8)
        instr = N.HvxInstr("neon.vadd", (ld, ld))
        BatchedEvaluator().node_for(instr)
        assert lowered == [("lower_neon", instr), ("lower_hvx", ld)]

    def test_shared_nodes_belong_to_hvx(self, lowered):
        # Loads/splats inside a Neon tree lower through the target-neutral
        # HVX builders.
        ld = N.HvxLoad("in", 0, 16, U8)
        BatchedEvaluator().node_for(ld)
        assert lowered == [("lower_hvx", ld)]

    def test_ir_expressions_have_no_machine_family(self, lowered):
        from repro.ir import builder as B

        plan = BatchedEvaluator().plan_for(B.load("in", 0, 16, U8))
        assert lowered == [] and not plan.is_hvx


class TestSwizzleGrammars:
    def test_neon_unaligned_window_is_a_vext_splice(self):
        w = AbstractWindow("in", 3, 16, U8, 1)
        realized = list(get_target("neon").realizations(w))
        assert len(realized) == 1
        (r,) = realized
        assert isinstance(r, N.HvxInstr) and r.op == "neon.vext"
        assert r.imms == (3,)
        assert all(isinstance(c, N.HvxLoad) and c.offset % 16 == 0
                   for c in r.children)

    def test_neon_aligned_window_is_one_load(self):
        w = AbstractWindow("in", 16, 16, U8, 1)
        realized = list(get_target("neon").realizations(w))
        assert realized == [N.HvxLoad("in", 16, 16, U8)]

    def test_hvx_unaligned_window_offers_vmemu_first(self):
        w = AbstractWindow("in", 3, 128, U8, 1)
        realized = list(get_target("hvx").realizations(w))
        assert isinstance(realized[0], N.HvxLoad)
        assert not realized[0].aligned

    def test_neon_pair_window_is_free_pairing(self):
        w = AbstractPairWindow("in", 0, 32, U8)
        for r in get_target("neon").realizations(w):
            assert r.op == "neon.vpair"

    def test_neon_strided_window_deinterleaves_with_vuzp(self):
        w = AbstractWindow("in", 0, 16, U8, 2)
        ops = set()
        for r in get_target("neon").realizations(w):
            ops.update(n.op for n in r if isinstance(n, N.HvxInstr))
        assert {"neon.vuzp", "neon.vpair"} <= ops


def _placeholder_grid(vbytes: int):
    """Placeholders covering every branch of the swizzle grammar at a
    target's native width: u8/u16/i16 windows at strides 1, 2 and 4 over a
    spread of offset residues, pair windows, rows over one and two
    buffers, and the three swizzle modes."""
    for elem in (U8, U16, I16):
        lanes = vbytes * 8 // elem.bits
        residues = sorted({0, 1, 3, lanes // 2, lanes - 1})
        for stride in (1, 2, 4):
            for tile in (0, 5):
                for r in residues:
                    yield AbstractWindow("in", tile * lanes + r, lanes, elem,
                                         stride)
        for r in residues:
            yield AbstractPairWindow("in", r, 2 * lanes, elem)
        for stride in (1, 2, 4):
            for r0, r1 in ((0, 0), (0, 1), (1, lanes - 1), (3, 3)):
                yield AbstractRows("a", r0, "b", lanes + r1, lanes, elem,
                                   stride)
                yield AbstractRows("a", r0, "a", 2 * lanes + r1, lanes,
                                   elem, stride)
        pair = AbstractPairWindow("in", 0, 2 * lanes, elem)
        for mode in (SWIZZLE_IDENTITY, SWIZZLE_INTERLEAVE,
                     SWIZZLE_DEINTERLEAVE):
            yield AbstractSwizzle(pair, mode)


class TestRealizationOrder:
    """Yield order of the swizzle grammar is observable: it fixes the
    order candidates are checked (and so the verdicts a store records) and
    the keep-lists of the pruned tables.  The digests below pin, per
    target, every grid placeholder's realizations in yield order with
    their cost keys."""

    DIGESTS = {"hvx": "2340:e16070209bbe6353",
               "neon": "186:4a67983d50af0332"}

    @pytest.mark.parametrize("name", TARGET_NAMES)
    def test_realizations_and_costs_are_pinned(self, name):
        tgt = get_target(name)
        digest = hashlib.sha256()
        count = 0
        for ph in _placeholder_grid(tgt.vbytes):
            for r in tgt.realizations(ph):
                digest.update(f"{to_string(r)} {tgt.cost_of(r).key}\n"
                              .encode())
                count += 1
            digest.update(b"--\n")
        assert f"{count}:{digest.hexdigest()[:16]}" == self.DIGESTS[name]


class TestCostModels:
    def test_neon_unaligned_load_is_not_penalized(self):
        unaligned = N.HvxLoad("in", 3, 16, U8)
        assert get_target("neon").cost_of(unaligned).loads == 1
        # HVX charges double for vmemu (same node shape, different model)
        assert get_target("hvx").cost_of(unaligned).loads == 2

    def test_cost_orders_vext_above_plain_load(self):
        cost_of = get_target("neon").cost_of
        ld = N.HvxLoad("in", 0, 16, U8)
        vext = N.HvxInstr("neon.vext", (ld, N.HvxLoad("in", 16, 16, U8)),
                          (3,))
        assert cost_of(ld).key < cost_of(vext).key


class TestMachineModels:
    def test_measure_resolves_machine_from_target(self):
        from repro.sim.machine import DEFAULT_MACHINE, NEON_MACHINE
        from repro.sim.runner import measure

        wl = workloads.get("mul")
        neon = compile_pipeline(wl.build(), target="neon")
        assert measure(neon).total == measure(neon,
                                              machine=NEON_MACHINE).total
        hvx = compile_pipeline(wl.build())
        assert measure(hvx).total == measure(hvx,
                                             machine=DEFAULT_MACHINE).total

    def test_neon_machine_shape(self):
        from repro.sim.machine import NEON_MACHINE

        assert NEON_MACHINE.vbytes == 16
        assert NEON_MACHINE.slots == 2
        assert NEON_MACHINE.cap("mpy") == 1


class TestScheduleRescaling:
    def test_vectorize_directives_scale_to_target_width(self):
        wl = workloads.get("box_blur")
        hvx = compile_pipeline(wl.build())
        neon = compile_pipeline(wl.build(), target="neon")
        for sa, sb in zip(hvx.lowered.stages, neon.lowered.stages):
            assert sa.lanes == 8 * sb.lanes  # 128-byte vs 16-byte vectors


class TestHvxByteCompatibility:
    def test_prerefactor_store_warm_loads_with_zero_misses(self, tmp_path):
        """PR-1/2 disk stores must keep warm-loading after the refactor.

        The fixture was generated by ``repro compile box_blur`` before
        ``repro.targets`` existed.  Identical canonical cache keys mean
        every query hits; identical verdict/counterexample order means
        no new entries are appended on flush.
        """
        store = tmp_path / "store"
        shutil.copytree(FIXTURES / "prerefactor_store", store)
        before = (store / "oracle.jsonl").read_bytes()

        compiled = compile_pipeline(workloads.get("box_blur").build(),
                                    cache_dir=str(store))
        stats = compiled.stats
        assert stats.total("queries") > 0
        assert stats.total("cache_misses") == 0, (
            f"{stats.total('cache_misses')} oracle queries missed the "
            f"pre-refactor verdict store — cache keys changed"
        )
        assert (store / "oracle.jsonl").read_bytes() == before

    def test_hvx_import_ban_in_target_generic_modules(self):
        """The tentpole's acceptance bar: the synthesis core is
        target-generic — no ``repro.hvx`` imports in the refactored
        modules (HVX specifics live behind ``repro.targets.hvx``)."""
        import re

        imports_hvx = re.compile(
            r"^\s*(from\s+[.\w]*\bhvx\b|import\s+[.\w]*\bhvx\b)"
        )
        src = pathlib.Path(__file__).parent.parent / "src" / "repro"
        for rel in ("pipeline.py", "synthesis/sketch.py",
                    "synthesis/swizzle_synth.py"):
            for line in (src / rel).read_text().splitlines():
                assert not imports_hvx.match(line), (
                    f"{rel} still imports repro.hvx: {line.strip()!r}"
                )


class TestWorkerSemanticsRegistration:
    def test_ensure_semantics_registers_all_targets(self):
        from repro.hvx.isa import all_instructions
        from repro.targets import ensure_semantics

        ensure_semantics()
        names = set(all_instructions())
        assert "vadd" in names or any(not n.startswith("neon.")
                                      for n in names)
        assert any(n.startswith("neon.") for n in names)
