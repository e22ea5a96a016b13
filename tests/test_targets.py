"""Tests for the repro.targets interface and HVX byte-compatibility.

The refactor that introduced :class:`repro.targets.TargetDescription`
must leave the HVX path byte-identical: same synthesis verdicts, same
counterexample order, same canonical cache keys.  The proof is a disk
verdict store generated *before* the refactor
(``tests/fixtures/prerefactor_store``): warm-loading it must serve every
oracle query from cache, with zero misses and zero new entries.
"""

from __future__ import annotations

import pathlib
import shutil

import pytest

import repro.workloads as workloads
from repro.errors import ReproError
from repro.neon import semantics as _neon_semantics  # noqa: F401
from repro.pipeline import compile_pipeline
from repro.synthesis.sketch import AbstractPairWindow, AbstractWindow
from repro.targets import (
    TARGET_NAMES,
    get_target,
    machine_families,
    machine_family_of,
    nodes as N,
    resolve_target,
)
from repro.types import U8

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestRegistry:
    def test_registered_targets(self):
        assert TARGET_NAMES == ("hvx", "neon")
        hvx, neon = get_target("hvx"), get_target("neon")
        assert (hvx.vbytes, neon.vbytes) == (128, 16)
        assert hvx.prefix == "" and neon.prefix == "neon."

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

    def test_machine_families(self):
        assert set(machine_families()) == {"hvx", "neon"}


class TestFamilyDispatch:
    def test_neon_prefix_owns_neon_instrs(self):
        ld = N.HvxLoad("in", 0, 16, U8)
        instr = N.HvxInstr("neon.vadd", (ld, ld))
        assert machine_family_of(instr) == "neon"

    def test_shared_nodes_belong_to_hvx(self):
        # Loads/splats inside a Neon tree lower through the target-neutral
        # HVX builders.
        assert machine_family_of(N.HvxLoad("in", 0, 16, U8)) == "hvx"

    def test_ir_expressions_have_no_machine_family(self):
        from repro.ir import builder as B

        assert machine_family_of(B.load("in", 0, 16, U8)) is None


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


class TestCostModels:
    def test_neon_unaligned_load_is_not_penalized(self):
        from repro.hvx.cost import cost_of as hvx_cost
        from repro.neon.cost import cost_of as neon_cost

        unaligned = N.HvxLoad("in", 3, 16, U8)
        assert neon_cost(unaligned).loads == 1
        # HVX charges double for vmemu (same node shape, different model)
        assert hvx_cost(unaligned).loads == 2

    def test_cost_orders_vext_above_plain_load(self):
        from repro.neon.cost import cost_of

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
