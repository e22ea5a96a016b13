"""Tests for the HVX cost model (paper Section 6) and printers."""

from repro.hvx import cost, isa as H, printer
from repro.ir import builder as B
from repro.types import U16, U8


def load(offset=0, lanes=8):
    return H.HvxLoad("in", offset, lanes, U8)


def vtmpy_expr():
    pair = H.HvxInstr("vcombine", (load(0), load(8)))
    return H.HvxInstr("vshuffvdd", (H.HvxInstr("vtmpy", (pair,), (1, 2)),))


class TestCost:
    def test_counts_by_resource(self):
        c = cost.cost_of(vtmpy_expr())
        counts = dict(c.per_resource)
        assert counts["mpy"] == 1
        assert counts["permute"] == 2  # vcombine + vshuffvdd

    def test_max_resource_is_paper_cost(self):
        c = cost.cost_of(vtmpy_expr())
        assert c.max_resource == 2

    def test_shared_subtrees_counted_once(self):
        t = vtmpy_expr()
        doubled = H.HvxInstr("vadd", (t, t))
        c = cost.cost_of(doubled)
        assert dict(c.per_resource)["mpy"] == 1
        assert c.total == cost.cost_of(t).total + 1

    def test_unaligned_load_costs_double(self):
        aligned = cost.cost_of(load(0))
        unaligned = cost.cost_of(load(3))
        assert unaligned.loads == 2 * aligned.loads

    def test_splats_not_costed(self):
        s = H.HvxSplat(B.const(3, U8), U8, 8)
        c = cost.cost_of(H.HvxInstr("vadd", (load(), s)))
        assert c.splats == 1
        assert c.total == 1

    def test_free_renames_not_costed(self):
        z = H.HvxInstr("vzxt", (load(),))
        c = cost.cost_of(H.HvxInstr("vpacke", (
            H.HvxInstr("hi", (z,)), H.HvxInstr("lo", (z,)))))
        assert c.total == 2  # vzxt + vpacke only

    def test_ordering_key(self):
        cheap = cost.cost_of(load(0))
        rich = cost.cost_of(vtmpy_expr())
        assert cheap < rich
        assert rich < cost.INFINITE_COST

    def test_display_latency_and_loads(self):
        assert cost.display_latency(vtmpy_expr()) == 3
        assert cost.load_count(vtmpy_expr()) == 2


class TestPrinter:
    def test_to_string(self):
        s = printer.to_string(vtmpy_expr())
        assert "vtmpy" in s and "vcombine" in s and "0x2" in s

    def test_unaligned_load_marked(self):
        assert printer.to_string(load(3)).startswith("vmemu")
        assert printer.to_string(load(0)).startswith("vmem(")

    def test_splat_prints_scalar(self):
        s = printer.to_string(H.HvxSplat(B.const(7, U8), U8, 8))
        assert s == "vsplat(7)"

    def test_listing_has_cost_header(self):
        listing = printer.program_listing(vtmpy_expr())
        assert listing.startswith("/* Latency: 3, Loads: 2 */")

    def test_pretty_indents_large(self):
        big = H.HvxInstr("vadd", (vtmpy_expr(), vtmpy_expr()))
        assert "\n" in printer.to_pretty(big)
