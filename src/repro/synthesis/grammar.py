"""Swizzle-free sketch grammars, specialized per uber-instruction.

Section 3.1's second scalability lever: "for each uber-instruction only a
subset of the target ISA is relevant, so we can specialize the grammar to
just those instructions."  Each generator below enumerates candidate HVX
implementations (with abstract ``??load``/``??swizzle`` placeholders) for
one uber-instruction, roughly cheapest first.  Every candidate is validated
by the oracle in :mod:`repro.synthesis.lowering`; the grammar may propose
unsound candidates freely (e.g. a saturating narrowing for a truncating
spec — sound only when the value range allows it, which is precisely how
the paper's "semantic reasoning" wins surface).

A sketch is an HVX expression plus the layout its result is produced in
(in-order, or deinterleaved for the sliding-multiply family).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from ..errors import TypeMismatchError, UnsupportedExpressionError
from ..hvx import isa as H
from ..ir import expr as ir_expr
from ..types import ScalarType, VectorType
from ..uber import instructions as U
from .oracle import LAYOUT_DEINTERLEAVED, LAYOUT_INORDER
from .sketch import (
    AbstractPairWindow,
    AbstractRows,
    AbstractSwizzle,
    AbstractWindow,
    SWIZZLE_DEINTERLEAVE,
    SWIZZLE_INTERLEAVE,
)


def safe_instr(op: str, args: tuple, imms: tuple = ()):
    """Construct an instruction, returning None for ill-typed candidates.

    The grammar proposes freely; the type rules prune (Section 2.2.1's
    syntactic constraints), and the oracle rejects the rest.
    """
    if any(a is None for a in args):
        return None
    try:
        return H.HvxInstr(op, tuple(args), tuple(imms))
    except TypeMismatchError:
        return None


@dataclass(frozen=True)
class Sketch:
    """A candidate implementation with its result layout."""

    expr: H.HvxExpr
    layout: str


#: signature of the child-lowering callback provided by the driver
ChildFn = Callable[[U.UberExpr, str], H.HvxExpr | None]

#: cap on chain candidates enumerated per vs/vv-mpy-add (keeps DFS bounded)
MAX_CHAINS = 48


def shape_of(vtype: VectorType, vbytes: int) -> str:
    """Machine shape of a logical vector type: "vec" or "pair"."""
    bits = vtype.elem.bits * vtype.lanes
    if bits == vbytes * 8:
        return "vec"
    if bits == 2 * vbytes * 8:
        return "pair"
    raise UnsupportedExpressionError(
        f"{vtype} does not fit a native vector or pair at {vbytes} bytes"
    )


def sketches(e: U.UberExpr, child: ChildFn, vbytes: int) -> Iterator[Sketch]:
    """Candidate swizzle-free sketches for ``e``, roughly cheapest first."""
    gen = {
        U.LoadData: _load_sketches,
        U.BroadcastScalar: _broadcast_sketches,
        U.Widen: _widen_sketches,
        U.VsMpyAdd: _vs_mpy_add_sketches,
        U.VvMpyAdd: _vv_mpy_add_sketches,
        U.Narrow: _narrow_sketches,
        U.AbsDiff: _elementwise_sketches,
        U.Minimum: _elementwise_sketches,
        U.Maximum: _elementwise_sketches,
        U.Average: _elementwise_sketches,
        U.ShiftRight: _shift_sketches,
        U.Mux: _mux_sketches,
    }.get(type(e))
    if gen is None:
        return
    for sk in gen(e, child, vbytes):
        if sk.expr is not None:
            yield sk


# -- leaves -----------------------------------------------------------------


def _load_sketches(e: U.LoadData, child: ChildFn, vbytes: int):
    shape = shape_of(e.type, vbytes)
    if shape == "vec":
        yield Sketch(
            AbstractWindow(e.buffer, e.offset, e.lanes, e.elem, e.stride),
            LAYOUT_INORDER,
        )
        return
    if e.stride == 1:
        yield Sketch(
            AbstractPairWindow(e.buffer, e.offset, e.lanes, e.elem),
            LAYOUT_INORDER,
        )
        return
    half = e.lanes // 2
    yield Sketch(
        H.HvxInstr("vcombine", (
            AbstractWindow(e.buffer, e.offset, half, e.elem, e.stride),
            AbstractWindow(
                e.buffer, e.offset + half * e.stride, half, e.elem, e.stride
            ),
        )),
        LAYOUT_INORDER,
    )


def _splat(scalar: ir_expr.Expr, elem: ScalarType, lanes: int, vbytes: int):
    return H.HvxSplat(
        scalar, elem, lanes,
        pairwise=shape_of(VectorType(elem, lanes), vbytes) == "pair",
    )


def _broadcast_sketches(e: U.BroadcastScalar, child: ChildFn, vbytes: int):
    yield Sketch(_splat(e.scalar, e.elem, e.lanes, vbytes), LAYOUT_INORDER)


# -- widen -------------------------------------------------------------------


def _widen_sketches(e: U.Widen, child: ChildFn, vbytes: int):
    src = e.value.type.elem
    if e.out_elem.bits != src.bits * 2:
        return  # quad widening is handled by chained uber-instructions
    c = child(e.value, LAYOUT_INORDER)
    if c is None or not c.type.is_vec:
        return
    op = "vsxt" if src.signed else "vzxt"
    yield Sketch(safe_instr(op, (c,)), LAYOUT_INORDER)
    one = ir_expr.Const(1, src)
    yield Sketch(
        safe_instr("vmpy", (c, H.HvxSplat(one, src, c.type.lanes))),
        LAYOUT_INORDER,
    )


# -- the mpy-add chain builder -------------------------------------------------


def _is_pow2(w: int) -> bool:
    return w > 0 and (w & (w - 1)) == 0


class _ChainBuilder:
    """DFS enumeration of multiply-add chains for vs-mpy-add.

    Reads are processed in sorted order; each step consumes one to three
    reads with an instruction whose widening factor and layout are tracked.
    The first step creates the accumulator; later steps use accumulating
    instruction variants.
    """

    def __init__(self, e: U.VsMpyAdd, child: ChildFn, vbytes: int):
        self.e = e
        self.child = child
        self.vbytes = vbytes
        self.out = e.out_elem
        self.out_shape = shape_of(e.type, vbytes)
        self.results: list[tuple[int, Sketch]] = []
        loads = []
        exprs = []
        for read, weight in zip(e.reads, e.weights):
            if isinstance(read, U.LoadData):
                loads.append((read, weight))
            else:
                exprs.append((read, weight))
        loads.sort(key=lambda rw: (rw[0].buffer, rw[0].stride, rw[0].offset))
        self.items = loads + exprs

    # read helpers ---------------------------------------------------------

    def _consecutive_loads(self, i: int, n: int) -> bool:
        """items[i:i+n] are dense loads at consecutive offsets."""
        if i + n > len(self.items):
            return False
        group = [self.items[i + k][0] for k in range(n)]
        if not all(isinstance(r, U.LoadData) and r.stride == 1 for r in group):
            return False
        first = group[0]
        return all(
            r.buffer == first.buffer and r.offset == first.offset + k
            and r.elem == first.elem and r.lanes == first.lanes
            for k, r in enumerate(group)
        )

    def _strided_pair(self, i: int) -> bool:
        """items[i], items[i+1] are stride-2 loads at offsets o, o+1."""
        if i + 2 > len(self.items):
            return False
        a, b = self.items[i][0], self.items[i + 1][0]
        return (
            isinstance(a, U.LoadData) and isinstance(b, U.LoadData)
            and a.stride == 2 and b.stride == 2 and a.buffer == b.buffer
            and b.offset == a.offset + 1 and a.elem == b.elem
        )

    def _read_impl(self, read: U.UberExpr, layout: str) -> H.HvxExpr | None:
        if isinstance(read, U.LoadData):
            sk = next(iter(_load_sketches(read, self.child, self.vbytes)), None)
            if sk is None:
                return None
            if sk.layout != layout and sk.expr.type.is_pair:
                return AbstractSwizzle(sk.expr, SWIZZLE_DEINTERLEAVE)
            return sk.expr
        if isinstance(read, U.BroadcastScalar):
            return _splat(read.scalar, read.elem, read.lanes, self.vbytes)
        return self.child(read, layout)

    # DFS -------------------------------------------------------------------

    def run(self) -> list[Sketch]:
        self._dfs(0, None, None, 0)
        self.results.sort(key=lambda pair: pair[0])
        return [sk for _cost, sk in self.results]

    def _emit(self, expr: H.HvxExpr, layout: str, cost: int) -> None:
        self.results.append((cost, Sketch(expr, layout)))

    def _dfs(self, i: int, acc, layout, cost: int) -> None:
        if len(self.results) >= MAX_CHAINS:
            return
        if i == len(self.items):
            if acc is not None:
                self._emit(acc, layout, cost)
            return
        for consumed, expr, new_layout, step_cost in self._steps(i, acc, layout):
            if expr is None:
                continue
            self._dfs(i + consumed, expr, new_layout, cost + step_cost)

    def _steps(self, i: int, acc, layout):
        """Yield (consumed, new_acc, new_layout, cost) options at item i."""
        e = self.e
        out_bits = self.out.bits
        read, weight = self.items[i]
        read_bits = read.type.elem.bits
        first = acc is None

        # 3 consecutive reads, trailing weight 1 -> vtmpy (deinterleaved).
        if self.out_shape == "pair" and out_bits == read_bits * 2 \
                and self._consecutive_loads(i, 3) \
                and self.items[i + 2][1] == 1:
            w0, w1 = self.items[i][1], self.items[i + 1][1]
            ld = self.items[i][0]
            window = AbstractPairWindow(ld.buffer, ld.offset, ld.lanes * 2,
                                        ld.elem)
            if first:
                instr = safe_instr("vtmpy", (window,), (w0, w1))
                yield 3, instr, LAYOUT_DEINTERLEAVED, 1
            elif layout == LAYOUT_DEINTERLEAVED:
                instr = safe_instr("vtmpy_acc", (acc, window), (w0, w1))
                yield 3, instr, layout, 1

        # 4 consecutive reads into a 4x widened type -> vrmpy.
        if self.out_shape == "vec" and out_bits == read_bits * 4 \
                and read_bits == 8 and self._consecutive_loads(i, 4):
            ws = tuple(self.items[i + k][1] for k in range(4))
            ld = self.items[i][0]
            window = AbstractWindow(ld.buffer, ld.offset, ld.lanes * 4, ld.elem)
            if first:
                yield 4, safe_instr("vrmpy", (window,), ws), LAYOUT_INORDER, 1
            elif layout == LAYOUT_INORDER:
                yield 4, safe_instr("vrmpy_acc", (acc, window), ws), layout, 1

        # stride-2 read pair -> vdmpy over the dense double window.
        if out_bits == read_bits * 2 and self._strided_pair(i):
            w0, w1 = self.items[i][1], self.items[i + 1][1]
            ld = self.items[i][0]
            if self.out_shape == "vec":
                window = AbstractWindow(ld.buffer, ld.offset, ld.lanes * 2,
                                        ld.elem)
                if first:
                    yield 2, safe_instr("vdmpy", (window,), (w0, w1)), \
                        LAYOUT_INORDER, 1
                elif layout == LAYOUT_INORDER:
                    yield 2, safe_instr("vdmpy_acc", (acc, window),
                                        (w0, w1)), layout, 1
            else:
                # Pair-wide output: one vdmpy per half.  Each half produces
                # lanes/2 outputs from a dense window of lanes elements.
                w_lo = AbstractWindow(ld.buffer, ld.offset, ld.lanes, ld.elem)
                w_hi = AbstractWindow(ld.buffer, ld.offset + ld.lanes,
                                      ld.lanes, ld.elem)
                if first:
                    lo = safe_instr("vdmpy", (w_lo,), (w0, w1))
                    hi = safe_instr("vdmpy", (w_hi,), (w0, w1))
                    yield 2, safe_instr("vcombine", (lo, hi)), \
                        LAYOUT_INORDER, 2
                elif layout == LAYOUT_INORDER:
                    lo = safe_instr(
                        "vdmpy_acc", (safe_instr("lo", (acc,)), w_lo),
                        (w0, w1))
                    hi = safe_instr(
                        "vdmpy_acc", (safe_instr("hi", (acc,)), w_hi),
                        (w0, w1))
                    yield 2, safe_instr("vcombine", (lo, hi)), layout, 2

        # 2 loads (any offsets) -> vmpa over two rows.
        if self.out_shape == "pair" and out_bits == read_bits * 2 \
                and i + 1 < len(self.items):
            r0, r1 = self.items[i][0], self.items[i + 1][0]
            w0, w1 = self.items[i][1], self.items[i + 1][1]
            if isinstance(r0, U.LoadData) and isinstance(r1, U.LoadData) \
                    and r0.elem == r1.elem and r0.stride == r1.stride \
                    and r0.stride in (1, 2):
                rows = AbstractRows(r0.buffer, r0.offset, r1.buffer, r1.offset,
                                    r0.lanes, r0.elem, r0.stride)
                if first:
                    yield 2, safe_instr("vmpa", (rows,), (w0, w1)), \
                        LAYOUT_INORDER, 1
                elif layout == LAYOUT_INORDER:
                    yield 2, safe_instr("vmpa_acc", (acc, rows), (w0, w1)), \
                        layout, 1

        # single-read steps ------------------------------------------------
        yield from self._single_read_steps(i, acc, layout, read, weight,
                                           read_bits, out_bits, first)

    def _single_read_steps(self, i, acc, layout, read, weight, read_bits,
                           out_bits, first):
        e = self.e
        # Widening single read.
        if out_bits == read_bits * 2 and self.out_shape == "pair":
            c = self._read_impl(read, LAYOUT_INORDER)
            if c is not None and c.type.is_vec:
                src = read.type.elem
                if first and weight == 1:
                    op = "vsxt" if src.signed else "vzxt"
                    yield 1, safe_instr(op, (c,)), LAYOUT_INORDER, 1
                splat = H.HvxSplat(ir_expr.Const(src.wrap(weight), src), src,
                                   c.type.lanes)
                if first:
                    yield 1, safe_instr("vmpy", (c, splat)), LAYOUT_INORDER, 1
                else:
                    yield 1, safe_instr("vmpy_acc", (acc, c, splat)), \
                        layout, 1
        # Same-width single read.
        if out_bits == read_bits:
            for lay in ((layout,) if not first
                        else (LAYOUT_INORDER, LAYOUT_DEINTERLEAVED)):
                c = self._read_impl(read, lay)
                if c is None:
                    continue
                if c.type.is_vec and lay == LAYOUT_DEINTERLEAVED:
                    continue
                if first:
                    if weight == 1:
                        yield 1, c, lay, 0
                    elif _is_pow2(weight):
                        yield 1, safe_instr("vasl", (c,),
                                            (weight.bit_length() - 1,)), lay, 1
                    splat = _match_splat(c, self.out, weight)
                    yield 1, safe_instr("vmpyi", (c, splat)), lay, 1
                else:
                    if weight == 1:
                        add_op = "vadd_sat" if e.saturate else "vadd"
                        yield 1, safe_instr(add_op, (acc, c)), lay, 1
                        if e.saturate:
                            yield 1, safe_instr("vadd", (acc, c)), lay, 1
                    elif weight == -1:
                        sub_op = "vsub_sat" if e.saturate else "vsub"
                        yield 1, safe_instr(sub_op, (acc, c)), lay, 1
                    else:
                        splat = _match_splat(c, self.out, weight)
                        yield 1, safe_instr("vmpyi_acc", (acc, c, splat)), \
                            lay, 1


def _match_splat(like: H.HvxExpr, elem: ScalarType, weight: int) -> H.HvxSplat:
    t = like.type
    return H.HvxSplat(
        ir_expr.Const(elem.wrap(weight), elem), t.elem, t.lanes,
        pairwise=t.is_pair,
    )


def _vs_mpy_add_sketches(e: U.VsMpyAdd, child: ChildFn, vbytes: int):
    yield from _ChainBuilder(e, child, vbytes).run()


# -- vv-mpy-add ---------------------------------------------------------------


def _vv_mpy_add_sketches(e: U.VvMpyAdd, child: ChildFn, vbytes: int):
    out_bits = e.out_elem.bits
    out_shape = shape_of(e.type, vbytes)

    # Even/odd word-by-halfword multiplies (the l2norm pattern): a 32-bit
    # broadcast times a 16-bit vector.  vmpyie treats even halfwords as
    # unsigned — admissible only when the oracle can confirm the operand
    # never goes negative in this expression's context.
    if out_bits == 32 and out_shape == "pair" and len(e.pairs) == 1 \
            and e.acc is None:
        a, b = e.pairs[0]
        for w_side, h_side in ((a, b), (b, a)):
            if not isinstance(w_side, U.BroadcastScalar):
                continue
            if w_side.elem.bits != 32 or h_side.type.elem.bits != 16:
                continue
            ch = child(h_side, LAYOUT_INORDER)
            if ch is None or not ch.type.is_vec:
                continue
            splat = H.HvxSplat(w_side.scalar, w_side.elem, e.type.lanes // 2)
            evens = safe_instr("vmpyie", (splat, ch))
            odds = safe_instr("vmpyio", (splat, ch))
            yield Sketch(safe_instr("vcombine", (evens, odds)),
                         LAYOUT_DEINTERLEAVED)
            # The swap-free baseline shape: odd multiplies plus a rotate to
            # reach the even halfwords (costlier; kept for completeness).
            rot = safe_instr("vror", (ch,), (ch.type.lanes - 1,))
            yield Sketch(
                safe_instr("vcombine",
                           (safe_instr("vmpyio", (splat, rot)), odds)),
                LAYOUT_DEINTERLEAVED,
            )

    # General chains of vmpy / vmpy_acc (widening) or vmpyi (same width).
    # A broadcast operand typed at the output width can be re-splat at the
    # input width (sound when the scalar value fits — the oracle checks).
    half_bits = out_bits // 2 if out_bits >= 16 else None
    resplat = False

    def operand(side: U.UberExpr, want_bits: int, lanes: int, signed: bool):
        nonlocal resplat
        if isinstance(side, U.BroadcastScalar) and side.elem.bits != want_bits:
            if want_bits != half_bits:
                return None
            resplat = True
            elem = ScalarType(want_bits, signed)
            return _splat(side.scalar, elem, lanes, vbytes)
        if side.type.elem.bits != want_bits:
            return None
        return child(side, LAYOUT_INORDER)

    lanes = e.type.lanes
    widening_ok = all(
        min(a.type.elem.bits, b.type.elem.bits) * 2 == out_bits
        for a, b in e.pairs
    )
    same_ok = all(
        a.type.elem.bits == b.type.elem.bits == out_bits
        or isinstance(a, U.BroadcastScalar) or isinstance(b, U.BroadcastScalar)
        for a, b in e.pairs
    )
    for mode in ("widening", "same"):
        if mode == "widening" and not widening_ok:
            continue
        if mode == "same" and (not same_ok or widening_ok):
            continue
        want = out_bits // 2 if mode == "widening" else out_bits
        op, acc_op = (("vmpy", "vmpy_acc") if mode == "widening"
                      else ("vmpyi", "vmpyi_acc"))
        # A wide broadcast re-splat at the narrow width can be read as
        # unsigned or signed; only the oracle knows which preserves the
        # scalar's value, so propose both.
        for splat_signed in (False, True):
            resplat = False
            impl = None
            ok = True
            if e.acc is not None:
                impl = child(e.acc, LAYOUT_INORDER)
                ok = impl is not None
            for a, b in e.pairs:
                if not ok:
                    break
                ca = operand(a, want, lanes, splat_signed)
                cb = operand(b, want, lanes, splat_signed)
                if ca is None or cb is None:
                    ok = False
                    break
                if impl is None:
                    impl = safe_instr(op, (ca, cb))
                else:
                    impl = safe_instr(acc_op, (impl, ca, cb))
                ok = impl is not None
            if ok and impl is not None:
                yield Sketch(impl, LAYOUT_INORDER)
            if not resplat:
                break  # no signedness choice was exercised


# -- narrow -------------------------------------------------------------------


def _narrow_sketches(e: U.Narrow, child: ChildFn, vbytes: int):
    src_shape = shape_of(e.value.type, vbytes)
    out_elem = e.out_elem
    src_elem = e.value.type.elem

    if src_shape == "vec":
        # Same-width re-typing, possibly with a shift (a >> k whose
        # result is reinterpreted at the same width).
        if src_elem.bits == out_elem.bits:
            c = child(e.value, LAYOUT_INORDER)
            if c is not None:
                if c.type.elem.signed != out_elem.signed:
                    op = "retype_i" if out_elem.signed else "retype_u"
                    c = safe_instr(op, (c,))
                if c is None:
                    return
                if e.shift == 0:
                    yield Sketch(c, LAYOUT_INORDER)
                else:
                    shift_op = "vasr_rnd" if e.round else "vasr"
                    yield Sketch(
                        safe_instr(shift_op, (c,), (e.shift,)), LAYOUT_INORDER
                    )
                    if not e.round:
                        yield Sketch(
                            safe_instr("vlsr", (c,), (e.shift,)),
                            LAYOUT_INORDER,
                        )
        return
    if src_elem.bits != out_elem.bits * 2:
        return

    for layout in (LAYOUT_INORDER, LAYOUT_DEINTERLEAVED):
        c = child(e.value, layout)
        if c is None or not c.type.is_pair:
            continue
        hi = safe_instr("hi", (c,))
        lo = safe_instr("lo", (c,))
        if layout == LAYOUT_INORDER:
            if e.shift:
                # Fused narrowing shifts (one shift-unit instruction).
                for op in ("vasrn", "vasrn_rnd_sat_u", "vasrn_sat_u",
                           "vasrn_rnd_sat_i", "vasrn_sat_i"):
                    yield Sketch(safe_instr(op, (hi, lo), (e.shift,)),
                                 LAYOUT_INORDER)
                # Two-instruction fallback: shift the pair, then pack.
                shift_op = "vasr_rnd" if e.round else "vasr"
                shifted = safe_instr(shift_op, (c,), (e.shift,))
                for pack in ("vpacke", "vpackub", "vsat", "vpackob", "vsat_i"):
                    yield Sketch(
                        safe_instr(pack, (safe_instr("hi", (shifted,)),
                                          safe_instr("lo", (shifted,)))),
                        LAYOUT_INORDER,
                    )
            else:
                for pack in ("vpacke", "vpackub", "vsat", "vpackob", "vsat_i",
                             "vpacko"):
                    yield Sketch(safe_instr(pack, (hi, lo)), LAYOUT_INORDER)
        else:
            # Deinterleaved source: the interleaving byte shuffles narrow
            # and restore order in one permute. (truncating only)
            if e.shift == 0:
                yield Sketch(safe_instr("vshuffeb", (hi, lo)), LAYOUT_INORDER)
            else:
                shift_op = "vasr_rnd" if e.round else "vasr"
                shifted = safe_instr(shift_op, (c,), (e.shift,))
                yield Sketch(
                    safe_instr("vshuffeb", (safe_instr("hi", (shifted,)),
                                            safe_instr("lo", (shifted,)))),
                    LAYOUT_INORDER,
                )
            # Or interleave first, then use the in-order narrows.
            fixed = AbstractSwizzle(c, SWIZZLE_INTERLEAVE)
            hi2 = safe_instr("hi", (fixed,))
            lo2 = safe_instr("lo", (fixed,))
            if e.shift:
                for op in ("vasrn", "vasrn_rnd_sat_u", "vasrn_sat_u",
                           "vasrn_rnd_sat_i", "vasrn_sat_i"):
                    yield Sketch(safe_instr(op, (hi2, lo2), (e.shift,)),
                                 LAYOUT_INORDER)
            else:
                for pack in ("vpacke", "vpackub", "vsat", "vpackob", "vsat_i"):
                    yield Sketch(safe_instr(pack, (hi2, lo2)), LAYOUT_INORDER)


# -- elementwise -------------------------------------------------------------


_ELEMENTWISE_OPS = {
    U.AbsDiff: ("vabsdiff",),
    U.Minimum: ("vmin",),
    U.Maximum: ("vmax",),
}


def _elementwise_sketches(e: U.UberExpr, child: ChildFn, vbytes: int):
    if isinstance(e, U.Average):
        ops = ("vavg_rnd",) if e.round else ("vavg",)
    else:
        ops = _ELEMENTWISE_OPS[type(e)]
    for layout in (LAYOUT_INORDER, LAYOUT_DEINTERLEAVED):
        ca = child(e.a, layout)
        cb = child(e.b, layout)
        if ca is None or cb is None:
            continue
        if layout == LAYOUT_DEINTERLEAVED and not ca.type.is_pair:
            continue
        for op in ops:
            yield Sketch(safe_instr(op, (ca, cb)), layout)
        if isinstance(e, U.AbsDiff):
            # |a - b| via abs of a signed difference — only sound when the
            # difference cannot overflow; the oracle decides.
            diff = safe_instr("vsub", (ca, cb))
            signed = safe_instr("retype_i", (diff,)) if diff is not None \
                else None
            yield Sketch(safe_instr("vabs", (signed,)), layout)


# -- shift-right --------------------------------------------------------------


def _shift_sketches(e: U.ShiftRight, child: ChildFn, vbytes: int):
    op = "vasr_rnd" if e.round else "vasr"
    for layout in (LAYOUT_INORDER, LAYOUT_DEINTERLEAVED):
        c = child(e.value, layout)
        if c is None:
            continue
        if layout == LAYOUT_DEINTERLEAVED and not c.type.is_pair:
            continue
        yield Sketch(safe_instr(op, (c,), (e.shift,)), layout)
        if not e.round and not e.value.type.elem.signed:
            yield Sketch(safe_instr("vlsr", (c,), (e.shift,)), layout)


# -- mux ----------------------------------------------------------------------


def _mux_sketches(e: U.Mux, child: ChildFn, vbytes: int):
    shape = shape_of(e.type, vbytes)
    ca = child(e.a, LAYOUT_INORDER)
    cb = child(e.b, LAYOUT_INORDER)
    ct = child(e.t, LAYOUT_INORDER)
    cf = child(e.f, LAYOUT_INORDER)
    if None in (ca, cb, ct, cf):
        return

    def cmp_of(a, b):
        if e.op == "gt":
            return safe_instr("vcmp_gt", (a, b))
        if e.op == "lt":
            return safe_instr("vcmp_gt", (b, a))
        return safe_instr("vcmp_eq", (a, b))

    if shape == "vec":
        yield Sketch(safe_instr("vmux", (cmp_of(ca, cb), ct, cf)),
                     LAYOUT_INORDER)
        return
    # Pair-wide mux: operate per half and recombine.
    halves = []
    for part in ("lo", "hi"):
        pa = safe_instr(part, (ca,))
        pb = safe_instr(part, (cb,))
        pt = safe_instr(part, (ct,))
        pf = safe_instr(part, (cf,))
        halves.append(safe_instr("vmux", (cmp_of(pa, pb), pt, pf)))
    yield Sketch(safe_instr("vcombine", tuple(halves)), LAYOUT_INORDER)
