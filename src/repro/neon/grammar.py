"""Swizzle-free sketch grammars for the ARM Neon target.

The lifted Uber-Instruction IR is reused verbatim (the paper's Section 6
observation); only this lowering grammar changes.  Differences from HVX
that show up directly in the grammar:

* no sliding-window reductions (vtmpy/vdmpy/vrmpy) — windows are realized
  with ``vext`` and consumed by per-read ``vmlal`` chains;
* no two-row vmpa — but ``vaddw`` folds a widening add into one
  instruction, and ``vmlal`` is a first-class accumulate;
* widening results are IN-ORDER pairs, so no layout search is needed;
* the fused narrow family is ``vqrshrun``/``vrshrn`` (Neon's counterpart
  of HVX's vasr-rnd-sat).

Like the HVX grammar, sketches are *swizzle-free*: data movement stays
behind the abstract placeholders of :mod:`repro.synthesis.sketch`, and
stage 3 concretizes them from the swizzle grammar at the Neon entry's op
names (:meth:`repro.targets.TargetDescription.realizations` — ``vext``
splices, free ``vpair`` register pairs, ``vuzp``/``vzip`` permutes).

The fixed-point core (load/broadcast/widen/vs-mpy-add/vv-mpy-add/narrow/
elementwise/shift) is covered; mux lowering is left to future work.
"""

from __future__ import annotations

from typing import Iterator

from ..ir import expr as ir_expr
from ..synthesis.grammar import ChildFn, Sketch, safe_instr, shape_of
from ..synthesis.oracle import LAYOUT_INORDER
from ..synthesis.sketch import AbstractPairWindow, AbstractWindow
from ..targets import nodes as H
from ..types import ScalarType, VectorType
from ..uber import instructions as U
from .semantics import NEON_VBYTES  # noqa: F401 - registers the ISA

MAX_CHAINS = 32


def window(buffer: str, offset: int, lanes: int, elem: ScalarType,
           stride: int = 1) -> H.HvxExpr | None:
    """An abstract ``??load`` of an element window (realized in stage 3)."""
    if stride in (1, 2, 4):
        return AbstractWindow(buffer, offset, lanes, elem, stride)
    return None


def _pair_window(buffer: str, offset: int, lanes: int, elem: ScalarType):
    return AbstractPairWindow(buffer, offset, lanes, elem)


def _dup(scalar: ir_expr.Expr, elem: ScalarType, lanes: int, vbytes: int):
    return H.HvxSplat(
        scalar, elem, lanes,
        pairwise=shape_of(VectorType(elem, lanes), vbytes) == "pair",
    )


def sketches(e: U.UberExpr, child: ChildFn, vbytes: int) -> Iterator[Sketch]:
    """Neon sketch candidates for one uber-instruction."""
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
    }.get(type(e))
    if gen is None:
        return
    for sk in gen(e, child, vbytes):
        if sk.expr is not None:
            yield sk


def _load_sketches(e: U.LoadData, child, vbytes):
    if shape_of(e.type, vbytes) == "vec":
        yield Sketch(window(e.buffer, e.offset, e.lanes, e.elem, e.stride),
                     LAYOUT_INORDER)
    elif e.stride == 1:
        yield Sketch(_pair_window(e.buffer, e.offset, e.lanes, e.elem),
                     LAYOUT_INORDER)


def _broadcast_sketches(e: U.BroadcastScalar, child, vbytes):
    yield Sketch(_dup(e.scalar, e.elem, e.lanes, vbytes), LAYOUT_INORDER)


def _widen_sketches(e: U.Widen, child, vbytes):
    src = e.value.type.elem
    if e.out_elem.bits != src.bits * 2:
        return
    c = child(e.value, LAYOUT_INORDER)
    if c is None or not c.type.is_vec:
        return
    op = "neon.vmovl_s" if src.signed else "neon.vmovl_u"
    yield Sketch(safe_instr(op, (c,)), LAYOUT_INORDER)


def _read_impl(read: U.UberExpr, child, vbytes):
    if isinstance(read, U.LoadData):
        sk = next(iter(_load_sketches(read, child, vbytes)), None)
        return sk.expr if sk else None
    if isinstance(read, U.BroadcastScalar):
        return _dup(read.scalar, read.elem, read.lanes, vbytes)
    return child(read, LAYOUT_INORDER)


def _vs_mpy_add_sketches(e: U.VsMpyAdd, child, vbytes):
    out = e.out_elem
    out_shape = shape_of(e.type, vbytes)
    items = sorted(
        zip(e.reads, e.weights),
        key=lambda rw: (
            not isinstance(rw[0], U.LoadData),
            getattr(rw[0], "buffer", ""), getattr(rw[0], "offset", 0),
        ),
    )
    results: list[tuple[int, Sketch]] = []

    def dfs(i, acc, cost):
        if len(results) >= MAX_CHAINS:
            return
        if i == len(items):
            if acc is not None:
                results.append((cost, Sketch(acc, LAYOUT_INORDER)))
            return
        read, weight = items[i]
        read_bits = read.type.elem.bits
        src = read.type.elem
        first = acc is None

        if out.bits == read_bits * 2 and out_shape == "pair":
            c = _read_impl(read, child, vbytes)
            if c is not None and c.type.is_vec:
                dup = _dup(ir_expr.Const(src.wrap(weight), src), src,
                           c.type.lanes * 1, vbytes)
                if first:
                    if weight == 1:
                        op = "neon.vmovl_s" if src.signed else "neon.vmovl_u"
                        dfs(i + 1, safe_instr(op, (c,)), cost + 1)
                    dfs(i + 1, safe_instr("neon.vmull", (c, dup)), cost + 1)
                else:
                    if weight == 1:
                        dfs(i + 1, safe_instr("neon.vaddw", (acc, c)),
                            cost + 1)
                    dfs(i + 1, safe_instr("neon.vmlal", (acc, c, dup)),
                        cost + 1)
        if out.bits == read_bits:
            c = _read_impl(read, child, vbytes)
            if c is not None:
                t = c.type
                dup = _dup(ir_expr.Const(out.wrap(weight), out), t.elem,
                           t.lanes, vbytes)
                if first:
                    if weight == 1:
                        dfs(i + 1, c, cost)
                    else:
                        dfs(i + 1, safe_instr("neon.vmul", (c, dup)), cost + 1)
                else:
                    if weight == 1:
                        add_op = "neon.vqadd" if e.saturate else "neon.vadd"
                        dfs(i + 1, safe_instr(add_op, (acc, c)), cost + 1)
                    elif weight == -1:
                        sub_op = "neon.vqsub" if e.saturate else "neon.vsub"
                        dfs(i + 1, safe_instr(sub_op, (acc, c)), cost + 1)
                    else:
                        dfs(i + 1, safe_instr("neon.vmla", (acc, c, dup)),
                            cost + 1)

    try:
        dfs(0, None, 0)
    finally:
        # ``dfs`` refers to itself through its cell and holds ``child``
        # (the Lowerer, and with it the Oracle); free them without the
        # cyclic collector.
        del dfs
    results.sort(key=lambda pair: pair[0])
    for _cost, sk in results:
        yield sk


def _vv_mpy_add_sketches(e: U.VvMpyAdd, child, vbytes):
    out_bits = e.out_elem.bits
    bits = {p.type.elem.bits for pair in e.pairs for p in pair}
    if bits != {out_bits // 2}:
        return
    impl = None
    if e.acc is not None:
        impl = child(e.acc, LAYOUT_INORDER)
        if impl is None:
            return
    for a, b in e.pairs:
        ca = _read_impl(a, child, vbytes)
        cb = _read_impl(b, child, vbytes)
        if ca is None or cb is None:
            return
        if impl is None:
            impl = safe_instr("neon.vmull", (ca, cb))
        else:
            impl = safe_instr("neon.vmlal", (impl, ca, cb))
        if impl is None:
            return
    yield Sketch(impl, LAYOUT_INORDER)


def _narrow_sketches(e: U.Narrow, child, vbytes):
    src = e.value.type.elem
    out = e.out_elem
    if shape_of(e.value.type, vbytes) == "vec":
        if src.bits == out.bits:
            c = child(e.value, LAYOUT_INORDER)
            if c is None:
                return
            if e.shift:
                op = "neon.vrshr_n" if e.round else "neon.vshr_n"
                yield Sketch(safe_instr(op, (c,), (e.shift,)), LAYOUT_INORDER)
            else:
                yield Sketch(c, LAYOUT_INORDER)
        return
    if src.bits != out.bits * 2:
        return
    c = child(e.value, LAYOUT_INORDER)
    if c is None or not c.type.is_pair:
        return
    if e.shift:
        for op in ("neon.vshrn_n", "neon.vrshrn_n", "neon.vqrshrun_n",
                   "neon.vqrshrn_n"):
            yield Sketch(safe_instr(op, (c,), (e.shift,)), LAYOUT_INORDER)
    else:
        for op in ("neon.vmovn", "neon.vqmovun", "neon.vqmovn"):
            yield Sketch(safe_instr(op, (c,)), LAYOUT_INORDER)


_ELEMENTWISE = {
    U.AbsDiff: ("neon.vabd",),
    U.Minimum: ("neon.vmin",),
    U.Maximum: ("neon.vmax",),
}


def _elementwise_sketches(e, child, vbytes):
    if isinstance(e, U.Average):
        ops = ("neon.vrhadd",) if e.round else ("neon.vhadd",)
    else:
        ops = _ELEMENTWISE[type(e)]
    ca = child(e.a, LAYOUT_INORDER)
    cb = child(e.b, LAYOUT_INORDER)
    if ca is None or cb is None:
        return
    for op in ops:
        yield Sketch(safe_instr(op, (ca, cb)), LAYOUT_INORDER)


def _shift_sketches(e: U.ShiftRight, child, vbytes):
    c = child(e.value, LAYOUT_INORDER)
    if c is None:
        return
    op = "neon.vrshr_n" if e.round else "neon.vshr_n"
    yield Sketch(safe_instr(op, (c,), (e.shift,)), LAYOUT_INORDER)
