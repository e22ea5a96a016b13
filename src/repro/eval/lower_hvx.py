"""Lowering of HVX machine expressions (and sketch placeholders) to plans.

Value representation: a ``vec`` is its lane tuple as matrix columns, a
``pair`` is *register order* (lo lanes then hi lanes, matching
``VecPair.values``), a ``pred`` is 0/1 columns.  Each lowering mirrors one
``sem_fn`` from :mod:`repro.hvx.semantics` exactly, including which
element type wraps the result (always the same one the runtime ``Vec`` /
``VecPair`` constructor would apply — for in-range results the wrap is
provably the identity and is skipped).

Instructions without an entry in ``_INSTR_BUILDERS`` — and any whose
compile-time operand intervals could overflow int64 — become per-node
fallbacks to :func:`repro.hvx.interp.evaluate`.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..errors import EvaluationError
from ..hvx import isa as H
from ..synthesis import sketch as S
from ..types import ScalarType, VectorType
from .plan import (
    MAX_BATCHED_BITS,
    BankData,
    CompiledNode,
    ValueInfo,
    fits_int64,
    make_fallback,
    np,
    read_buffer,
    saturate_array,
    wrap_array,
)

I16 = ScalarType(16, True)
U16 = ScalarType(16, False)


def _info_hvx(node: H.HvxExpr) -> ValueInfo:
    t = node.type
    return ValueInfo(t.kind, t.elem, t.lanes)


def _rng(k: CompiledNode):
    return k.info.value_range()


def _mul_fits(a, b) -> bool:
    corners = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return fits_int64(min(corners), max(corners))


def _wsum_fits(parts, start=(0, 0)) -> bool:
    """Left-to-right partial sums of intervals all inside int64."""
    lo, hi = start
    if not fits_int64(lo, hi):
        return False
    for plo, phi in parts:
        if not fits_int64(plo, phi):
            return False
        lo, hi = lo + plo, hi + phi
        if not fits_int64(lo, hi):
            return False
    return True


def _scaled(iv, w):
    lo, hi = iv[0] * w, iv[1] * w
    return (min(lo, hi), max(lo, hi))


def compile_hvx(node: H.HvxExpr, ev) -> CompiledNode:
    info = _info_hvx(node)
    if info.elem is not None and info.elem.bits > MAX_BATCHED_BITS:
        return make_fallback(node, info, "hvx")

    if isinstance(node, H.HvxSplat):
        kids = [ev.node_for(node.scalar)]
    else:
        kids = [ev.node_for(c) for c in node.children]
    if any(k.info.elem is not None and k.info.elem.bits > MAX_BATCHED_BITS
           for k in kids):
        return make_fallback(node, info, "hvx")

    fn = _build_hvx(node, info, kids)
    if fn is None:
        return make_fallback(node, info, "hvx")
    return CompiledNode(fn, tuple(kids), info)


def _build_hvx(node: H.HvxExpr, info: ValueInfo,
               kids: List[CompiledNode]) -> Optional[Callable]:
    if isinstance(node, H.HvxLoad):
        buffer, offset, lanes = node.buffer, node.offset, node.lanes
        elem = node.elem

        def fn(bank: BankData, args):
            # Buffer contents are view-wrapped; Vec re-wraps to node.elem.
            return wrap_array(read_buffer(bank, buffer, offset, lanes, 1), elem)

        return fn

    if isinstance(node, H.HvxSplat):
        if isinstance(node.scalar.type, VectorType):

            def fn(bank: BankData, args):
                raise EvaluationError("vsplat operand evaluated to a vector")

            return fn
        elem, lanes = node.elem, node.lanes

        def fn(bank: BankData, args):
            value = wrap_array(args[0], elem)
            return np.broadcast_to(value, (value.shape[0], lanes))

        return fn

    if isinstance(node, S.AbstractWindow):
        buffer, offset, lanes = node.buffer, node.offset, node.lanes
        stride, elem = node.stride, node.elem

        def fn(bank: BankData, args):
            return wrap_array(
                read_buffer(bank, buffer, offset, lanes, stride), elem
            )

        return fn

    if isinstance(node, S.AbstractPairWindow):
        buffer, offset, lanes, elem = (
            node.buffer, node.offset, node.lanes, node.elem,
        )

        def fn(bank: BankData, args):
            return wrap_array(read_buffer(bank, buffer, offset, lanes, 1), elem)

        return fn

    if isinstance(node, S.AbstractRows):
        buffer0, offset0 = node.buffer0, node.offset0
        buffer1, offset1 = node.buffer1, node.offset1
        lanes, stride, elem = node.lanes, node.stride, node.elem

        def fn(bank: BankData, args):
            row0 = read_buffer(bank, buffer0, offset0, lanes, stride)
            row1 = read_buffer(bank, buffer1, offset1, lanes, stride)
            return wrap_array(np.concatenate((row0, row1), axis=1), elem)

        return fn

    if isinstance(node, S.AbstractSwizzle):
        mode = node.mode
        child = kids[0]
        if mode == S.SWIZZLE_IDENTITY:
            return lambda bank, args: args[0]
        if child.info.kind != "pair":

            def fn(bank: BankData, args):
                raise EvaluationError("swizzle re-layout applies to pairs")

            return fn
        if mode == S.SWIZZLE_INTERLEAVE:
            return _interleave_fn
        return _deinterleave_fn

    if isinstance(node, H.HvxInstr):
        builder = _INSTR_BUILDERS.get(node.op)
        if builder is None:
            return None
        return builder(node, info, kids)

    return None


def _interleave_fn(bank: BankData, args):
    (arr,) = args
    half = arr.shape[1] // 2
    out = np.empty((arr.shape[0], arr.shape[1]), dtype=np.int64)
    out[:, 0::2] = arr[:, :half]
    out[:, 1::2] = arr[:, half:]
    return out


def _deinterleave_fn(bank: BankData, args):
    (arr,) = args
    return np.concatenate((arr[:, 0::2], arr[:, 1::2]), axis=1)


# ---------------------------------------------------------------------------
# instruction builders: op name -> (node, info, kids) -> fn | None
# ---------------------------------------------------------------------------


def _elemwise_wrapping(op):
    """vadd/vsub: wrap(op(x, y)) with the FIRST operand's element type."""

    def build(node, info, kids):
        elem = kids[0].info.elem
        return lambda bank, args: wrap_array(op(args[0], args[1]), elem)

    return build


def _elemwise_saturating(op):
    def build(node, info, kids):
        elem = kids[0].info.elem
        return lambda bank, args: saturate_array(op(args[0], args[1]), elem)

    return build


def _build_vavg(node, info, kids):
    # (x + y) >> 1 of same-range operands is always back in range: no wrap.
    return lambda bank, args: (args[0] + args[1]) >> 1


def _build_vavg_rnd(node, info, kids):
    return lambda bank, args: (args[0] + args[1] + 1) >> 1


def _build_vnavg(node, info, kids):
    elem = kids[0].info.elem
    return lambda bank, args: wrap_array((args[0] - args[1]) >> 1, elem)


def _build_vabsdiff(node, info, kids):
    return lambda bank, args: np.abs(args[0] - args[1])


def _build_vmax(node, info, kids):
    return lambda bank, args: np.maximum(args[0], args[1])


def _build_vmin(node, info, kids):
    return lambda bank, args: np.minimum(args[0], args[1])


def _bitwise(op):
    def build(node, info, kids):
        elem = kids[0].info.elem
        mask = (1 << elem.bits) - 1
        return lambda bank, args: wrap_array(
            op(args[0] & mask, args[1] & mask), elem
        )

    return build


def _build_vnot(node, info, kids):
    elem = kids[0].info.elem
    mask = (1 << elem.bits) - 1
    return lambda bank, args: wrap_array(~args[0] & mask, elem)


def _build_vabs(node, info, kids):
    elem = kids[0].info.elem
    return lambda bank, args: wrap_array(np.abs(args[0]), elem)


def _build_vabs_sat(node, info, kids):
    elem = kids[0].info.elem
    return lambda bank, args: saturate_array(np.abs(args[0]), elem)


def _cmp(op):
    def build(node, info, kids):
        return lambda bank, args: op(args[0], args[1]).astype(np.int64)

    return build


def _build_vmux(node, info, kids):
    return lambda bank, args: np.where(args[0] != 0, args[1], args[2])


def _build_extend(node, info, kids):
    # vzxt/vsxt re-tag the element type; the typed values are unchanged.
    return lambda bank, args: args[0]


def _build_vmpy(node, info, kids):
    if not _mul_fits(_rng(kids[0]), _rng(kids[1])):
        return None
    # The product of in-range factors is in range for the widened type.
    return lambda bank, args: args[0] * args[1]


def _build_vmpy_acc(node, info, kids):
    acc, a, b = kids
    prod = _rng(a), _rng(b)
    if not _mul_fits(*prod):
        return None
    corners = [x * y for x in prod[0] for y in prod[1]]
    if not _wsum_fits([(min(corners), max(corners))], _rng(acc)):
        return None
    elem = acc.info.elem
    return lambda bank, args: wrap_array(args[0] + args[1] * args[2], elem)


def _build_vmpyi(node, info, kids):
    if not _mul_fits(_rng(kids[0]), _rng(kids[1])):
        return None
    elem = kids[0].info.elem
    return lambda bank, args: wrap_array(args[0] * args[1], elem)


def _build_vmpyi_acc(node, info, kids):
    acc, a, b = kids
    prod = _rng(a), _rng(b)
    if not _mul_fits(*prod):
        return None
    corners = [x * y for x in prod[0] for y in prod[1]]
    if not _wsum_fits([(min(corners), max(corners))], _rng(acc)):
        return None
    elem = acc.info.elem
    return lambda bank, args: wrap_array(args[0] + args[1] * args[2], elem)


def _build_vmpa(node, info, kids):
    w0, w1 = node.imms
    p = _rng(kids[0])
    if not _wsum_fits([_scaled(p, w0), _scaled(p, w1)]):
        return None
    elem = info.elem
    half = kids[0].info.lanes // 2

    def fn(bank: BankData, args):
        (arr,) = args
        return wrap_array(arr[:, :half] * w0 + arr[:, half:] * w1, elem)

    return fn


def _build_vmpa_acc(node, info, kids):
    w0, w1 = node.imms
    p = _rng(kids[1])
    if not _wsum_fits([_scaled(p, w0), _scaled(p, w1)], _rng(kids[0])):
        return None
    elem = kids[0].info.elem
    half = kids[1].info.lanes // 2

    def fn(bank: BankData, args):
        acc, arr = args
        return wrap_array(acc + arr[:, :half] * w0 + arr[:, half:] * w1, elem)

    return fn


def _build_vdmpy(node, info, kids):
    w0, w1 = node.imms
    a = _rng(kids[0])
    if not _wsum_fits([_scaled(a, w0), _scaled(a, w1)]):
        return None
    elem = info.elem

    def fn(bank: BankData, args):
        (arr,) = args
        return wrap_array(arr[:, 0::2] * w0 + arr[:, 1::2] * w1, elem)

    return fn


def _build_vdmpy_acc(node, info, kids):
    w0, w1 = node.imms
    a = _rng(kids[1])
    if not _wsum_fits([_scaled(a, w0), _scaled(a, w1)], _rng(kids[0])):
        return None
    elem = kids[0].info.elem

    def fn(bank: BankData, args):
        acc, arr = args
        return wrap_array(acc + arr[:, 0::2] * w0 + arr[:, 1::2] * w1, elem)

    return fn


def _vtmpy_logical(arr, n, w0, w1):
    return arr[:, 0:n] * w0 + arr[:, 1:n + 1] * w1 + arr[:, 2:n + 2]


def _build_vtmpy(node, info, kids):
    w0, w1 = node.imms
    p = _rng(kids[0])
    if not _wsum_fits([_scaled(p, w0), _scaled(p, w1), p]):
        return None
    elem = info.elem
    n = kids[0].info.lanes // 2

    def fn(bank: BankData, args):
        logical = _vtmpy_logical(args[0], n, w0, w1)
        # vtmpy's result pair is deinterleaved: even logical lanes in lo.
        dealt = np.concatenate((logical[:, 0::2], logical[:, 1::2]), axis=1)
        return wrap_array(dealt, elem)

    return fn


def _build_vtmpy_acc(node, info, kids):
    w0, w1 = node.imms
    p = _rng(kids[1])
    if not _wsum_fits([_scaled(p, w0), _scaled(p, w1), p], _rng(kids[0])):
        return None
    elem = kids[0].info.elem
    n = kids[1].info.lanes // 2

    def fn(bank: BankData, args):
        acc, arr = args
        logical = _vtmpy_logical(arr, n, w0, w1)
        dealt = np.concatenate((logical[:, 0::2], logical[:, 1::2]), axis=1)
        return wrap_array(acc + dealt, elem)

    return fn


def _build_vrmpy(node, info, kids):
    a = _rng(kids[0])
    if not _wsum_fits([_scaled(a, w) for w in node.imms]):
        return None
    elem = info.elem
    imms = node.imms

    def fn(bank: BankData, args):
        (arr,) = args
        total = arr[:, 0::4] * imms[0]
        for k in range(1, 4):
            total = total + arr[:, k::4] * imms[k]
        return wrap_array(total, elem)

    return fn


def _build_vrmpy_acc(node, info, kids):
    a = _rng(kids[1])
    if not _wsum_fits([_scaled(a, w) for w in node.imms], _rng(kids[0])):
        return None
    elem = kids[0].info.elem
    imms = node.imms

    def fn(bank: BankData, args):
        acc, arr = args
        total = acc + arr[:, 0::4] * imms[0]
        for k in range(1, 4):
            total = total + arr[:, k::4] * imms[k]
        return wrap_array(total, elem)

    return fn


def _build_vmpyio(node, info, kids):
    elem = info.elem  # i32; |w| * 2^15 <= 2^46: always fits.

    def fn(bank: BankData, args):
        w, h = args
        return wrap_array(w * wrap_array(h[:, 1::2], I16), elem)

    return fn


def _build_vmpyie(node, info, kids):
    elem = info.elem  # |w| * 2^16 <= 2^47: always fits.

    def fn(bank: BankData, args):
        w, h = args
        return wrap_array(w * wrap_array(h[:, 0::2], U16), elem)

    return fn


def _build_vasl(node, info, kids):
    elem = kids[0].info.elem
    factor = 1 << node.imms[0]  # |x| * 2^(bits-1) < 2^63 for bits <= 32
    return lambda bank, args: wrap_array(args[0] * factor, elem)


def _build_vasr(node, info, kids):
    elem = kids[0].info.elem
    n = node.imms[0]
    return lambda bank, args: wrap_array(args[0] >> n, elem)


def _build_vlsr(node, info, kids):
    elem = kids[0].info.elem
    mask = (1 << elem.bits) - 1
    n = node.imms[0]
    return lambda bank, args: wrap_array((args[0] & mask) >> n, elem)


def _build_vasr_rnd(node, info, kids):
    elem = kids[0].info.elem
    n = node.imms[0]
    bias = (1 << (n - 1)) if n else 0
    return lambda bank, args: wrap_array((args[0] + bias) >> n, elem)


def _build_narrow_shift(round_: bool, saturate: bool):
    def build(node, info, kids):
        n = node.imms[0]
        bias = (1 << (n - 1)) if (round_ and n) else 0
        conv = saturate_array if saturate else wrap_array
        elem = info.elem

        def fn(bank: BankData, args):
            hi, lo = args
            seq = np.concatenate((lo, hi), axis=1)
            return conv((seq + bias) >> n, elem)

        return fn

    return build


def _build_vsat(node, info, kids):
    elem = info.elem

    def fn(bank: BankData, args):
        hi, lo = args
        return saturate_array(np.concatenate((lo, hi), axis=1), elem)

    return fn


def _build_vcombine(node, info, kids):
    return lambda bank, args: np.concatenate((args[0], args[1]), axis=1)


def _build_lo(node, info, kids):
    half = kids[0].info.lanes // 2
    return lambda bank, args: args[0][:, :half]


def _build_hi(node, info, kids):
    half = kids[0].info.lanes // 2
    return lambda bank, args: args[0][:, half:]


def _build_vpacke(node, info, kids):
    elem = info.elem

    def fn(bank: BankData, args):
        hi, lo = args
        return wrap_array(np.concatenate((lo, hi), axis=1), elem)

    return fn


def _build_vpacko(node, info, kids):
    src = kids[0].info.elem
    dst = info.elem
    mask = (1 << src.bits) - 1

    def fn(bank: BankData, args):
        hi, lo = args
        seq = np.concatenate((lo, hi), axis=1)
        return wrap_array((seq & mask) >> dst.bits, dst)

    return fn


def _build_vpack_sat(node, info, kids):
    elem = info.elem

    def fn(bank: BankData, args):
        hi, lo = args
        return saturate_array(np.concatenate((lo, hi), axis=1), elem)

    return fn


def _build_vshuffeb(node, info, kids):
    dst = info.elem

    def fn(bank: BankData, args):
        hi, lo = args
        out = np.empty((hi.shape[0], 2 * hi.shape[1]), dtype=np.int64)
        out[:, 0::2] = wrap_array(lo, dst)
        out[:, 1::2] = wrap_array(hi, dst)
        return out

    return fn


def _build_vshuffob(node, info, kids):
    src = kids[0].info.elem
    dst = info.elem
    mask = (1 << src.bits) - 1
    shift = src.bits // 2

    def fn(bank: BankData, args):
        hi, lo = args
        out = np.empty((hi.shape[0], 2 * hi.shape[1]), dtype=np.int64)
        out[:, 0::2] = wrap_array((lo & mask) >> shift, dst)
        out[:, 1::2] = wrap_array((hi & mask) >> shift, dst)
        return out

    return fn


def _build_valign(node, info, kids):
    n = node.imms[0]
    lanes = kids[0].info.lanes

    def fn(bank: BankData, args):
        return np.concatenate((args[0], args[1]), axis=1)[:, n:n + lanes]

    return fn


def _build_vror(node, info, kids):
    lanes = kids[0].info.lanes
    n = node.imms[0] % lanes

    def fn(bank: BankData, args):
        (arr,) = args
        if n == 0:
            return arr
        return np.concatenate((arr[:, n:], arr[:, :n]), axis=1)

    return fn


def _build_retype(node, info, kids):
    elem = info.elem
    return lambda bank, args: wrap_array(args[0], elem)


_INSTR_BUILDERS = {
    "vadd": _elemwise_wrapping(lambda a, b: a + b),
    "vadd_sat": _elemwise_saturating(lambda a, b: a + b),
    "vsub": _elemwise_wrapping(lambda a, b: a - b),
    "vsub_sat": _elemwise_saturating(lambda a, b: a - b),
    "vavg": _build_vavg,
    "vavg_rnd": _build_vavg_rnd,
    "vnavg": _build_vnavg,
    "vabsdiff": _build_vabsdiff,
    "vmax": _build_vmax,
    "vmin": _build_vmin,
    "vand": _bitwise(lambda a, b: a & b),
    "vor": _bitwise(lambda a, b: a | b),
    "vxor": _bitwise(lambda a, b: a ^ b),
    "vnot": _build_vnot,
    "vabs": _build_vabs,
    "vabs_sat": _build_vabs_sat,
    "vcmp_gt": _cmp(np.greater),
    "vcmp_eq": _cmp(np.equal),
    "vmux": _build_vmux,
    "vzxt": _build_extend,
    "vsxt": _build_extend,
    "vmpy": _build_vmpy,
    "vmpy_acc": _build_vmpy_acc,
    "vmpyi": _build_vmpyi,
    "vmpyi_acc": _build_vmpyi_acc,
    "vmpa": _build_vmpa,
    "vmpa_acc": _build_vmpa_acc,
    "vdmpy": _build_vdmpy,
    "vdmpy_acc": _build_vdmpy_acc,
    "vtmpy": _build_vtmpy,
    "vtmpy_acc": _build_vtmpy_acc,
    "vrmpy": _build_vrmpy,
    "vrmpy_acc": _build_vrmpy_acc,
    "vmpyio": _build_vmpyio,
    "vmpyie": _build_vmpyie,
    "vasl": _build_vasl,
    "vasr": _build_vasr,
    "vlsr": _build_vlsr,
    "vasr_rnd": _build_vasr_rnd,
    "vasrn": _build_narrow_shift(round_=False, saturate=False),
    "vasrn_rnd_sat_u": _build_narrow_shift(round_=True, saturate=True),
    "vasrn_sat_u": _build_narrow_shift(round_=False, saturate=True),
    "vasrn_rnd_sat_i": _build_narrow_shift(round_=True, saturate=True),
    "vasrn_sat_i": _build_narrow_shift(round_=False, saturate=True),
    "vsat": _build_vsat,
    "vsat_i": _build_vsat,
    "vcombine": _build_vcombine,
    "lo": _build_lo,
    "hi": _build_hi,
    "vshuffvdd": lambda node, info, kids: _interleave_fn,
    "vdealvdd": lambda node, info, kids: _deinterleave_fn,
    "vpacke": _build_vpacke,
    "vpacko": _build_vpacko,
    "vpackub": _build_vpack_sat,
    "vpackob": _build_vpack_sat,
    "vshuffeb": _build_vshuffeb,
    "vshuffob": _build_vshuffob,
    "valign": _build_valign,
    "vror": _build_vror,
    "retype_i": _build_retype,
    "retype_u": _build_retype,
}
