"""Lowering of Neon machine expressions to batched plans.

Same representation and exactness contract as :mod:`repro.eval.lower_hvx`
(int64 matrices of typed values; every lowering mirrors one ``sem_fn``
from :mod:`repro.neon.semantics` bit-for-bit, with compile-time interval
checks before any sum or product).  Only instructions carrying the
``neon.`` prefix are owned here — the shared load / splat / lo / hi /
placeholder nodes inside a Neon tree compile through the HVX lowering,
whose builders are target neutral for those shapes.

Neon-specific wrinkles, relative to HVX:

* widening results are *in order* (``vmull`` writes consecutive lanes),
  so narrows operate lanewise on the child matrix with no concatenation
  reorder;
* ``vpair`` is pure register pairing — a column concatenation;
* ``vuzp`` / ``vzip`` reuse the HVX deinterleave / interleave kernels.
"""

from __future__ import annotations

from ..hvx import isa as H
from .lower_hvx import (
    _deinterleave_fn,
    _info_hvx,
    _interleave_fn,
    _mul_fits,
    _rng,
    _wsum_fits,
)
from .plan import (
    MAX_BATCHED_BITS,
    BankData,
    CompiledNode,
    make_fallback,
    np,
    saturate_array,
    wrap_array,
)

#: op-name prefix of the instructions this module lowers
PREFIX = "neon."


def compile_neon(node: H.HvxInstr, ev) -> CompiledNode:
    info = _info_hvx(node)
    if info.elem is not None and info.elem.bits > MAX_BATCHED_BITS:
        # family "hvx" re-enters the machine interpreter, which covers
        # neon ops through their registered sem_fns.
        return make_fallback(node, info, "hvx")

    kids = [ev.node_for(c) for c in node.children]
    if any(k.info.elem is not None and k.info.elem.bits > MAX_BATCHED_BITS
           for k in kids):
        return make_fallback(node, info, "hvx")

    builder = _INSTR_BUILDERS.get(node.op)
    fn = builder(node, info, kids) if builder is not None else None
    if fn is None:
        return make_fallback(node, info, "hvx")
    return CompiledNode(fn, tuple(kids), info)


# ---------------------------------------------------------------------------
# instruction builders: op name -> (node, info, kids) -> fn | None
# ---------------------------------------------------------------------------


def _build_vmovl(node, info, kids):
    # Zero/sign extension preserves the typed value; lanes stay in order.
    return lambda bank, args: args[0]


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


def _build_vmax(node, info, kids):
    return lambda bank, args: np.maximum(args[0], args[1])


def _build_vmin(node, info, kids):
    return lambda bank, args: np.minimum(args[0], args[1])


def _build_vhadd(node, info, kids):
    # (x + y) >> 1 of same-range operands is always back in range.
    return lambda bank, args: (args[0] + args[1]) >> 1


def _build_vrhadd(node, info, kids):
    return lambda bank, args: (args[0] + args[1] + 1) >> 1


def _build_vabd(node, info, kids):
    return lambda bank, args: np.abs(args[0] - args[1])


def _abs_diff_interval(a, b):
    lo, hi = a[0] - b[1], a[1] - b[0]
    return (0, max(abs(lo), abs(hi)))


def _build_vabal(node, info, kids):
    acc, a, b = kids
    diff = _abs_diff_interval(_rng(a), _rng(b))
    if not _wsum_fits([diff], _rng(acc)):
        return None
    elem = acc.info.elem
    return lambda bank, args: wrap_array(
        args[0] + np.abs(args[1] - args[2]), elem
    )


def _build_vmull(node, info, kids):
    if not _mul_fits(_rng(kids[0]), _rng(kids[1])):
        return None
    # The product of in-range factors is in range for the widened type.
    return lambda bank, args: args[0] * args[1]


def _mul_acc_guard(acc, a, b):
    prod = _rng(a), _rng(b)
    if not _mul_fits(*prod):
        return False
    corners = [x * y for x in prod[0] for y in prod[1]]
    return _wsum_fits([(min(corners), max(corners))], _rng(acc))


def _build_vmlal(node, info, kids):
    acc, a, b = kids
    if not _mul_acc_guard(acc, a, b):
        return None
    elem = acc.info.elem
    return lambda bank, args: wrap_array(args[0] + args[1] * args[2], elem)


def _build_vmul(node, info, kids):
    if not _mul_fits(_rng(kids[0]), _rng(kids[1])):
        return None
    elem = kids[0].info.elem
    return lambda bank, args: wrap_array(args[0] * args[1], elem)


def _build_vmla(node, info, kids):
    acc, a, b = kids
    if not _mul_acc_guard(acc, a, b):
        return None
    elem = acc.info.elem
    return lambda bank, args: wrap_array(args[0] + args[1] * args[2], elem)


def _build_vaddw(node, info, kids):
    acc, a = kids
    if not _wsum_fits([_rng(a)], _rng(acc)):
        return None
    elem = acc.info.elem
    return lambda bank, args: wrap_array(args[0] + args[1], elem)


def _build_vshl_n(node, info, kids):
    elem = kids[0].info.elem
    factor = 1 << node.imms[0]  # |x| * 2^(bits-1) < 2^63 for bits <= 32
    return lambda bank, args: wrap_array(args[0] * factor, elem)


def _build_vshr_n(node, info, kids):
    elem = kids[0].info.elem
    n = node.imms[0]
    return lambda bank, args: wrap_array(args[0] >> n, elem)


def _build_vrshr_n(node, info, kids):
    elem = kids[0].info.elem
    n = node.imms[0]
    bias = (1 << (n - 1)) if n else 0
    return lambda bank, args: wrap_array((args[0] + bias) >> n, elem)


def _build_narrow(round_: bool, saturate: bool, shifted: bool):
    """Neon narrows are lanewise on an in-order pair — no lane reorder."""

    def build(node, info, kids):
        n = node.imms[0] if shifted else 0
        bias = (1 << (n - 1)) if (round_ and n) else 0
        conv = saturate_array if saturate else wrap_array
        elem = info.elem
        return lambda bank, args: conv((args[0] + bias) >> n, elem)

    return build


def _build_vext(node, info, kids):
    n = node.imms[0]
    lanes = kids[0].info.lanes

    def fn(bank: BankData, args):
        return np.concatenate((args[0], args[1]), axis=1)[:, n:n + lanes]

    return fn


def _build_vpair(node, info, kids):
    return lambda bank, args: np.concatenate((args[0], args[1]), axis=1)


_INSTR_BUILDERS: dict = {
    "neon.vmovl_u": _build_vmovl,
    "neon.vmovl_s": _build_vmovl,
    "neon.vadd": _elemwise_wrapping(lambda a, b: a + b),
    "neon.vsub": _elemwise_wrapping(lambda a, b: a - b),
    "neon.vqadd": _elemwise_saturating(lambda a, b: a + b),
    "neon.vqsub": _elemwise_saturating(lambda a, b: a - b),
    "neon.vmax": _build_vmax,
    "neon.vmin": _build_vmin,
    "neon.vhadd": _build_vhadd,
    "neon.vrhadd": _build_vrhadd,
    "neon.vabd": _build_vabd,
    "neon.vabal": _build_vabal,
    "neon.vmull": _build_vmull,
    "neon.vmlal": _build_vmlal,
    "neon.vmul": _build_vmul,
    "neon.vmla": _build_vmla,
    "neon.vaddw": _build_vaddw,
    "neon.vshl_n": _build_vshl_n,
    "neon.vshr_n": _build_vshr_n,
    "neon.vrshr_n": _build_vrshr_n,
    "neon.vmovn": _build_narrow(round_=False, saturate=False, shifted=False),
    "neon.vqmovn": _build_narrow(round_=False, saturate=True, shifted=False),
    "neon.vqmovun": _build_narrow(round_=False, saturate=True, shifted=False),
    "neon.vshrn_n": _build_narrow(round_=False, saturate=False, shifted=True),
    "neon.vrshrn_n": _build_narrow(round_=True, saturate=False, shifted=True),
    "neon.vqrshrun_n": _build_narrow(round_=True, saturate=True,
                                     shifted=True),
    "neon.vqrshrn_n": _build_narrow(round_=True, saturate=True, shifted=True),
    "neon.vext": _build_vext,
    "neon.vpair": _build_vpair,
    "neon.vuzp": lambda node, info, kids: _deinterleave_fn,
    "neon.vzip": lambda node, info, kids: _interleave_fn,
}
