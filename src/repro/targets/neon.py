"""The ARM Neon target description (the paper's Section 6 port).

Swizzle grammar: Neon has no vector-wide deal/shuffle network, so data
movement is realized with the ``vext`` / ``vuzp`` / ``vzip`` permutes over
Q-register pairs, and register pairs themselves are free (``neon.vpair``
is register allocation).  Unaligned loads are native (``vld1``), so an
unaligned window is a single load first and a two-load ``vext`` splice
second — the reverse economics of HVX's ``vmemu``.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import EvaluationError
from ..neon.semantics import NEON_VBYTES  # noqa: F401 - registers the ISA
from ..types import ScalarType
from . import TargetDescription, nodes as N


def _window_realizations(
    buffer: str, offset: int, lanes: int, elem: ScalarType
) -> Iterator[N.HvxExpr]:
    """Concrete single-vector loads of a dense element window.

    An aligned window is a plain ``vld1``.  An unaligned window is a
    ``vext`` splice of the two surrounding aligned vectors — the port
    keeps all loads at register-aligned base addresses, the idiomatic
    Neon stencil pattern, so the sliding windows of a convolution share
    their aligned loads instead of issuing one unaligned load each.
    """
    if offset % lanes == 0:
        yield N.HvxLoad(buffer, offset, lanes, elem)
        return
    base = (offset // lanes) * lanes
    shift = offset - base
    yield N.HvxInstr(
        "neon.vext",
        (
            N.HvxLoad(buffer, base, lanes, elem),
            N.HvxLoad(buffer, base + lanes, lanes, elem),
        ),
        (shift,),
    )


def _strided_window_realizations(window) -> Iterator[N.HvxExpr]:
    from ..synthesis import sketch as S

    if window.stride == 2:
        # Load the dense 2N window as a free register pair, deinterleave
        # with vuzp, keep the half carrying the requested parity.
        dense = (window.offset if window.offset % 2 == 0
                 else window.offset - 1)
        half = "lo" if window.offset % 2 == 0 else "hi"
        # Materialize the inner options once: regenerating them for every
        # outer realization re-ran the enumeration quadratically.
        inner = list(_window_realizations(
            window.buffer, dense + window.lanes, window.lanes, window.elem
        ))
        for w0 in _window_realizations(
            window.buffer, dense, window.lanes, window.elem
        ):
            for w1 in inner:
                paired = N.HvxInstr("neon.vpair", (w0, w1))
                dealt = N.HvxInstr("neon.vuzp", (paired,))
                yield N.HvxInstr(half, (dealt,))
        return
    if window.stride == 4:
        # stride-4 = the even lanes of two adjacent stride-2 windows.
        a = S.AbstractWindow(window.buffer, window.offset, window.lanes,
                             window.elem, 2)
        b = S.AbstractWindow(
            window.buffer, window.offset + 2 * window.lanes, window.lanes,
            window.elem, 2,
        )
        inner = list(_strided_window_realizations(b))
        for ra in _strided_window_realizations(a):
            for rb in inner:
                paired = N.HvxInstr("neon.vpair", (ra, rb))
                dealt = N.HvxInstr("neon.vuzp", (paired,))
                yield N.HvxInstr("lo", (dealt,))
        return
    raise EvaluationError(f"unsupported load stride: {window.stride}")


class NeonTarget(TargetDescription):
    """ARM Neon: 16-byte Q registers, in-order widening pairs."""

    name = "neon"
    vbytes = NEON_VBYTES
    prefix = "neon."
    eval_family = "neon"

    # -- sketch grammar ----------------------------------------------------

    def sketches(self, e, child):
        from ..neon import grammar

        return grammar.sketches(e, child, self.vbytes)

    # -- cost model --------------------------------------------------------

    def cost_of(self, expr):
        from ..neon.cost import cost_of

        return cost_of(expr)

    @property
    def infinite_cost(self):
        from ..neon.cost import INFINITE_COST

        return INFINITE_COST

    # -- swizzle grammar ---------------------------------------------------

    def realizations(self, placeholder) -> Iterator[N.HvxExpr]:
        from ..synthesis import sketch as S

        if isinstance(placeholder, S.AbstractWindow):
            if placeholder.stride == 1:
                yield from _window_realizations(
                    placeholder.buffer, placeholder.offset,
                    placeholder.lanes, placeholder.elem,
                )
            else:
                yield from _strided_window_realizations(placeholder)
        elif isinstance(placeholder, S.AbstractPairWindow):
            half = placeholder.lanes // 2
            inner = list(_window_realizations(
                placeholder.buffer, placeholder.offset + half, half,
                placeholder.elem,
            ))
            for w0 in _window_realizations(
                placeholder.buffer, placeholder.offset, half,
                placeholder.elem,
            ):
                for w1 in inner:
                    yield N.HvxInstr("neon.vpair", (w0, w1))
        elif isinstance(placeholder, S.AbstractRows):
            w0 = S.AbstractWindow(placeholder.buffer0, placeholder.offset0,
                                  placeholder.lanes, placeholder.elem,
                                  placeholder.stride)
            w1 = S.AbstractWindow(placeholder.buffer1, placeholder.offset1,
                                  placeholder.lanes, placeholder.elem,
                                  placeholder.stride)
            inner = list(self.realizations(w1))
            for r0 in self.realizations(w0):
                for r1 in inner:
                    yield N.HvxInstr("neon.vpair", (r0, r1))
        elif isinstance(placeholder, S.AbstractSwizzle):
            if placeholder.mode == S.SWIZZLE_IDENTITY:
                yield placeholder.value
            elif placeholder.mode == S.SWIZZLE_INTERLEAVE:
                yield N.HvxInstr("neon.vzip", (placeholder.value,))
            else:
                yield N.HvxInstr("neon.vuzp", (placeholder.value,))
        else:
            raise EvaluationError(
                f"unknown placeholder: {type(placeholder).__name__}"
            )

    # -- batched evaluation ------------------------------------------------

    def eval_family_of(self, expr):
        from ..eval import lower_neon

        return lower_neon.family_of(expr)

    def eval_compile(self, expr, ev):
        from ..eval import lower_neon

        return lower_neon.compile_neon(expr, ev)

    # -- surrounding toolchain ---------------------------------------------

    def machine(self):
        from ..sim.machine import NEON_MACHINE

        return NEON_MACHINE


TARGET = NeonTarget()
