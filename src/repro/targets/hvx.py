"""The HVX target description (the paper's primary backend).

The swizzle grammar below is the original HVX realization enumeration,
moved verbatim from :mod:`repro.synthesis.sketch`: yield order is part of
the search's observable behaviour (verdict order, counterexample order,
cache-key sequences), so PR-1/2 disk stores must warm-load unchanged.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import EvaluationError
from ..types import ScalarType
from . import TargetDescription, nodes as N


def _window_realizations(
    buffer: str, offset: int, lanes: int, elem: ScalarType
) -> Iterator[N.HvxExpr]:
    """Concrete single-vector loads of a dense element window.

    Yields cheapest-first: an aligned ``vmem``, an unaligned ``vmemu``
    (double load-unit occupancy), or ``valign`` of the two surrounding
    aligned vectors (one permute, two cheap loads).
    """
    if offset % lanes == 0:
        yield N.HvxLoad(buffer, offset, lanes, elem)
        return
    yield N.HvxLoad(buffer, offset, lanes, elem)  # vmemu
    base = (offset // lanes) * lanes
    shift = offset - base
    yield N.HvxInstr(
        "valign",
        (
            N.HvxLoad(buffer, base, lanes, elem),
            N.HvxLoad(buffer, base + lanes, lanes, elem),
        ),
        (shift,),
    )


def _strided_window_realizations(window) -> Iterator[N.HvxExpr]:
    from ..synthesis import sketch as S

    if window.stride == 2:
        # Load the dense 2N window as a pair, deinterleave, take the
        # half that carries the requested parity.
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
                combined = N.HvxInstr("vcombine", (w0, w1))
                dealt = N.HvxInstr("vdealvdd", (combined,))
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
                combined = N.HvxInstr("vcombine", (ra, rb))
                dealt = N.HvxInstr("vdealvdd", (combined,))
                yield N.HvxInstr("lo", (dealt,))
        return
    raise EvaluationError(f"unsupported load stride: {window.stride}")


class HvxTarget(TargetDescription):
    """Hexagon HVX: 128-byte vectors, deinterleaved widening pairs."""

    name = "hvx"
    vbytes = 128
    prefix = ""
    eval_family = "hvx"

    # -- sketch grammar ----------------------------------------------------

    def sketches(self, e, child):
        from ..synthesis import grammar

        return grammar.sketches(e, child, self.vbytes)

    # -- cost model --------------------------------------------------------

    def cost_of(self, expr):
        from ..hvx.cost import cost_of

        return cost_of(expr)

    @property
    def infinite_cost(self):
        from ..hvx.cost import INFINITE_COST

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
                    yield N.HvxInstr("vcombine", (w0, w1))
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
                    yield N.HvxInstr("vcombine", (r0, r1))
        elif isinstance(placeholder, S.AbstractSwizzle):
            if placeholder.mode == S.SWIZZLE_IDENTITY:
                yield placeholder.value
            elif placeholder.mode == S.SWIZZLE_INTERLEAVE:
                yield N.HvxInstr("vshuffvdd", (placeholder.value,))
            else:
                yield N.HvxInstr("vdealvdd", (placeholder.value,))
        else:
            raise EvaluationError(
                f"unknown placeholder: {type(placeholder).__name__}"
            )

    # -- batched evaluation ------------------------------------------------

    def eval_family_of(self, expr):
        from ..eval import lower_hvx

        return lower_hvx.family_of(expr)

    def eval_compile(self, expr, ev):
        from ..eval import lower_hvx

        return lower_hvx.compile_hvx(expr, ev)

    # -- surrounding toolchain ---------------------------------------------

    def machine(self):
        from ..sim.machine import DEFAULT_MACHINE

        return DEFAULT_MACHINE


TARGET = HvxTarget()
