"""Target descriptions: everything ISA-specific, as data.

The synthesis pipeline (lift → sketch → swizzle → verify) is target
agnostic; what varies between backends is one
:class:`TargetDescription` value:

* the vector register width (``vbytes``), which is also its native u8
  lane count,
* the swizzle-free sketch grammar (``sketch_grammar``),
* the simulator machine model (``machine``),
* the four permute op names and the unaligned-load economics that
  parameterize the one swizzle grammar
  (:meth:`~TargetDescription.realizations`) and the one cost model
  (:meth:`~TargetDescription.cost_of`).

Two instances are registered: ``hvx`` (the paper's primary target) and
``neon`` (the Section 6 retargeting story, at full pipeline parity).  Each
lives in its own small module, imported by :func:`get_target` on first
use, so importing this package never drags in a sketch grammar (the
grammar modules import the synthesis modules, not the other way around).

Batched denotation needs no entry here: :mod:`repro.eval.plan` sends
``neon.`` instructions to the Neon lowering and every other machine node
to the HVX lowering.

See ``docs/targets.md`` for the contract and a walkthrough of adding a
third backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from ..errors import EvaluationError, ReproError
from ..hvx.cost import INFINITE_COST, Cost, cost_of
from . import nodes as N

#: registered backends, in registry order
TARGET_NAMES = ("hvx", "neon")

_INSTANCES: dict = {}


@dataclass(frozen=True, eq=False)
class TargetDescription:
    """One backend's description."""

    #: registry name ("hvx", "neon", ...)
    name: str
    #: vector register width in bytes
    vbytes: int
    #: swizzle-free sketch grammar, ``sketch_grammar(e, child, vbytes)``
    sketch_grammar: Callable
    #: the cycle simulator's :class:`~repro.sim.machine.MachineConfig`
    machine: object
    #: swizzle-grammar ops: pair two vectors, deinterleave a pair,
    #: interleave a pair, and splice a window out of two aligned vectors
    pair_op: str
    deal_op: str
    shuffle_op: str
    align_op: str
    #: offer an unaligned window as one plain load before the splice
    unaligned_load_first: bool
    #: load-unit occupancy of one unaligned load in the cost model (the
    #: simulator's own figure is ``machine.unaligned_load_cost``)
    unaligned_load_weight: int

    def sketches(self, e, child):
        """Swizzle-free sketch candidates for one uber-instruction, at
        this target's vector width."""
        return self.sketch_grammar(e, child, self.vbytes)

    # -- cost model --------------------------------------------------------

    def cost_of(self, expr) -> Cost:
        """Cost of a machine expression under this target's model."""
        return cost_of(expr, self.unaligned_load_weight)

    @property
    def infinite_cost(self) -> Cost:
        """The unattainable initial cost bound β of Algorithm 2."""
        return INFINITE_COST

    # -- swizzle grammar ---------------------------------------------------

    def realizations(self, placeholder) -> Iterator[N.HvxExpr]:
        """Concrete load/shuffle sequences for one abstract placeholder.

        Yields cheapest-first under this target's cost model; the swizzle
        synthesizer re-sorts stably, so the yield order breaks cost ties
        and is part of the search's observable behaviour (verdict order,
        the pruned tables' keep-lists).
        """
        if isinstance(placeholder, S.AbstractWindow):
            yield from self._strided(
                placeholder.buffer, placeholder.offset, placeholder.lanes,
                placeholder.elem, placeholder.stride,
            )
        elif isinstance(placeholder, S.AbstractPairWindow):
            buffer, offset, elem = (placeholder.buffer, placeholder.offset,
                                    placeholder.elem)
            half = placeholder.lanes // 2
            yield from self._paired(
                self._window(buffer, offset, half, elem),
                self._window(buffer, offset + half, half, elem),
            )
        elif isinstance(placeholder, S.AbstractRows):
            lanes, elem, stride = (placeholder.lanes, placeholder.elem,
                                   placeholder.stride)
            yield from self._paired(
                self._strided(placeholder.buffer0, placeholder.offset0,
                              lanes, elem, stride),
                self._strided(placeholder.buffer1, placeholder.offset1,
                              lanes, elem, stride),
            )
        elif isinstance(placeholder, S.AbstractSwizzle):
            if placeholder.mode == S.SWIZZLE_IDENTITY:
                yield placeholder.value
            elif placeholder.mode == S.SWIZZLE_INTERLEAVE:
                yield N.HvxInstr(self.shuffle_op, (placeholder.value,))
            else:
                yield N.HvxInstr(self.deal_op, (placeholder.value,))
        else:
            raise EvaluationError(
                f"unknown placeholder: {type(placeholder).__name__}"
            )

    def _window(self, buffer, offset, lanes, elem) -> Iterator[N.HvxExpr]:
        """Single-vector loads of a dense window: one aligned load, or for
        an unaligned window optionally one unaligned load, then a splice
        of the two surrounding aligned vectors."""
        if offset % lanes == 0:
            yield N.HvxLoad(buffer, offset, lanes, elem)
            return
        if self.unaligned_load_first:
            yield N.HvxLoad(buffer, offset, lanes, elem)
        base = (offset // lanes) * lanes
        yield N.HvxInstr(
            self.align_op,
            (N.HvxLoad(buffer, base, lanes, elem),
             N.HvxLoad(buffer, base + lanes, lanes, elem)),
            (offset - base,),
        )

    def _strided(self, buffer, offset, lanes, elem,
                 stride) -> Iterator[N.HvxExpr]:
        if stride == 1:
            yield from self._window(buffer, offset, lanes, elem)
        elif stride == 2:
            # Pair the dense 2N window, deinterleave, and take the half
            # that carries the requested parity.
            dense = offset if offset % 2 == 0 else offset - 1
            yield from self._dealt(
                "lo" if offset % 2 == 0 else "hi",
                self._window(buffer, dense, lanes, elem),
                self._window(buffer, dense + lanes, lanes, elem),
            )
        elif stride == 4:
            # stride-4 = the even lanes of two adjacent stride-2 windows.
            yield from self._dealt(
                "lo",
                self._strided(buffer, offset, lanes, elem, 2),
                self._strided(buffer, offset + 2 * lanes, lanes, elem, 2),
            )
        else:
            raise EvaluationError(f"unsupported load stride: {stride}")

    def _paired(self, firsts, seconds) -> Iterator[N.HvxExpr]:
        # Materialize the inner options once: regenerating them for every
        # outer realization re-ran the enumeration quadratically.
        seconds = list(seconds)
        for a in firsts:
            for b in seconds:
                yield N.HvxInstr(self.pair_op, (a, b))

    def _dealt(self, half, firsts, seconds) -> Iterator[N.HvxExpr]:
        for paired in self._paired(firsts, seconds):
            yield N.HvxInstr(half, (N.HvxInstr(self.deal_op, (paired,)),))

    # -- surrounding toolchain ---------------------------------------------

    def baseline(self):
        """The fallback pattern-matching optimizer (paper's 'LLVM')."""
        # Imported on first use, once per compile: start-up does not load
        # the pattern matcher.
        from ..baseline import HalideOptimizer

        return HalideOptimizer(vbytes=self.vbytes)


def get_target(name: str) -> TargetDescription:
    """The registered description for ``name`` (lazily imported)."""
    inst = _INSTANCES.get(name)
    if inst is None:
        if name not in TARGET_NAMES:
            raise ReproError(
                f"unknown target: {name!r} (expected one of "
                f"{', '.join(TARGET_NAMES)})"
            )
        import importlib

        module = importlib.import_module(f".{name}", __name__)
        inst = _INSTANCES[name] = module.TARGET
    return inst


def resolve_target(target) -> TargetDescription:
    """Coerce ``None`` / a name / a description to a description."""
    if target is None:
        return get_target("hvx")
    if isinstance(target, str):
        return get_target(target)
    if isinstance(target, TargetDescription):
        return target
    raise ReproError(f"cannot resolve target from {target!r}")


def ensure_semantics() -> None:
    """Idempotently register every target's instruction semantics.

    Machine instructions look their descriptors up lazily by op name;
    importing the semantics modules here guarantees the shared ISA
    registry is populated before any evaluation, regardless of which
    target an expression came from.
    """
    from .. import hvx  # noqa: F401 - registers the HVX families
    from ..neon import semantics  # noqa: F401 - registers neon.* families


# Imported last: the placeholders the swizzle grammar matches on are
# machine nodes, so their module imports this package's ``nodes``.
from ..synthesis import sketch as S  # noqa: E402
