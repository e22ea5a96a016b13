"""The ARM Neon target description (the paper's Section 6 port).

Neon has no vector-wide deal/shuffle network, so data movement uses the
``vext`` / ``vuzp`` / ``vzip`` permutes over Q-register pairs, and
pairing itself is free (``neon.vpair`` is register allocation).  An
unaligned window is only ever a ``vext`` splice of the two surrounding
aligned vectors: keeping every load at a register-aligned address, the
idiomatic Neon stencil pattern, lets the sliding windows of a convolution
share their aligned loads.  ``vld1`` takes any address, so the cost model
charges an unaligned load the same as an aligned one.
"""

from __future__ import annotations

from ..neon import grammar
from ..sim.machine import NEON_MACHINE
from . import TargetDescription

TARGET = TargetDescription(
    name="neon",
    vbytes=grammar.NEON_VBYTES,
    sketch_grammar=grammar.sketches,
    machine=NEON_MACHINE,
    pair_op="neon.vpair",
    deal_op="neon.vuzp",
    shuffle_op="neon.vzip",
    align_op="neon.vext",
    unaligned_load_first=False,
    unaligned_load_weight=1,
)
