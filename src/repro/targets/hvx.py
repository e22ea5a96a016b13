"""The HVX target description (the paper's primary backend).

An unaligned window is offered first as one ``vmemu`` load, then as a
``valign`` splice of the two surrounding aligned vectors; the cost model
charges ``vmemu`` double load-unit occupancy, so the splice usually ranks
first.  Pairs are ``vcombine``; ``vdealvdd`` / ``vshuffvdd`` deinterleave
and interleave them.
"""

from __future__ import annotations

from ..sim.machine import DEFAULT_MACHINE
from ..synthesis import grammar
from . import TargetDescription

TARGET = TargetDescription(
    name="hvx",
    vbytes=128,
    sketch_grammar=grammar.sketches,
    machine=DEFAULT_MACHINE,
    pair_op="vcombine",
    deal_op="vdealvdd",
    shuffle_op="vshuffvdd",
    align_op="valign",
    unaligned_load_first=True,
    unaligned_load_weight=2,
)
