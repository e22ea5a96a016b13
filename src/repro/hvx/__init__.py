"""HVX machine model: values, instruction set, interpreter, costs, printer.

Importing this package registers the full instruction set.
"""

from . import semantics  # noqa: F401 - populates the registry
from .assembly import AsmProgram, emit, to_assembly
from .cost import Cost, cost_of, display_latency, load_count
from .interp import evaluate
from .isa import (
    HvxExpr,
    HvxInstr,
    HvxLoad,
    HvxSplat,
    HvxType,
    Instruction,
    all_instructions,
    lookup,
    pair,
    pred,
    vec,
)
from .printer import program_listing, to_pretty, to_string
from .values import (
    HvxValue,
    PredVec,
    Vec,
    VecPair,
    as_lanes,
    combine,
    deinterleave,
    interleave,
    logical_lanes,
)
