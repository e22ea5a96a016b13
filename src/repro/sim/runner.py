"""Cycle estimation for compiled pipelines.

Per stage, the steady-state cost of one output vector is the larger of the
compute initiation interval (VLIW resource limits) and the memory roofline
(bytes moved per vector / bytes per cycle).  Stage cycles scale with the
number of output vectors; update definitions run once per reduction step.
This reproduces the behaviours the paper reports: compute-bound stencils
track instruction counts, element-wise kernels are bandwidth-bound and
insensitive to instruction selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

from ..hvx import isa as H
from ..pipeline import CompiledPipeline, CompiledStage
from ..targets import resolve_target
from .machine import DEFAULT_MACHINE, MachineConfig
from .packets import initiation_interval, schedule_packets


def _unique_loads(program: H.HvxExpr) -> list[H.HvxLoad]:
    seen = set()
    out = []
    for node in program:
        if isinstance(node, H.HvxLoad) and node not in seen:
            seen.add(node)
            out.append(node)
    return out


def load_bytes(program: H.HvxExpr) -> int:
    """Bytes issued by loads per evaluation (shared loads counted once)."""
    return sum(
        ld.lanes * (ld.elem.bits // 8) for ld in _unique_loads(program)
    )


def traffic_bytes(program: H.HvxExpr, register_buffer: str | None = None) -> int:
    """Compulsory memory traffic per evaluation.

    Stencil windows overlap heavily between loads and between consecutive
    loop iterations; that data hits the cache.  The bandwidth the loop
    actually consumes per output vector is the *new* footprint: per buffer,
    the widest single load's span (lanes x stride x element size).
    """
    per_buffer: dict[str, int] = {}
    for ld in _unique_loads(program):
        if ld.buffer == register_buffer:
            continue
        span = ld.lanes * (ld.elem.bits // 8)
        per_buffer[ld.buffer] = max(per_buffer.get(ld.buffer, 0), span)
    return sum(per_buffer.values())


@dataclass
class StageCycles:
    """Cycle breakdown of one stage over a full image."""

    name: str
    vectors: int
    compute_ii: int
    memory_cycles: int
    total: int

    @property
    def bound(self) -> str:
        return "memory" if self.memory_cycles >= self.compute_ii else "compute"


@dataclass
class PipelineCycles:
    """Cycle totals of a compiled pipeline over a full image."""

    stages: list = field(default_factory=list)
    total: int = 0


def stage_cycles(
    cstage: CompiledStage,
    width: int,
    height: int,
    machine: MachineConfig = DEFAULT_MACHINE,
) -> StageCycles:
    """Estimate the cycles a stage spends producing a width x height image."""
    stage = cstage.stage
    lanes = stage.lanes
    vectors = ceil(width / lanes) * height
    out_bytes = lanes * (stage.elem.bits // 8)

    total_per_vector = 0
    compute_ii = 0
    memory_cycles = 0
    for ce in cstage.exprs:
        if ce.extent > 1:
            # A reduction update: the accumulator lives in registers for
            # the whole loop, so its loads and the per-iteration store are
            # free; only the streamed operands cost bandwidth.
            ii = initiation_interval(ce.program, machine,
                                     register_buffer=stage.name)
            mem = ceil(
                traffic_bytes(ce.program, register_buffer=stage.name)
                / machine.bytes_per_cycle
            )
        else:
            ii = initiation_interval(ce.program, machine,
                                     store_bytes=out_bytes)
            mem = ceil(
                (traffic_bytes(ce.program) + out_bytes)
                / machine.bytes_per_cycle
            )
        per_vector = max(1, ii, mem)
        total_per_vector += per_vector * ce.extent
        compute_ii += ii * ce.extent
        memory_cycles += mem * ce.extent
    return StageCycles(
        name=stage.name,
        vectors=vectors,
        compute_ii=compute_ii,
        memory_cycles=memory_cycles,
        total=total_per_vector * vectors,
    )


def measure(
    pipeline: CompiledPipeline,
    width: int = 256,
    height: int = 64,
    machine: MachineConfig | None = None,
) -> PipelineCycles:
    """Total simulated cycles for a compiled pipeline over an image.

    When ``machine`` is omitted, the machine model is resolved from the
    pipeline's compilation target (HVX core for ``hvx``, Neon core for
    ``neon``).
    """
    if machine is None:
        machine = resolve_target(getattr(pipeline, "target", None)).machine
    result = PipelineCycles()
    for cstage in pipeline.stages:
        sc = stage_cycles(cstage, width, height, machine)
        result.stages.append(sc)
        result.total += sc.total
    return result


def latency_report(program: H.HvxExpr,
                   machine: MachineConfig = DEFAULT_MACHINE) -> dict:
    """Latency + packet summary of one program (for codegen figures)."""
    sched = schedule_packets(program, machine)
    return {
        "cycles": sched.cycles,
        "instructions": sched.instructions,
        "packets": len(sched.packets),
        "resources": dict(sched.resource_counts),
    }
