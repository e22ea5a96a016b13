"""Cross-ISA differential oracle.

The strongest correctness check available to the reproduction: compile the
*same* scheduled workload independently on two registered targets and
assert the selected machine programs agree lane-for-lane on shared
valuation banks.  The two compilations share nothing past the frontend —
different sketch grammars, swizzle grammars, cost models and batched
lowerings — so a bug in any target-specific layer shows up as a lane
mismatch against the other ISA, not just against the IR interpreter it
was synthesized from.

Lane accounting: each target lowers the workload at its own native width
(128-byte HVX vectors vs 16-byte Neon Q registers), but every lowered
expression computes the same function of the same buffers, so the
narrower target's lanes must equal the *prefix* of the wider target's.
Valuations are built once per expression pair from the merged buffer
footprint of both specs, guaranteeing both programs read identical data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..synthesis import valuation
from ..synthesis.oracle import LAYOUT_INORDER, denote, result_bits
from . import resolve_target


def _merged_buffer_specs(specs_a, specs_b):
    """Union of two buffer footprints, so one environment serves both."""
    merged = {b.name: b for b in specs_a}
    for b in specs_b:
        cur = merged.get(b.name)
        if cur is None:
            merged[b.name] = b
        else:
            merged[b.name] = valuation.BufferSpec(
                b.name, cur.elem, min(cur.lo, b.lo), max(cur.hi, b.hi)
            )
    return sorted(merged.values(), key=lambda b: b.name)


def _shared_bank(src_a, src_b, n_random_extra: int, seed: int):
    buffers = _merged_buffer_specs(
        valuation.buffer_specs_of(src_a), valuation.buffer_specs_of(src_b)
    )
    scalars = valuation.scalar_names_of(src_a)
    return [valuation.make_environment(buffers, scalars, style, s)
            for style, s in valuation.bank_rounds(n_random_extra, seed)]


@dataclass(frozen=True)
class ExprComparison:
    """Verdict for one lowered expression compared across two targets."""

    stage: str
    index: int  # expression index within the stage (0 = pure definition)
    lanes: int  # compared lane count (the narrower target's width)
    environments: int
    equal: bool
    detail: str = ""


@dataclass
class DifferentialReport:
    """Outcome of one cross-ISA differential run."""

    workload: str
    targets: tuple
    comparisons: list = field(default_factory=list)
    compiled: dict = field(default_factory=dict)  # target -> CompiledPipeline

    @property
    def ok(self) -> bool:
        return bool(self.comparisons) and all(
            c.equal for c in self.comparisons
        )

    @property
    def failures(self) -> list:
        return [c for c in self.comparisons if not c.equal]

    def summary(self) -> str:
        a, b = self.targets
        status = "OK" if self.ok else "MISMATCH"
        return (
            f"{self.workload}: {a} vs {b} — {len(self.comparisons)} "
            f"expression(s), {len(self.failures)} mismatch(es) [{status}]"
        )


def compare_programs(
    src_a, prog_a, src_b, prog_b, n_random_extra: int = 2, seed: int = 0
) -> tuple[bool, str, int, int]:
    """Lane-exact comparison of two selected programs on shared banks.

    ``(src_a, prog_a)`` and ``(src_b, prog_b)`` are the IR specification
    and selected machine program of the same computation on two targets.
    Returns ``(equal, detail, lanes, environments)``.
    """
    bits_a, bits_b = result_bits(prog_a), result_bits(prog_b)
    if bits_a != bits_b:
        return False, f"lane widths differ: {bits_a} vs {bits_b} bits", 0, 0
    envs = _shared_bank(src_a, src_b, n_random_extra, seed)
    lanes = 0
    for i, env in enumerate(envs):
        da = denote(prog_a, env, LAYOUT_INORDER)
        db = denote(prog_b, env, LAYOUT_INORDER)
        sa = denote(src_a, env)
        sb = denote(src_b, env)
        lanes = min(len(da), len(db))
        # Each program against its own spec first — localizes a failure to
        # one backend — then the cross-ISA prefix check.
        if da != sa:
            return False, f"env {i}: first program diverges from its spec", \
                lanes, len(envs)
        if db != sb:
            return False, f"env {i}: second program diverges from its spec", \
                lanes, len(envs)
        if da[:lanes] != db[:lanes]:
            bad = next(
                j for j in range(lanes) if da[j] != db[j]
            )
            return False, (
                f"env {i}: lane {bad} differs "
                f"({da[bad]:#x} vs {db[bad]:#x})"
            ), lanes, len(envs)
    return True, "", lanes, len(envs)


def compare_compiled(
    pipe_a, pipe_b, n_random_extra: int = 2, seed: int = 0
) -> list[ExprComparison]:
    """Compare two compiled pipelines of the same workload, stage by stage."""
    from ..errors import ReproError

    stages_b = {cs.name: cs for cs in pipe_b.stages}
    out = []
    for cs_a in pipe_a.stages:
        cs_b = stages_b.get(cs_a.name)
        if cs_b is None or len(cs_a.exprs) != len(cs_b.exprs):
            raise ReproError(
                f"stage structure differs across targets for {cs_a.name!r}"
            )
        for idx, (ea, eb) in enumerate(zip(cs_a.exprs, cs_b.exprs)):
            equal, detail, lanes, n_envs = compare_programs(
                ea.source, ea.program, eb.source, eb.program,
                n_random_extra=n_random_extra, seed=seed,
            )
            out.append(ExprComparison(
                stage=cs_a.name, index=idx, lanes=lanes,
                environments=n_envs, equal=equal, detail=detail,
            ))
    return out


def compare_workload(
    name: str,
    targets: tuple = ("hvx", "neon"),
    n_random_extra: int = 2,
    seed: int = 0,
    **compile_kwargs,
) -> DifferentialReport:
    """Compile one registered workload on each target and cross-check.

    Extra keyword arguments are forwarded to
    :func:`repro.pipeline.compile_pipeline` for both compilations
    (``backend``, ``options``, caches, ...).
    """
    from .. import workloads
    from ..pipeline import compile_pipeline

    wl = workloads.get(name)
    report = DifferentialReport(workload=name, targets=tuple(targets))
    for target in targets:
        resolve_target(target)  # fail fast on unknown names
        report.compiled[target] = compile_pipeline(
            wl.build(), target=target, **compile_kwargs
        )
    a, b = (report.compiled[t] for t in report.targets)
    report.comparisons = compare_compiled(
        a, b, n_random_extra=n_random_extra, seed=seed
    )
    return report
