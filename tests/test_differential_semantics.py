"""Property-based differential testing of the full synthesis pipeline.

A seeded :mod:`random` generator (no new dependencies) produces well-typed
IR expressions over the shapes Rake's grammars target — widening u8 loads
combined with adds, constant multiplies, shifts and narrowing casts.  Each
expression runs through lift + lower, and the selected machine program
(and the lifted uber expression) must denote exactly the spec's lanes on
every environment in the oracle's valuation bank.  The sweep runs once
per registered target, at that target's native vector width.

Expressions the synthesizer declines (``SynthesisError`` et al.) are
counted but not failures: the property under test is soundness — whatever
Rake *does* emit is semantically equal to its spec — with a floor on how
many expressions must succeed so the sweep cannot silently degenerate.
"""

import random

import pytest

from repro.errors import ReproError
from repro.ir import builder as B
from repro.ir import printer as ir_printer
from repro.synthesis import RakeSelector
from repro.synthesis.oracle import denote
from repro.synthesis.valuation import environment_bank
from repro.types import U8

LANES = 128  # native u8 vector width at 128 vector bytes
W = 512  # row stride for vertical stencils

#: default-config sweep size (the slow marker runs a bigger one)
DEFAULT_SWEEP = 220
DEFAULT_MIN_SUCCESS = 120

TARGETS = ("hvx", "neon")


def random_spec(rng: random.Random, lanes: int = LANES):
    """A random widening stencil, the expression family Rake targets.

    Shapes mirror what the frontend emits for the paper's image kernels:
    a weighted sum of (optionally strided) widened u8 loads, wrapped in
    one of the narrowing idioms (truncate, round-and-truncate, saturate)
    or left at u16.
    """
    n_taps = rng.randint(1, 3)
    orientation = rng.choice(("h", "v"))
    base = rng.randint(-2, 2)
    weights = [rng.choice((1, 1, 2, 3, 4)) for _ in range(n_taps)]
    acc = None
    for k, w in enumerate(weights):
        offset = base + (k if orientation == "h" else k * W)
        term = B.widen(B.load("in", offset, lanes, U8))
        if w > 1:
            term = term * w
        acc = term if acc is None else acc + term

    wrap = rng.choice(("none", "narrow", "round", "sat"))
    if wrap == "none":
        return acc
    total = sum(weights) * 255
    shift = max(1, total.bit_length() - 8)
    if wrap == "narrow":
        return B.cast(U8, acc >> shift)
    if wrap == "round":
        return B.cast(U8, (acc + (1 << (shift - 1))) >> shift)
    return B.sat_cast(U8, acc >> max(1, shift - 1))


def _run_sweep(seed: int, count: int, min_success: int,
               target: str = "hvx") -> None:
    rng = random.Random(seed)
    # One oracle: verdicts memoize across specs.
    selector = RakeSelector(target=target)
    lanes = selector.target.vbytes  # u8 lanes at native width
    succeeded = 0
    for _ in range(count):
        spec = random_spec(rng, lanes)
        try:
            result = selector.select(spec)
        except ReproError:
            continue
        succeeded += 1
        for env in selector.oracle.bank_for(spec):
            want = denote(spec, env)
            assert denote(result.program, env) == want, (
                f"{target} program diverges from spec "
                f"{ir_printer.to_string(spec)}"
            )
            assert denote(result.lifted, env) == want, (
                f"lifted form diverges from spec "
                f"{ir_printer.to_string(spec)}"
            )
    assert succeeded >= min_success, (
        f"only {succeeded}/{count} random expressions synthesized on "
        f"{target}; the sweep no longer exercises the pipeline"
    )


class TestGenerator:
    def test_deterministic(self):
        a = [ir_printer.to_string(random_spec(random.Random(11)))
             for _ in range(20)]
        b = [ir_printer.to_string(random_spec(random.Random(11)))
             for _ in range(20)]
        assert a == b

    def test_specs_are_well_typed(self):
        # Every generated spec must interpret cleanly on its own bank —
        # a generator bug would otherwise masquerade as a synthesis skip.
        rng = random.Random(5)
        for _ in range(50):
            spec = random_spec(rng)
            env = environment_bank(spec, n_random_extra=0).envs[0]
            lanes = denote(spec, env)
            assert len(lanes) == LANES


class TestDifferential:
    @pytest.mark.parametrize("target", TARGETS)
    def test_default_sweep(self, target):
        _run_sweep(seed=2022, count=DEFAULT_SWEEP,
                   min_success=DEFAULT_MIN_SUCCESS, target=target)

    @pytest.mark.slow
    @pytest.mark.parametrize("target", TARGETS)
    def test_deep_sweep(self, target):
        _run_sweep(seed=2023, count=1000, min_success=500, target=target)
