"""Target descriptions: everything ISA-specific behind one interface.

The synthesis pipeline (lift → sketch → swizzle → verify) is target
agnostic; what varies between backends is captured by a
:class:`TargetDescription`:

* the vector register width (``vbytes``) and native u8 lane count,
* the swizzle-free sketch grammar (``sketches``),
* the cost model used to rank candidates and bound the search
  (``cost_of`` / ``infinite_cost``),
* the swizzle grammar — concrete realizations of the abstract data
  movement placeholders (``realizations``),
* the batched-denotation lowering hook for the oracle's NumPy engine
  (``eval_family_of`` / ``eval_compile``),
* the baseline (pattern matching) optimizer, the simulator machine
  model, and the program printer.

Two instances are registered: ``hvx`` (the paper's primary target) and
``neon`` (the Section 6 retargeting story, at full pipeline parity).
Instances are created lazily through :func:`get_target` so that importing
this package never drags in grammar/cost/eval modules it does not need —
which also keeps the import graph cycle-free (target modules import
synthesis modules, not the other way around).

See ``docs/targets.md`` for the contract and a walkthrough of adding a
third backend.
"""

from __future__ import annotations

from ..errors import ReproError

#: registered backends, in registry order
TARGET_NAMES = ("hvx", "neon")

#: machine-expression family detection order: most specific prefix first
#: (NEON instructions are tagged ``neon.``; bare ops belong to HVX)
_FAMILY_ORDER = ("neon", "hvx")

_INSTANCES: dict = {}


class TargetDescription:
    """Base class for one backend's description.

    Concrete subclasses assign the identity attributes and implement the
    hook methods; everything here documents the contract and supplies the
    few pieces that are genuinely target independent.
    """

    #: registry name ("hvx", "neon", ...)
    name: str = ""
    #: vector register width in bytes
    vbytes: int = 0
    #: op-name prefix of this target's instruction families ("" for HVX)
    prefix: str = ""
    #: family tag used by the batched evaluator for this target's ops
    eval_family: str = ""

    # -- identity ----------------------------------------------------------

    @property
    def lanes(self) -> int:
        """Native u8 lane count (one byte lane per register byte)."""
        return self.vbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TargetDescription {self.name} vbytes={self.vbytes}>"

    # -- sketch grammar ----------------------------------------------------

    def sketches(self, e, child):
        """Swizzle-free sketch candidates for one uber-instruction, at
        this target's vector width."""
        raise NotImplementedError

    # -- cost model --------------------------------------------------------

    def cost_of(self, expr):
        """Cost of a machine expression under this target's model."""
        raise NotImplementedError

    @property
    def infinite_cost(self):
        """The unattainable initial cost bound β of Algorithm 2."""
        raise NotImplementedError

    # -- swizzle grammar ---------------------------------------------------

    def realizations(self, placeholder):
        """Concrete load/shuffle sequences for one abstract placeholder.

        Must yield cheapest-first under this target's cost model; the
        swizzle synthesizer re-sorts defensively but relies on the
        generator for its enumeration order.
        """
        raise NotImplementedError

    def pruned_realizations(self, placeholder, options: list):
        """Apply this target's precomputed pruned grammar, if shipped.

        ``options`` is the full enumerated realization list for
        ``placeholder``; returns ``(kept, pruned_flag)`` where a table
        hit keeps only the offline-verified equivalence-class
        representatives (see :mod:`repro.targets.pruning`).  Targets
        without a ``pruned_<name>.json`` data file — including any new
        third backend until its file is generated with
        ``repro prune-grammar`` — fall back to the unmodified list.
        """
        from . import pruning

        return pruning.pruned_options(self.name, placeholder, options)

    # -- batched evaluation ------------------------------------------------

    def eval_family_of(self, expr):
        """This target's family tag for ``expr``, or ``None``."""
        raise NotImplementedError

    def eval_compile(self, expr, ev):
        """Compile one owned node to a batched-plan step."""
        raise NotImplementedError

    # -- surrounding toolchain ---------------------------------------------

    def baseline(self):
        """The fallback pattern-matching optimizer (paper's 'LLVM')."""
        from ..baseline import HalideOptimizer

        return HalideOptimizer(vbytes=self.vbytes)

    def machine(self):
        """The cycle simulator's :class:`~repro.sim.machine.MachineConfig`."""
        raise NotImplementedError

    def interp(self, expr, env):
        """Scalar reference evaluation of a machine expression."""
        from . import nodes

        return nodes.evaluate(expr, env)

    def listing(self, program) -> list[str]:
        """Pretty instruction listing of a selected program."""
        from ..hvx import program_listing

        return program_listing(program)


def get_target(name: str) -> TargetDescription:
    """The registered description for ``name`` (lazily instantiated)."""
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


def machine_family_of(expr) -> str | None:
    """Which target's batched lowering owns ``expr``, if any.

    Checked most-specific-first: NEON instructions carry the ``neon.``
    prefix, while any other machine expression (including the shared
    load / splat / rename nodes inside a NEON tree) belongs to HVX's
    lowering, whose builders are target neutral for those nodes.
    """
    for name in _FAMILY_ORDER:
        family = get_target(name).eval_family_of(expr)
        if family is not None:
            return family
    return None


def machine_compile(expr, ev, family: str):
    """Compile ``expr`` with the target owning ``family``."""
    return get_target(family).eval_compile(expr, ev)


def machine_families() -> tuple:
    """All family tags produced by registered targets."""
    return tuple(get_target(name).eval_family for name in _FAMILY_ORDER)


def ensure_semantics() -> None:
    """Idempotently register every target's instruction semantics.

    Machine instructions look their descriptors up lazily by op name;
    importing the semantics modules here guarantees the shared ISA
    registry is populated before any evaluation, regardless of which
    target an expression came from.
    """
    from .. import hvx  # noqa: F401 - registers the HVX families
    from ..neon import semantics  # noqa: F401 - registers neon.* families
