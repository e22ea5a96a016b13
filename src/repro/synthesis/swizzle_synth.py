"""Stage 3 — synthesizing data movement (paper Section 5).

Once a swizzle-free sketch is validated, every ``??load``/``??swizzle``
placeholder is replaced by a concrete sequence of load and shuffle
instructions.  Realizations are drawn from the active target's swizzle
grammar (:meth:`repro.targets.TargetDescription.realizations`), enumerated
cheapest-first per placeholder under that target's cost model, and
combined under the backtracking cost bound β from Algorithm 2; each
complete candidate is re-verified end to end (the paper's point that Rake
verifies all its transformations).

The search has two parts.  :func:`rank_sketch` substitutes and costs a
sketch's first :data:`MAX_COMBOS` combos without asking the oracle, so
Algorithm 2 can reject a sketch that cannot beat β before verifying it
(:meth:`Ranking.exceeds`); :func:`synthesize_swizzles` verifies the
ranking's under-β prefix, cheapest first.  Every combo is concrete once
substituted, so there is no nested search: a realization embeds only
placeholders its sketch already holds (see ``docs/targets.md``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import islice, product

from ..errors import RealizationError
from ..targets import TargetDescription, nodes as N, pruning, resolve_target
from .oracle import Oracle
from .sketch import placeholder_summary, placeholders_of

#: cap on realization combinations tried per sketch
MAX_COMBOS = 64


def substitute_many(expr: N.HvxExpr, mapping: dict,
                    _classes: tuple = None) -> N.HvxExpr:
    """Replace every occurrence of any ``mapping`` key in one tree walk.

    The keys are placeholders.  The walk returns a concrete subtree as it
    is without entering it (no placeholder sits in it), so it visits only
    the placeholders and their ancestors, and among those looks up only
    the nodes whose class appears among the keys.  Replacements are not
    re-scanned within the same walk; callers iterate to a fixpoint when a
    replacement may itself contain a mapped placeholder (a swizzle
    realization wrapping its value).
    """
    if expr.concrete:
        return expr
    if _classes is None:
        _classes = tuple({type(k) for k in mapping})
    if isinstance(expr, _classes):
        replacement = mapping.get(expr)
        if replacement is not None:
            return replacement
    children = expr.children
    if not children:
        return expr
    new_children = tuple([
        substitute_many(c, mapping, _classes) for c in children
    ])
    # Identity, not ``==``: an unchanged child comes back as itself, and
    # comparing a changed one would walk both trees.
    if all(map(operator.is_, new_children, children)):
        return expr
    return expr.with_children(new_children)


#: ranked realizations per (target, placeholder) — placeholders are
#: immutable values and identical windows/swizzles recur across sketches
#: of one compilation; the key includes the target because each backend
#: has its own permute ops, unaligned-load rules and cost weight.  Cleared by
#: :func:`repro.targets.pruning.invalidate` when pruned-grammar data
#: files change underneath a running process.
_REALIZATION_CACHE: dict = {}

#: observation hook for the offline prune-grammar harvest: called with
#: ``(placeholder, target)`` for every placeholder the synthesizer
#: enumerates (see repro.targets.pruning.harvest_placeholders)
_PLACEHOLDER_RECORDER = None


def set_placeholder_recorder(fn) -> None:
    """Install (or clear, with ``None``) the harvest observation hook."""
    global _PLACEHOLDER_RECORDER
    _PLACEHOLDER_RECORDER = fn


def _ranked_realizations(placeholder, target: TargetDescription):
    """``(options, pruned)``: concrete choices cheapest first, and
    whether a precomputed pruned grammar trimmed them.

    Pruning keeps one offline-verified representative per equivalence
    class — the member that minimizes ``(cost, enumeration index)``,
    i.e. exactly position 0 of the unpruned ranked list — so the combo
    search's first verified candidate (and therefore the selection) is
    unchanged; the rest of the realization product is never built.
    """
    key = (target.name, placeholder)
    cached = _REALIZATION_CACHE.get(key)
    if cached is None:
        options = list(target.realizations(placeholder))
        options, pruned = pruning.pruned_options(target.name, placeholder,
                                                 options)
        options = sorted(options, key=lambda impl: target.cost_of(impl).key)
        cached = _REALIZATION_CACHE[key] = (options, pruned)
    return cached


@dataclass(frozen=True)
class Ranking:
    """A sketch's concretizations, ranked without asking the oracle.

    ``combos`` holds the first :data:`MAX_COMBOS` realization combos in
    product order, each as ``(expr, cost)``: the sketch with the combo
    substituted, which is concrete, and its cost.  ``pruned`` counts the
    placeholders a precomputed pruned grammar trimmed.  A sketch without
    placeholders is its own one combo.
    """

    placeholders: tuple
    pruned: int
    combos: tuple

    def exceeds(self, budget) -> bool:
        """No concretization can cost less than ``budget``: every combo
        costs at least ``budget``, or there are none.  For such a ranking
        :func:`synthesize_swizzles` returns ``None`` without asking the
        oracle anything."""
        return all(cost.key >= budget.key for _expr, cost in self.combos)


def rank_sketch(sketch_expr: N.HvxExpr, target: TargetDescription,
                stats) -> Ranking:
    """Rank ``sketch_expr``'s concretizations (no oracle query).

    Each distinct placeholder's ranked realizations feed the prune-grammar
    recorder and count one ``pruned_grammar_hits`` in ``stats`` when a
    pruned grammar trimmed them.

    A realization may embed only placeholders the sketch holds (a
    swizzle's realization embeds its value), so every substituted combo
    is concrete; one that is not means the target's swizzle grammar broke
    that contract, and raises :class:`~repro.errors.RealizationError`.
    """
    placeholders = []
    for ph in placeholders_of(sketch_expr):
        if ph not in placeholders:
            placeholders.append(ph)
    if not placeholders:
        return Ranking((), 0, ((sketch_expr, target.cost_of(sketch_expr)),))
    option_lists = []
    pruned_hits = 0
    for ph in placeholders:
        if _PLACEHOLDER_RECORDER is not None:
            _PLACEHOLDER_RECORDER(ph, target)
        options, pruned = _ranked_realizations(ph, target)
        if pruned:
            pruned_hits += 1
            stats.count("pruned_grammar_hits")
        option_lists.append(options)
    combos = []
    # islice, not [:MAX_COMBOS]: slicing a list(...) would materialize the
    # full cartesian product (easily millions of tuples for multi-window
    # sketches) only to drop all but the first 64.
    for combo in islice(product(*option_lists), MAX_COMBOS):
        mapping = dict(zip(placeholders, combo))
        if not all(impl.concrete for impl in combo):
            # A swizzle's realization embeds its value's placeholders;
            # resolving the mapping against itself first — realizations
            # are small trees — lets a single walk over the sketch
            # substitute everything.
            for _ in range(len(placeholders)):
                resolved = {
                    ph: substitute_many(impl, mapping)
                    for ph, impl in mapping.items()
                }
                if resolved == mapping:
                    break
                mapping = resolved
        expr = substitute_many(sketch_expr, mapping)
        if not expr.concrete:
            raise RealizationError(
                f"a {target.name} realization left placeholders "
                f"{placeholder_summary(expr)} in a concretization")
        combos.append((expr, target.cost_of(expr)))
    return Ranking(tuple(placeholders), pruned_hits, tuple(combos))


def synthesize_swizzles(
    spec,
    sketch_expr: N.HvxExpr,
    layout: str,
    oracle: Oracle,
    budget,
    target: TargetDescription | None = None,
    ranking: Ranking | None = None,
) -> tuple[N.HvxExpr, object] | None:
    """Concretize all placeholders in ``sketch_expr`` under ``budget``.

    Returns the cheapest verified concrete implementation, or ``None`` when
    no realization fits the budget (the query Algorithm 2 treats as *unsat*,
    which triggers backtracking to the next sketch).

    ``target`` selects the swizzle grammar and cost model (default: HVX).
    ``ranking`` is the sketch's :func:`rank_sketch`, when the caller has
    already ranked it.
    """
    target = resolve_target(target)
    if ranking is None:
        ranking = rank_sketch(sketch_expr, target, oracle.stats)
    if not ranking.placeholders:
        ((expr, impl_cost),) = ranking.combos
        if impl_cost.key < budget.key and oracle.equivalent(
            spec, expr, layout
        ):
            return expr, impl_cost
        return None

    with oracle.tracer.span("swizzle") as sp:
        if sp:
            sp.set(placeholders=placeholder_summary(sketch_expr))
        result = _verify(spec, ranking, layout, oracle, budget, sp)
        if sp:
            sp.set(found=result is not None)
        return result


def _verify(spec, ranking, layout, oracle, budget, sp):
    """Verify the under-budget prefix of ``ranking``, cheapest first."""
    if sp and ranking.pruned:
        sp.set(pruned_placeholders=ranking.pruned)
    scored = sorted(ranking.combos, key=lambda item: item[1].key)
    if sp:
        sp.set(combos=len(scored))

    # The under-budget prefix of the cost-ranked candidates; reaching an
    # over-budget entry is Algorithm 2's "cannot be implemented within
    # budget" outcome (every later combo is at least as expensive).
    eligible = []
    over_budget = False
    for expr, impl_cost in scored:
        if impl_cost.key >= budget.key:
            over_budget = True
            break
        eligible.append((expr, impl_cost))
    if sp:
        sp.set(eligible=len(eligible), over_budget=over_budget)

    for expr, impl_cost in eligible:
        if oracle.equivalent(spec, expr, layout):
            return expr, impl_cost
    if over_budget:
        oracle.stats.count("queries")
    return None
