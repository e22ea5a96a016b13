"""Stage 3 — synthesizing data movement (paper Section 5).

Once a swizzle-free sketch is validated, every ``??load``/``??swizzle``
placeholder is replaced by a concrete sequence of load and shuffle
instructions.  Realizations are drawn from the active target's swizzle
grammar (:meth:`repro.targets.TargetDescription.realizations`), enumerated
cheapest-first per placeholder under that target's cost model, and
combined under the backtracking cost bound β from Algorithm 2; each
complete candidate is re-verified end to end (the paper's point that Rake
verifies all its transformations).
"""

from __future__ import annotations

from itertools import islice, product

from ..targets import TargetDescription, nodes as N, pruning, resolve_target
from .oracle import Oracle
from .sketch import is_concrete, placeholder_summary, placeholders_of

#: cap on realization combinations tried per sketch
MAX_COMBOS = 64


def substitute_many(expr: N.HvxExpr, mapping: dict,
                    _classes: tuple = None) -> N.HvxExpr:
    """Replace every occurrence of any ``mapping`` key in one tree walk.

    Replacements are not re-scanned within the same walk; callers iterate
    to a fixpoint when a replacement may itself contain a mapped
    placeholder (a swizzle realization wrapping its window).  Only nodes
    whose class appears among the keys are looked up, so concrete subtrees
    are skipped without hashing them.
    """
    if _classes is None:
        _classes = tuple({type(k) for k in mapping})
    if isinstance(expr, _classes):
        replacement = mapping.get(expr)
        if replacement is not None:
            return replacement
    children = expr.children
    if not children:
        return expr
    new_children = tuple(
        substitute_many(c, mapping, _classes) for c in children
    )
    if new_children == children:
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


def synthesize_swizzles(
    spec,
    sketch_expr: N.HvxExpr,
    layout: str,
    oracle: Oracle,
    budget,
    target: TargetDescription | None = None,
) -> tuple[N.HvxExpr, object] | None:
    """Concretize all placeholders in ``sketch_expr`` under ``budget``.

    Returns the cheapest verified concrete implementation, or ``None`` when
    no realization fits the budget (the query Algorithm 2 treats as *unsat*,
    which triggers backtracking to the next sketch).

    ``target`` selects the swizzle grammar and cost model (default: HVX).
    """
    target = resolve_target(target)
    placeholders = []
    for ph in placeholders_of(sketch_expr):
        if ph not in placeholders:
            placeholders.append(ph)
    if not placeholders:
        impl_cost = target.cost_of(sketch_expr)
        if impl_cost.key < budget.key and oracle.equivalent(
            spec, sketch_expr, layout
        ):
            return sketch_expr, impl_cost
        return None

    with oracle.tracer.span("swizzle") as sp:
        if sp:
            sp.set(placeholders=placeholder_summary(sketch_expr))
        result = _synthesize(spec, sketch_expr, layout, oracle, budget,
                             placeholders, sp, target)
        if sp:
            sp.set(found=result is not None)
        return result


def _synthesize(spec, sketch_expr, layout, oracle, budget, placeholders,
                sp, target):
    option_lists = []
    pruned_hits = 0
    for ph in placeholders:
        if _PLACEHOLDER_RECORDER is not None:
            _PLACEHOLDER_RECORDER(ph, target)
        options, pruned = _ranked_realizations(ph, target)
        if pruned:
            pruned_hits += 1
            oracle.stats.count("pruned_grammar_hits")
        option_lists.append(options)
    if sp and pruned_hits:
        sp.set(pruned_placeholders=pruned_hits)
    # islice, not [:MAX_COMBOS]: slicing a list(...) would materialize the
    # full cartesian product (easily millions of tuples for multi-window
    # sketches) only to drop all but the first 64.
    combos = list(islice(product(*option_lists), MAX_COMBOS))

    scored = []
    for combo in combos:
        if oracle.cancel is not None:
            oracle.cancel.check()
        mapping = dict(zip(placeholders, combo))
        # A swizzle's realization embeds its (placeholder) value; resolving
        # the mapping against itself first — realizations are small trees —
        # lets a single walk over the sketch substitute everything.
        for _ in range(len(placeholders)):
            resolved = {
                ph: substitute_many(impl, mapping)
                for ph, impl in mapping.items()
            }
            if resolved == mapping:
                break
            mapping = resolved
        expr = substitute_many(sketch_expr, mapping)
        if not is_concrete(expr):
            # Nested placeholders (a swizzle wrapping a window): resolve
            # the remaining ones recursively with the same budget.
            nested = synthesize_swizzles(spec, expr, layout, oracle, budget,
                                         target=target)
            if nested is not None:
                scored.append((nested[1].key, nested[0], nested[1]))
            continue
        impl_cost = target.cost_of(expr)
        scored.append((impl_cost.key, expr, impl_cost))

    scored.sort(key=lambda item: item[0])
    if sp:
        sp.set(combos=len(combos), scored=len(scored))

    # The under-budget prefix of the cost-ranked candidates; reaching an
    # over-budget entry is Algorithm 2's "cannot be implemented within
    # budget" outcome (every later combo is at least as expensive).
    eligible = []
    over_budget = False
    for _key, expr, impl_cost in scored:
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
