"""Cost model for machine expressions (paper Section 6, "Cost Model").

The paper's model is a per-resource instruction count: HVX has distinct
functional units (multiply, shift, permute, ALU, load/store), different
instructions execute on different units within the same cycle, so the cost
of an expression is the *maximum* count over resources.  This biases the
search toward implementations that spread work across units.  Neon cores
dual-issue rather than pack VLIW packets, but the ranking the search needs
is still "spread work across the multiply, shift and permute pipes", so
both targets share this model.

We keep the paper's primary term and add two explainable tie-breakers:
total instruction count and load count.  The one target-specific weight is
an unaligned load's load-unit occupancy: 2 on HVX, where ``vmemu`` occupies
the load unit longer, and 1 on Neon, where ``vld1`` takes any address.
Shared subexpressions (identical subtrees) are counted once — they live in
a register — and register renames (resource ``none``: lo/hi, Neon's
``vpair``) are free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .isa import HvxExpr, HvxInstr, HvxLoad, HvxSplat


@dataclass(frozen=True)
class Cost:
    """Cost summary of a machine expression."""

    per_resource: tuple  # sorted (resource, count) pairs
    total: int  # all compute/permute instructions
    loads: int  # load-unit occupancy (unaligned loads weighted)
    splats: int  # broadcasts of loop invariants (hoisted, not costed)

    @property
    def max_resource(self) -> int:
        if not self.per_resource:
            return 0
        return max(count for _res, count in self.per_resource)

    @property
    def key(self) -> tuple:
        """Ordering key: paper's max-per-resource, then totals, then loads."""
        return (self.max_resource, self.total, self.loads)

    def __lt__(self, other: "Cost") -> bool:
        return self.key < other.key

    def __le__(self, other: "Cost") -> bool:
        return self.key <= other.key


INFINITE_COST = Cost(per_resource=(("alu", 1 << 30),), total=1 << 30,
                     loads=1 << 30, splats=0)


def _unique_nodes(expr: HvxExpr) -> list[HvxExpr]:
    seen: set = set()
    ordered: list[HvxExpr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        ordered.append(node)
        stack.extend(node.children)
    return ordered


#: one memo per unaligned-load weight, so the two targets' rankings never
#: share an entry
_MEMOS: dict = {}


def cost_of(expr: HvxExpr, unaligned_load_weight: int = 2) -> Cost:
    """Compute the cost of an expression tree with subtree sharing.

    ``unaligned_load_weight`` is the load-unit occupancy of one unaligned
    load (2, HVX's weight, by default).  Memoized by expression value: the
    sketching and swizzling stages rank the same realizations against many
    candidates, and expressions are immutable, so the cost never changes.
    """
    memo = _MEMOS.get(unaligned_load_weight)
    if memo is None:
        memo = _MEMOS[unaligned_load_weight] = {}
    cached = memo.get(expr)
    if cached is not None:
        return cached
    counts: dict[str, int] = {}
    total = 0
    loads = 0
    splats = 0
    for node in _unique_nodes(expr):
        if isinstance(node, HvxLoad):
            loads += 1 if node.aligned else unaligned_load_weight
        elif isinstance(node, HvxSplat):
            splats += 1
        elif isinstance(node, HvxInstr):
            resource = node.descriptor.resource
            if resource in ("none",):
                continue
            counts[resource] = counts.get(resource, 0) + 1
            total += 1
    result = Cost(
        per_resource=tuple(sorted(counts.items())),
        total=total,
        loads=loads,
        splats=splats,
    )
    memo[expr] = result
    return result


def display_latency(expr: HvxExpr) -> int:
    """Instruction count the way the paper annotates Figure 4/12.

    Counts compute and permute instructions; broadcasts of loop-invariant
    scalars and register renames (lo/hi) are excluded, as the paper notes
    LLVM hoists them out of the loop.  Loads are reported separately by
    :func:`load_count`.
    """
    return cost_of(expr).total


def load_count(expr: HvxExpr) -> int:
    """Number of distinct vector loads (unaligned counted once here)."""
    return sum(1 for n in _unique_nodes(expr) if isinstance(n, HvxLoad))

