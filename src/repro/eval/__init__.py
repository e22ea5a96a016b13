"""Batched denotation engine: how the equivalence oracle evaluates.

The oracle's differential pass evaluates every candidate on every valuation
in the bank; the scalar interpreters walk the expression tree per
environment over Python ints.  This package compiles an IR / uber / HVX
expression *once* into a DAG of evaluation steps over int64 NumPy arrays,
then evaluates the whole bank in one call by stacking environments along
a batch axis (shape ``envs x lanes``); each step runs once per bank, and
candidates that share subtrees share their values.

Exactness is the contract: plans reproduce the scalar interpreters bit for
bit (two's-complement wrap and saturation via masking/clipping, with
compile-time interval bounds proving no intermediate ever leaves the int64
range).  Any node the plan compiler cannot express, and any root it cannot
compile at all, is a fallback step that runs the exact scalar interpreter
per environment, so every expression has a plan and every oracle check is
one pass over the bank (see ``tests/test_batched_eval.py`` for the
differential suite against the scalar interpreters).
"""

from .plan import BankData, BatchedEvaluator, Plan

__all__ = ["BankData", "BatchedEvaluator", "Plan"]
