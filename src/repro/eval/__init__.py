"""Batched denotation engine (the fast path under the equivalence oracle).

The oracle's differential pass evaluates every candidate once per valuation
in the bank; the scalar interpreters walk the expression tree per
environment over Python ints.  This package compiles an IR / uber / HVX
expression *once* into a DAG of evaluation steps over int64 NumPy arrays,
then evaluates the whole bank in one call by stacking environments along
a batch axis (shape ``envs x lanes``); each step runs once per bank, and
candidates that share subtrees share their values.

Exactness is the contract: plans reproduce the scalar interpreters bit for
bit (two's-complement wrap and saturation via masking/clipping, with
compile-time interval bounds proving no intermediate ever leaves the int64
range).  Any node the plan compiler cannot express falls back per-node to
the exact scalar interpreters, so the engine is a pure accelerator:
verdicts, refutation counts and cache keys are unchanged (see
``tests/test_batched_eval.py`` for the differential suite).
"""

from .plan import BankData, BatchedEvaluator, Plan

__all__ = ["BankData", "BatchedEvaluator", "Plan"]
