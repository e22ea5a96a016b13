"""Every expression node class memoizes its hash through
:func:`repro.types.cache_expr_hash`.

Expression trees key the oracle's memo tables and the plan caches; a
class hashing through the dataclass-generated ``__hash__`` alone re-walks
its whole subtree on every lookup.  The cached value must equal the
generated one, so dict and set order — and with it every count and
selection — cannot move.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.hvx import isa as H
from repro.ir import expr as E
from repro.synthesis import sketch as S
from repro.types import I16, U8, U16, cache_expr_hash
from repro.uber import instructions as U

LA = E.Load("A", 0, 64, U8)
LB = E.Load("B", 1, 64, U8)
S8 = E.ScalarVar("s", U8)
UA = U.LoadData("A", 0, 64, U8)
UB = U.LoadData("B", 1, 64, U8)
HA = H.HvxLoad("A", 0, 64, U8)
HB = H.HvxLoad("B", 0, 64, U8)

SAMPLES = {
    E.Const: E.Const(3, U8),
    E.ScalarVar: S8,
    E.Load: LA,
    E.Broadcast: E.Broadcast(S8, 64),
    E.Absd: E.Absd(LA, LB),
    E.Cast: E.Cast(U16, LA),
    E.SaturatingCast: E.SaturatingCast(I16, LA),
    E.Select: E.Select(E.GT(LA, LB), LA, LB),
    **{cls: cls(LA, LB) for cls in E.BINARY_OPS + E.COMPARE_OPS},
    U.LoadData: UA,
    U.BroadcastScalar: U.BroadcastScalar(S8, U8, 64),
    U.Widen: U.Widen(UA, U16),
    U.VsMpyAdd: U.VsMpyAdd((UA, UB), (1, 2), False, I16),
    U.VvMpyAdd: U.VvMpyAdd(((UA, UB),), U.Widen(UA, I16), True, I16),
    U.Narrow: U.Narrow(U.Widen(UA, U16), U8, shift=2, round=True),
    U.AbsDiff: U.AbsDiff(UA, UB),
    U.Minimum: U.Minimum(UA, UB),
    U.Maximum: U.Maximum(UA, UB),
    U.Average: U.Average(UA, UB, True),
    U.ShiftRight: U.ShiftRight(UA, 3, round=True),
    U.Mux: U.Mux("gt", UA, UB, UB, UA),
    H.HvxLoad: HA,
    H.HvxSplat: H.HvxSplat(S8, U8, 64),
    H.HvxInstr: H.HvxInstr("vadd", (HA, HB)),
    S.AbstractWindow: S.AbstractWindow("A", 0, 64, U8),
    S.AbstractPairWindow: S.AbstractPairWindow("A", 0, 128, U8),
    S.AbstractRows: S.AbstractRows("A", 0, "A", 64, 64, U8),
    S.AbstractSwizzle: S.AbstractSwizzle(
        H.HvxInstr("vmpy", (HA, HB)), S.SWIZZLE_INTERLEAVE
    ),
}


def _concrete_classes():
    """Every public node class under the three expression bases."""
    found, stack = set(), [E.Expr, U.UberExpr, H.HvxExpr]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro.") and \
                    not sub.__name__.startswith("_"):
                found.add(sub)
    return sorted(found, key=lambda c: (c.__module__, c.__name__))


@cache_expr_hash
@dataclasses.dataclass(frozen=True)
class _Probe:
    x: int


def _generated_hash(node) -> int:
    """What the dataclass-generated ``__hash__`` returns for ``node``."""
    return hash(tuple(
        getattr(node, f.name) for f in dataclasses.fields(node)
        if (f.compare if f.hash is None else f.hash)
    ))


@pytest.mark.parametrize("cls", _concrete_classes(),
                         ids=lambda c: f"{c.__module__}.{c.__name__}")
def test_class_hashes_through_cache_expr_hash(cls):
    assert cls.__hash__.__code__ is _Probe.__hash__.__code__
    node = SAMPLES.get(cls)
    assert node is not None, f"add a sample {cls.__name__} node to SAMPLES"
    value = hash(node)
    assert vars(node)["_hash"] == value == _generated_hash(node)
    assert hash(node) == value


def test_pickles_leave_the_cached_hash_behind(tmp_path):
    """A cached hash holds for one string-hash seed, so a node pickled to a
    process with another seed (a process-pool worker started by spawn or
    forkserver) must hash as a node built there does."""
    classes = [E.Add, U.Mux, H.HvxInstr, S.AbstractSwizzle]
    for cls in classes:
        hash(SAMPLES[cls])
    blob = tmp_path / "nodes.pickle"
    blob.write_bytes(pickle.dumps([SAMPLES[cls] for cls in classes]))
    child = (
        "import pickle, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_expr_hash import SAMPLES\n"
        "nodes = pickle.loads(open(sys.argv[2], 'rb').read())\n"
        "print(all(hash(n) == hash(SAMPLES[type(n)]) for n in nodes))\n"
    )
    tests = Path(__file__).resolve().parent
    # Seeds 0 and 1 cannot both equal this process's seed.
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(tests.parent / "src"))
        out = subprocess.run(
            [sys.executable, "-c", child, str(tests), str(blob)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.stdout.strip() == "True", (seed, out.stderr[-2000:])
