"""The persistent, indexed rewrite-rule library.

One library per target ISA, stored next to the verdict store
(``rules_<target>.jsonl`` under the cache directory) as a
:class:`repro.fsutil.AppendLog`: CRC-stamped lines, batches of 32, fault
site ``rules.load``, a failed flush re-queues, and a corrupt file is
quarantined and compacted.  Load failures of any kind degrade to an empty
library — the compile falls back to full synthesis, it never fails.

Matching is two dictionary lookups on the spec's abstraction keys
(:func:`repro.rules.codec.abstract_spec`): the *exact* index first (the
constant-literal canonical key, so replayed traffic reproduces the
originally synthesized program byte for byte), then the
constant-abstracted *LHS* index in ascending cost order.  Every
instantiated candidate is re-checked against the full valuation bank via
the oracle's batched ``denote_bank`` engine — one query — before it is
returned, so soundness never rests on the generalization step.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .. import faults
from ..errors import CancelledError, ReproError
from ..fsutil import AppendLog
from ..synthesis.engine import default_cache_dir
from .codec import (
    FORMAT_VERSION,
    RuleCodecError,
    abstract_spec,
    decode_node,
    encode_program,
    root_signature,
)

#: candidate instantiations tried per spec before giving up (each failed
#: re-check costs one oracle query, so the cap bounds fast-path overhead)
MAX_CANDIDATES = 4


def rules_file(directory: str | os.PathLike | None, target: str) -> Path:
    """The per-target library path under ``directory`` (or the default
    cache directory, honoring ``$REPRO_CACHE_DIR``)."""
    base = Path(directory) if directory else default_cache_dir()
    return base / f"rules_{target}.jsonl"


@dataclass(frozen=True)
class Rule:
    """One mined lowering: an abstracted spec pattern and its program.

    ``cost`` is the target cost model's ordering key for the source
    program (:attr:`repro.hvx.cost.Cost.key`), used to try cheaper
    candidates first when several rules share an LHS.  ``provenance``
    points back at where the rule came from (the miner or the pipeline's
    feedback loop, plus the workload when known).
    """

    target: str
    exact: str
    lhs: str
    root: str
    rhs: dict
    cost: tuple = ()
    provenance: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "t": "r",
            "fmt": FORMAT_VERSION,
            "target": self.target,
            "exact": self.exact,
            "lhs": self.lhs,
            "root": self.root,
            "rhs": self.rhs,
            "cost": list(self.cost),
            "prov": self.provenance,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "Rule | None":
        if rec.get("t") != "r" or rec.get("fmt") != FORMAT_VERSION:
            return None
        try:
            return cls(
                target=rec["target"],
                exact=rec["exact"],
                lhs=rec["lhs"],
                root=rec.get("root", ""),
                rhs=rec["rhs"],
                cost=tuple(rec.get("cost", ())),
                provenance=dict(rec.get("prov", {})),
            )
        except (KeyError, TypeError):
            return None


class RuleLibrary:
    """Per-target rule index with persistence and a feedback loop.

    Thread-safe: the service shares one instance per target across its
    worker pool.  ``path=None`` keeps the library purely in-memory (the
    tests' default).
    """

    def __init__(self, path: str | os.PathLike | None = None,
                 target: str = "hvx"):
        self.target = target
        self._lock = threading.RLock()
        self._by_exact: dict[str, Rule] = {}
        self._by_lhs: dict[str, list[Rule]] = {}
        self._roots: set[str] = set()
        self._seen: set[tuple[str, str]] = set()
        self.log = None
        if path is not None:
            self.log = AppendLog(path, self, flush_every=32,
                                 load_site=faults.SITE_RULES_LOAD)
            self.log.load(self._load_record)

    def __len__(self) -> int:
        with self._lock:
            return len(self._seen)

    def _load_record(self, rec: dict) -> bool:
        rule = Rule.from_record(rec)
        # A rule for another target means two targets share one file.
        if rule is None or rule.target != self.target:
            return False
        self._index(rule)
        return True

    def flush(self) -> None:
        if self.log is not None:
            self.log.flush()

    # -- indexing ----------------------------------------------------------

    def _index(self, rule: Rule) -> bool:
        key = (rule.exact, _rhs_dump(rule.rhs))
        if key in self._seen:
            return False
        self._seen.add(key)
        self._by_exact.setdefault(rule.exact, rule)
        bucket = self._by_lhs.setdefault(rule.lhs, [])
        bucket.append(rule)
        bucket.sort(key=lambda r: (r.cost, r.exact))
        self._roots.add(rule.root)
        return True

    # -- the fast path -----------------------------------------------------

    def match(self, spec, oracle):
        """The verified program for ``spec``, or ``None`` on a miss.

        Tries the exact-key rule first, then LHS-key rules in cost order,
        at most :data:`MAX_CANDIDATES` total.  Every candidate is
        instantiated under the spec's own bindings and re-checked with one
        full-bank oracle query; a refuted candidate counts a
        ``rule_recheck_failure`` and the search continues.  The exact key
        renders ``spec`` through the oracle's template memo, which its
        query keys then reuse.
        """
        with self._lock:
            if not self._seen or root_signature(spec) not in self._roots:
                return None
        try:
            pattern = abstract_spec(spec, oracle._canon_cache)
        except RuleCodecError:
            return None
        with self._lock:
            candidates = []
            exact = self._by_exact.get(pattern.exact)
            if exact is not None:
                candidates.append(exact)
            for rule in self._by_lhs.get(pattern.lhs, ()):
                if rule is not exact:
                    candidates.append(rule)
        for rule in candidates[:MAX_CANDIDATES]:
            try:
                program = decode_node(rule.rhs, pattern.bindings)
            except RuleCodecError:
                continue
            try:
                ok = oracle.equivalent(spec, program)
            except CancelledError:
                raise
            except ReproError:
                continue
            if ok:
                return program
            oracle.stats.count("rule_recheck_failures")
        return None

    # -- mining / feedback -------------------------------------------------

    def learn(self, spec, program, cost=None, provenance=None) -> bool:
        """Generalize one verified ``spec -> program`` lowering into a
        rule; returns whether it was new.

        ``cost`` is the target cost model's ordering key for ``program``
        (callers that have a :class:`~repro.targets.TargetDescription` at
        hand pass ``target.cost_of(program).key``).
        """
        pattern = abstract_spec(spec)
        ab = _reabstract(spec)
        rhs = encode_program(program, ab)
        rule = Rule(
            target=self.target,
            exact=pattern.exact,
            lhs=pattern.lhs,
            root=pattern.root,
            rhs=rhs,
            cost=tuple(cost) if cost is not None else (),
            provenance=dict(provenance or {}),
        )
        with self._lock:
            if not self._index(rule):
                return False
        if self.log is not None:
            self.log.append(rule.to_record())
        return True


def _reabstract(spec):
    from .codec import Abstraction, encode_node

    ab = Abstraction()
    encode_node(spec, ab)
    return ab


def _rhs_dump(rhs: dict) -> str:
    return json.dumps(rhs, separators=(",", ":"), sort_keys=True)
