"""Memoized execution layer under the synthesis pipeline.

The paper's headline cost is synthesis time: every equivalence query pays
for a full differential-testing pass over the valuation bank.  This module
memoizes that work without changing any synthesis *result*: each query is
keyed by a canonical structural hash of ``(spec, candidate, layout, seed,
rounds)`` that is insensitive to buffer/scalar renaming but sensitive to
layout.  Verdicts live in an in-process map and, optionally, an
append-only JSONL store on disk, so repeated compilations and shared
subexpressions across kernels skip re-verification entirely.

Verdicts are pure functions of ``(spec, candidate, layout, seed, rounds)``,
so caching is sound.

Caveat on rename-insensitivity: each buffer draws its own stream, keyed
by its name, so two expressions equal up to renaming receive *independent*
valuations, not isomorphic ones.  A cached verdict for a renamed twin is
exactly as trustworthy as a fresh differential pass: both are the same test
on a bank drawn the same way, just from different random words.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import re
import threading
import weakref
from pathlib import Path

from .. import faults
from ..fsutil import AppendLog, decode_record
from ..hvx import isa as hvx_isa
from ..ir import expr as ir_expr
from ..types import ScalarType, VectorType
from ..trace.log import get_logger
from ..uber import instructions as uber_instr

_log = get_logger("repro.synthesis.engine")

#: default on-disk store location (overridden by $REPRO_CACHE_DIR)
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_FILE_NAME = "oracle.jsonl"


def default_cache_dir() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-rake``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-rake"


# ---------------------------------------------------------------------------
# Canonical structural hashing
# ---------------------------------------------------------------------------

#: dataclass fields holding buffer/variable names, normalized during hashing
_NAME_FIELDS = frozenset({"buffer", "buffer0", "buffer1", "name"})

_EXPR_BASES = (ir_expr.Expr, uber_instr.UberExpr, hvx_isa.HvxExpr)


def canonical_expr(node, names: dict, memo: dict | None = None) -> str:
    """Render any expression kind (IR, uber, HVX, sketch) canonically.

    ``names`` maps buffer/scalar names to positional ids in first-occurrence
    order; passing one map across several expressions keeps their shared
    names consistent (a candidate must read the *same* buffers as its spec).

    The rendering comes from ``node``'s template in ``memo`` (built on a
    miss, see :func:`_template`); passing one memo across many calls
    renders each distinct node once, however many trees share it.
    """
    pieces, local = _template(node, {} if memo is None else memo)
    if not local:
        return pieces[0]
    for name in local:
        names.setdefault(name, f"%{len(names)}")
    out = list(pieces)
    out[1::2] = map(names.__getitem__, pieces[1::2])
    return "".join(out)


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    """The dataclass field names of one expression class, in order."""
    return tuple(f.name for f in dataclasses.fields(cls))


def _template(node, memo: dict) -> tuple:
    """``node``'s rendering with its names left as slots, memoized.

    A template is ``(pieces, local_names)``: ``pieces`` alternates literal
    strings and slots, starting and ending with a literal, and each slot
    holds a buffer/scalar name as it appears in the tree; ``local_names``
    lists the distinct names in first-occurrence order.  Rendering looks
    them up in that order, so the outer map grows exactly as a walk of the
    whole tree would grow it, and then replaces each slot by its id.  A
    node's template is built from its children's, whose slots carry over
    unchanged.
    """
    template = memo.get(node)
    if template is None:
        cls = type(node)
        # ``pieces`` holds the finished pieces; ``run`` the parts of the
        # literal still open after them.
        pieces: list = []
        run = ["(" + cls.__name__]
        for name in _field_names(cls):
            run.append(" ")
            _add_value(getattr(node, name), name in _NAME_FIELDS, pieces,
                       run, memo)
        run.append(")")
        pieces.append("".join(run))
        template = memo[node] = (tuple(pieces),
                                 tuple(dict.fromkeys(pieces[1::2])))
    return template


def _add_value(value, is_name: bool, pieces: list, run: list,
               memo: dict) -> None:
    """Render one field value into ``pieces``/``run``; a name closes the
    open literal and becomes a slot."""
    if isinstance(value, _EXPR_BASES):
        sub = _template(value, memo)[0]
        run.append(sub[0])
        if len(sub) > 1:
            pieces.append("".join(run))
            run.clear()
            pieces += sub[1:-1]
            run.append(sub[-1])
    elif isinstance(value, (ScalarType, VectorType)):
        run.append(value.name)
    elif isinstance(value, str):
        if is_name:
            pieces += ("".join(run), value)
            run.clear()
        else:
            run.append(value)
    elif isinstance(value, (tuple, list)):
        run.append("[")
        for i, item in enumerate(value):
            if i:
                run.append(" ")
            _add_value(item, is_name, pieces, run, memo)
        run.append("]")
    else:
        run.append(repr(value))


def canonical_spec(spec, memo: dict | None = None) -> str:
    """Rename-insensitive canonical rendering of one spec expression.

    This is the **single** definition of spec identity shared by the
    verdict cache's query keys (``Oracle.query_key`` renders the spec the
    same way), the service's request coalescer
    (:mod:`repro.service.coalesce`) and the rewrite-rule library
    (:mod:`repro.rules`) — every layer that answers "have we seen this
    spec before?" must hash the same rendering, or cache keys, coalescing
    keys and rule keys drift apart.  ``memo`` is a template memo as for
    :func:`canonical_expr`; the rule library passes the oracle's, so the
    spec's templates are built once for both.
    """
    return canonical_expr(spec, {}, memo)


def compile_digest(exprs, memo: dict | None = None) -> str:
    """The identity of one compile: the sha256 of its lowered stage
    expressions' :func:`canonical_spec` renderings, in order.

    The service's request coalescer keys concurrent submissions by it,
    and a compile's verdict store opens scoped to it (:class:`OracleCache`).
    ``memo`` is a template memo as for :func:`canonical_expr`.
    """
    parts = "|".join(canonical_spec(expr, memo) for expr in exprs)
    return hashlib.sha256(parts.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Verdict cache
# ---------------------------------------------------------------------------


#: fresh verdicts per map record: a full batch is written at once
VERDICTS_PER_RECORD = 128

#: a scope: the :func:`compile_digest` of the compile that wrote a record
_SCOPE = re.compile(r"[0-9a-f]{64}")

#: how a map record tagged with a scope ends: ``encode_record`` sorts
#: keys, so ``"s"`` and ``"t"`` close the line
_SCOPED_TAIL = re.compile(rb',"s":"([0-9a-f]{64})","t":"m"\}')
_SCOPED_TAIL_LEN = len(b',"s":"') + 64 + len(b'","t":"m"}')


def _is_scope(value) -> bool:
    return isinstance(value, str) and _SCOPE.fullmatch(value) is not None


@dataclasses.dataclass
class OracleCache:
    """Verdict cache: an in-process map over an optional append log.

    With a log (:meth:`with_disk`) the cache's fresh verdicts are written
    to ``oracle.jsonl`` through :class:`~repro.fsutil.AppendLog` (fault
    sites ``cache.load`` / ``cache.flush``) as map records, one line per
    write holding every verdict recorded since the last::

        {"t": "m", "m": {"<query key>": 0 | 1, ...}, "s": "<scope>"}

    ``s`` is written by a cache opened with a ``scope``, the
    :func:`compile_digest` of the one compile it serves, and only then.

    :meth:`record` keeps its fresh verdicts in one pending map, which is
    written when it holds :data:`VERDICTS_PER_RECORD` verdicts, on
    :meth:`flush`, and when the cache is collected or the interpreter
    exits (a finalizer that holds the log and the map, never the cache).
    A failed write stays queued in the log for the next one.

    The file is read once, when the cache opens, and every line is
    checked then (UTF-8 and CRC).  An unscoped open parses every line.  A
    scoped open parses its own scope's records and every untagged or older
    line, and keeps the map records of other scopes unparsed
    (:attr:`deferred`) until a lookup misses or ``len()`` is asked; then it
    parses them all.  Lookups answer as after a full parse.  A hit on a
    verdict from such a line is queued, once, to be written again under
    this cache's scope, so the compile's next open finds it among its own
    records.

    A map record loads only if ``m`` is a non-empty object whose every
    value is the integer 0 or 1, and ``s``, if present, is 64 lowercase
    hex digits.  Older stores hold one ``{"t": "v", "k": "<query key>",
    "v": 0 | 1}`` line per verdict, and those written while the oracle
    kept a counterexample set also ``{"t": "c", "k": "<spec key>", "i":
    <bank index>}`` lines; both still load (a well-formed ``"c"`` line is
    accepted and ignored).  A record of any other shape is corrupt, whole:
    a wrongly typed verdict replayed forever would be a permanent false
    accept.  A deferred record found corrupt when it is parsed is counted
    and logged, and the file is not rewritten.

    Safe to share between threads: the compilation service hands one cache
    to every worker so concurrent jobs warm each other.  Verdicts are pure
    functions of their key, so a lost race is just a duplicate proof —
    the lock only protects the maps, never a verdict's validity.
    """

    store: AppendLog | None = None
    #: the compile this cache writes for (``None``: untagged records)
    scope: str | None = None
    _verdicts: dict = dataclasses.field(default_factory=dict, repr=False)
    #: fresh verdicts not yet written, as the ints they are written as
    _pending: dict = dataclasses.field(default_factory=dict, repr=False)
    #: other scopes' map record lines, checked but not yet parsed
    _deferred: list = dataclasses.field(default_factory=list, repr=False)
    #: verdicts parsed from those lines that no lookup has asked for yet
    #: (no key of ``_verdicts``)
    _foreign: dict = dataclasses.field(default_factory=dict, repr=False)
    _lock: threading.RLock = dataclasses.field(
        default_factory=threading.RLock, repr=False
    )

    @classmethod
    def with_disk(cls, directory: str | Path | None = None, *,
                  scope: str | None = None) -> "OracleCache":
        """A cache backed by ``<directory>/oracle.jsonl`` (default dir if
        ``None``); with ``scope``, a :func:`compile_digest`, opened for
        that compile."""
        if scope is not None and not _is_scope(scope):
            raise ValueError(f"a scope is 64 lowercase hex digits: {scope!r}")
        directory = Path(directory) if directory else default_cache_dir()
        cache = cls(scope=scope)
        cache.store = AppendLog(
            directory / CACHE_FILE_NAME,
            load_site=faults.SITE_CACHE_LOAD,
            flush_site=faults.SITE_CACHE_FLUSH,
        )
        cache.store.load(cache._load_record,
                         defer=cache._defer if scope is not None else None)
        weakref.finalize(cache, _write_pending, cache.store, cache._pending,
                         cache._lock, scope)
        return cache

    def _defer(self, raw: bytes) -> bool:
        """Keep the line ``raw`` unparsed if it is a map record of another
        scope."""
        tail = _SCOPED_TAIL.fullmatch(raw[-_SCOPED_TAIL_LEN:])
        if tail is None or tail[1] == self.scope.encode():
            return False
        self._deferred.append(raw)
        return True

    def _load_record(self, rec: dict) -> bool:
        kind = rec.get("t")
        if kind == "m":
            return _load_map(rec, self._verdicts)
        key = rec.get("k")
        if not isinstance(key, str):
            return False
        verdict, index = rec.get("v"), rec.get("i")
        if kind == "v" and type(verdict) is int and verdict in (0, 1):
            self._verdicts[key] = bool(verdict)
            return True
        # An older store's counterexample line: valid, but decides nothing.
        return kind == "c" and type(index) is int and index >= 0

    def _parse_deferred(self) -> None:
        """Parse every deferred line into ``_foreign``."""
        if not self._deferred:
            return
        lines, self._deferred = self._deferred, []
        for raw in lines:
            rec = decode_record(raw.decode())
            if rec is None or not _load_map(rec, self._foreign):
                self.store.corrupt_lines += 1
                _log.warning("corrupt deferred verdict record; not loaded",
                             path=str(self.store.path))
        for key in self._foreign.keys() & self._verdicts.keys():
            del self._foreign[key]

    def lookup(self, key: str) -> bool | None:
        with self._lock:
            verdict = self._verdicts.get(key)
            if verdict is None and (self._deferred or self._foreign):
                self._parse_deferred()
                verdict = self._foreign.pop(key, None)
                if verdict is not None:
                    # Copied once under this scope; no record() call, so
                    # no counter moves.
                    self._verdicts[key] = verdict
                    self._pending[key] = int(verdict)
            return verdict

    def record(self, key: str, verdict: bool) -> None:
        with self._lock:
            fresh = key not in self._verdicts
            self._verdicts[key] = verdict
            self._foreign.pop(key, None)
            if fresh and self.store is not None:
                self._pending[key] = int(verdict)
                if len(self._pending) >= VERDICTS_PER_RECORD:
                    _write_pending(self.store, self._pending, self._lock,
                                   self.scope)

    @property
    def deferred(self) -> int:
        """Map record lines of other scopes not parsed yet."""
        with self._lock:
            return len(self._deferred)

    def __len__(self) -> int:
        with self._lock:
            self._parse_deferred()
            return len(self._verdicts) + len(self._foreign)

    def flush(self) -> None:
        if self.store is not None:
            _write_pending(self.store, self._pending, self._lock, self.scope)


def _load_map(rec: dict, verdicts: dict) -> bool:
    """Load one map record's verdicts into ``verdicts``; whether it was
    well formed (nothing is loaded from one that is not)."""
    batch = rec.get("m")
    if (not isinstance(batch, dict)
            or set(map(type, batch.values())) != {int}
            or not set(batch.values()) <= {0, 1}
            or ("s" in rec and not _is_scope(rec["s"]))):
        return False
    verdicts.update(zip(batch, map(bool, batch.values())))
    return True


def _write_pending(store: AppendLog, pending: dict, lock,
                   scope: str | None) -> None:
    """Append ``pending`` to ``store`` as one map record, written at once
    and tagged with ``scope`` if given, and empty it; with nothing
    pending, retry what a failed write left queued."""
    with lock:
        if pending:
            rec = {"t": "m", "m": pending}
            if scope is not None:
                rec["s"] = scope
            store.append(rec)
            pending.clear()
        else:
            store.flush()
