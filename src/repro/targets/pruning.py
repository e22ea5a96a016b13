"""Precomputed pruned swizzle grammars (grape's ``prune.py`` idea applied
to the realization enumeration).

Every realization the swizzle grammar yields for one placeholder reads
the same memory window, so whole realization lists collapse to a single
observational-equivalence class — enumerating every realization combo
re-discovers that fact at compile time, every time.  The
``repro prune-grammar`` CLI subcommand runs the discovery *offline*: it
harvests the placeholder shapes the workload suite actually enumerates,
verifies by scalar evaluation that each shape's realizations are
pairwise equivalent, and writes per-target keep-lists as JSON data files
(``data/pruned_<target>.json``) that the swizzle synthesizer loads
lazily, once per target.  At compile time a pruned placeholder contributes
only its cheapest realization, so the realization product collapses to
the single combo full enumeration would have verified first — selected
instructions and costs are byte-identical, the search just stops paying
for the rest of the product.

Placeholders are keyed by a *signature* invariant under buffer renaming
and offset translation by whole vectors: the realization structure (and
each realization's cost) depends only on the stride, lane count, element
type and the offset's alignment residue, never on the buffer name or
which tile the window came from.  Signatures outside the table — and
tables that disagree with the enumerated realization count, e.g. after a
grammar change — fall back to full enumeration, so deleting the data
files (or pointing :data:`ENV_DIR` elsewhere) is always safe.

``AbstractSwizzle`` placeholders embed an arbitrary computed subtree and
already realize to a single candidate, so they are never pruned.
"""

from __future__ import annotations

import json
import os

from ..errors import EvaluationError
from ..synthesis import sketch as S

#: data-file format version; bump when the signature scheme changes
DATA_VERSION = 1

#: environment variable overriding the data-file directory (tests and
#: experiments); when set, it is used exclusively — the packaged files
#: are not consulted
ENV_DIR = "REPRO_PRUNED_GRAMMAR_DIR"

#: (style, seed) valuations the offline builder evaluates realizations
#: on; structured first, the trailing randoms guard against coincidence
BUILD_VALUATIONS = (
    ("ramp", 0), ("random", 1), ("alternate", 2),
    ("small_random", 4), ("random", 101), ("random", 102),
)

_UNLOADED = object()
_TABLES: dict = {}


def data_dir() -> str:
    """Directory holding ``pruned_<target>.json`` files."""
    override = os.environ.get(ENV_DIR)
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "data")


def table_path(target_name: str) -> str:
    return os.path.join(data_dir(), f"pruned_{target_name}.json")


def load_table(target_name: str):
    """The signature table for one target, or ``None`` (memoized —
    including the negative result, so a missing file costs one stat)."""
    cached = _TABLES.get(target_name, _UNLOADED)
    if cached is not _UNLOADED:
        return cached
    table = None
    try:
        with open(table_path(target_name), encoding="utf-8") as fh:
            raw = json.load(fh)
        if (
            isinstance(raw, dict)
            and raw.get("version") == DATA_VERSION
            and raw.get("target") == target_name
            and isinstance(raw.get("signatures"), dict)
        ):
            table = raw["signatures"] or None
    except (OSError, ValueError):
        table = None
    _TABLES[target_name] = table
    return table


def invalidate() -> None:
    """Forget loaded tables (and the realization lists derived from
    them) so the next lookup re-reads the data directory."""
    _TABLES.clear()
    from ..synthesis import swizzle_synth

    swizzle_synth._REALIZATION_CACHE.clear()


# -- signatures --------------------------------------------------------------


def signature_of(placeholder) -> str | None:
    """Canonical pruning key for a placeholder, or ``None`` if unprunable.

    Two placeholders with equal signatures enumerate structurally
    identical realization lists (same length, instruction shapes and
    costs), differing only in buffer names and aligned base offsets —
    the grammars branch on stride, lane count, element type and the
    offset residue mod the (inner) window length, all captured here.
    """
    if isinstance(placeholder, S.AbstractWindow):
        if placeholder.lanes <= 0:
            return None
        return (
            f"W|{placeholder.stride}|{placeholder.lanes}|"
            f"{placeholder.elem.name}|{placeholder.offset % placeholder.lanes}"
        )
    if isinstance(placeholder, S.AbstractPairWindow):
        half = placeholder.lanes // 2
        if half <= 0:
            return None
        return (
            f"P|{placeholder.lanes}|{placeholder.elem.name}|"
            f"{placeholder.offset % half}"
        )
    if isinstance(placeholder, S.AbstractRows):
        if placeholder.lanes <= 0:
            return None
        shared = int(placeholder.buffer0 == placeholder.buffer1)
        return (
            f"R|{placeholder.stride}|{placeholder.lanes}|"
            f"{placeholder.elem.name}|"
            f"{placeholder.offset0 % placeholder.lanes}|"
            f"{placeholder.offset1 % placeholder.lanes}|{shared}"
        )
    return None


def canonical_placeholder(placeholder):
    """The representative placeholder a signature is built from:
    buffers renamed ``b0``/``b1``, offsets reduced to their residues."""
    if isinstance(placeholder, S.AbstractWindow):
        return S.AbstractWindow(
            "b0", placeholder.offset % placeholder.lanes,
            placeholder.lanes, placeholder.elem, placeholder.stride,
        )
    if isinstance(placeholder, S.AbstractPairWindow):
        half = placeholder.lanes // 2
        return S.AbstractPairWindow(
            "b0", placeholder.offset % half, placeholder.lanes,
            placeholder.elem,
        )
    if isinstance(placeholder, S.AbstractRows):
        shared = placeholder.buffer0 == placeholder.buffer1
        return S.AbstractRows(
            "b0", placeholder.offset0 % placeholder.lanes,
            "b0" if shared else "b1",
            placeholder.offset1 % placeholder.lanes,
            placeholder.lanes, placeholder.elem, placeholder.stride,
        )
    return None


# -- compile-time application ------------------------------------------------


def pruned_options(target_name: str, placeholder, options: list):
    """Apply the target's table to an enumerated realization list.

    Returns ``(kept_options, True)`` on a table hit, or the original
    list with ``False`` when the placeholder is not covered (no table,
    unprunable shape, stale entry, malformed keep-list).
    """
    table = load_table(target_name)
    if not table:
        return options, False
    sig = signature_of(placeholder)
    if sig is None:
        return options, False
    entry = table.get(sig)
    if not isinstance(entry, dict) or entry.get("total") != len(options):
        return options, False
    keep = entry.get("keep")
    if (
        not isinstance(keep, list) or not keep
        or not all(
            isinstance(i, int) and 0 <= i < len(options) for i in keep
        )
    ):
        return options, False
    return [options[i] for i in keep], True


# -- offline building --------------------------------------------------------


def _builder_environments(placeholder):
    """Valuations binding the canonical placeholder's buffers, generous
    enough for every realization's reads (strided pairs, valign spill)."""
    from ..synthesis import valuation

    names = []
    if hasattr(placeholder, "buffer"):
        names.append(placeholder.buffer)
    else:
        names.append(placeholder.buffer0)
        if placeholder.buffer1 not in names:
            names.append(placeholder.buffer1)
    lanes = placeholder.lanes
    stride = getattr(placeholder, "stride", 1)
    hi = lanes * (2 * max(stride, 1) + 6)
    buffers = [
        valuation.BufferSpec(name, placeholder.elem, -lanes, hi)
        for name in names
    ]
    return [
        valuation.make_environment(buffers, [], style, seed)
        for style, seed in BUILD_VALUATIONS
    ]


def build_entry(target, placeholder):
    """Keep-list entry for one canonical placeholder, or ``None``.

    ``None`` means "leave this signature to full enumeration": a single
    realization (nothing to prune), an evaluation failure, or — the
    load-bearing check — realizations that do *not* all collapse to one
    equivalence class, where dropping any of them could change which
    combo the search verifies first.
    """
    from . import nodes as N

    options = list(target.realizations(placeholder))
    if len(options) <= 1:
        return None
    try:
        for env in _builder_environments(placeholder):
            values = [N.evaluate(impl, env) for impl in options]
            if any(v != values[0] for v in values[1:]):
                return None
    except EvaluationError:
        return None
    best = min(
        range(len(options)),
        key=lambda i: (target.cost_of(options[i]).key, i),
    )
    return {"total": len(options), "keep": [best]}


def harvest_placeholders(target, workload_names):
    """Signature → canonical placeholder map observed while compiling
    ``workload_names`` for ``target`` (a full synthesis run per
    workload, with pruning disabled so the *unpruned* enumeration is
    what gets recorded)."""
    from ..pipeline import compile_pipeline
    from ..synthesis import swizzle_synth
    from ..workloads import get

    seen: dict = {}

    def record(placeholder, tgt):
        if tgt.name != target.name:
            return
        sig = signature_of(placeholder)
        if sig is not None and sig not in seen:
            canon = canonical_placeholder(placeholder)
            if canon is not None:
                seen[sig] = canon

    # Pin this target's table to "absent" for the duration of the
    # harvest so the recorder sees full, unpruned enumerations even when
    # shipped data files exist, then restore whatever was loaded.
    saved = _TABLES.get(target.name, _UNLOADED)
    _TABLES[target.name] = None
    swizzle_synth._REALIZATION_CACHE.clear()
    swizzle_synth.set_placeholder_recorder(record)
    try:
        for name in workload_names:
            compile_pipeline(
                get(name).build(), backend="rake", target=target.name
            )
    finally:
        swizzle_synth.set_placeholder_recorder(None)
        if saved is _UNLOADED:
            _TABLES.pop(target.name, None)
        else:
            _TABLES[target.name] = saved
        swizzle_synth._REALIZATION_CACHE.clear()
    return seen


def build_table(target, workload_names) -> dict:
    """The full data-file payload for one target."""
    from . import ensure_semantics

    ensure_semantics()
    signatures = {}
    for sig, canon in sorted(
        harvest_placeholders(target, workload_names).items()
    ):
        entry = build_entry(target, canon)
        if entry is not None:
            signatures[sig] = entry
    return {
        "version": DATA_VERSION,
        "target": target.name,
        "signatures": signatures,
    }


def write_table(table: dict, path: str) -> None:
    """Atomically write one data file (tmp + rename, like fsutil)."""
    from ..fsutil import atomic_write_text

    os.makedirs(os.path.dirname(path), exist_ok=True)
    atomic_write_text(path, json.dumps(table, indent=2, sort_keys=True) + "\n")
