"""The persistent telemetry corpus: per-process JSONL segments.

A *store* is a directory of append-only segment files
(``segment-<pid>-<suffix>.jsonl``).  Each producing process owns exactly
one segment and only ever appends to it, so concurrent producers — the
CLI, a running service, several benchmark processes — never contend on
a file; readers merge every segment.  Each segment is a
:class:`repro.fsutil.AppendLog` (batches of 8, fault site
``telemetry.flush``), quarantined and compacted by the reader when it
holds a corrupt line.

**Telemetry is strictly best-effort.**  A flush that fails drops its
batch into ``write_errors`` (re-queueing could grow without bound under a
permanently unwritable store), and the ``telemetry.flush`` fault site
(:mod:`repro.faults`) exists so the chaos suite can prove a corrupt or
unwritable store never fails — or even degrades — a compile, mirroring
the ``rules.load`` silent-fallback contract.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path

from .. import faults
from ..fsutil import AppendLog
from ..synthesis.engine import default_cache_dir
from ..trace.log import get_logger
from .record import is_record

SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".jsonl"

_log = get_logger("repro.telemetry")


def default_telemetry_dir() -> Path:
    """The default store location: ``<cache dir>/telemetry`` (honors
    ``$REPRO_CACHE_DIR`` through :func:`default_cache_dir`)."""
    return default_cache_dir() / "telemetry"


def segment_files(directory: str | os.PathLike) -> list:
    """Every segment path in ``directory``, sorted by name (stable merge
    order).  Missing or unreadable directories read as empty."""
    try:
        entries = sorted(Path(directory).glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}"))
    except OSError:
        return []
    return entries


class TelemetryStore:
    """One process's append handle onto a telemetry store directory.

    Thread-safe (the service's workers share one instance).  The segment
    file is created lazily on the first successful flush, so constructing
    a store costs nothing and an unwritable directory surfaces only as a
    ``log.write_errors`` count — never an exception out of
    :meth:`append` or :meth:`flush`.
    """

    def __init__(self, directory: str | os.PathLike | None = None):
        base = Path(directory) if directory is not None \
            else default_telemetry_dir()
        self.directory = base
        self.segment = base / (
            f"{SEGMENT_PREFIX}{os.getpid()}-{uuid.uuid4().hex[:8]}"
            f"{SEGMENT_SUFFIX}"
        )
        self.log = AppendLog(self.segment, self, flush_every=8,
                             flush_site=faults.SITE_TELEMETRY_FLUSH,
                             requeue=False)

    def append(self, record: dict) -> str | None:
        """Queue one record; returns its id, or ``None`` if it does not
        serialize.  Call :meth:`flush` to force the tail out (the emit
        helpers do, so a one-compile CLI run is durable before the
        process exits)."""
        try:
            self.log.append(record)
        except (TypeError, ValueError):
            return None
        return record.get("id")

    def flush(self) -> None:
        self.log.flush()


class ReadReport:
    """What a corpus read found: records plus damage accounting."""

    def __init__(self):
        self.records: list = []
        self.segments = 0
        self.corrupt_lines = 0
        self.skipped_records = 0
        self.quarantined: list = []


def read_store(directory: str | os.PathLike, repair: bool = True) -> ReadReport:
    """Load every readable record from a store directory.

    Records are returned in ``(ts, segment order)`` order.  Lines that
    fail the CRC or JSON parse are counted in ``corrupt_lines``; records
    from an unknown schema are counted in ``skipped_records`` and kept on
    disk (a newer writer's corpus reads partially rather than not at
    all).  With ``repair=True`` a segment containing corrupt lines is
    quarantined and compacted in place, exactly like the verdict and rule
    stores; pass ``repair=False`` for read-only consumers of stores they
    do not own.
    """
    report = ReadReport()

    def accept(rec: dict) -> bool:
        if is_record(rec):
            report.records.append(rec)
        else:
            report.skipped_records += 1
        return True

    for path in segment_files(directory):
        log = AppendLog(path)
        if not log.load(accept, repair=repair):
            continue
        report.segments += 1
        report.corrupt_lines += log.corrupt_lines
        if log.quarantined is not None:
            report.quarantined.append(log.quarantined)
    report.records.sort(key=lambda r: r.get("ts", 0.0))
    return report


def emit(store: TelemetryStore | None, record: dict) -> str | None:
    """Append + flush one record through a possibly-absent store.

    The single producer-facing entry point: any exception — a broken
    store object, an injected fault past the flush's own guard — is
    swallowed, because no compile may ever fail over telemetry.
    """
    if store is None:
        return None
    try:
        record_id = store.append(record)
        store.flush()
        return record_id
    except Exception as exc:  # pragma: no cover - belt and braces
        _log.warning("telemetry emit failed",
                     error=f"{type(exc).__name__}: {exc}")
        return None
