"""Crash-safe file writes shared by the CLI, exporters and cache stores.

Every user-facing artifact the stack dumps — ``--stats-json`` payloads,
Chrome traces, flamegraphs, compacted append logs — goes through
``write-to-temp + os.replace``: a crash mid-dump leaves either the old
file or no file, never a half-written one.  The temp file lives in the
destination's directory so the final rename stays on one filesystem
(``os.replace`` is only atomic within a filesystem).

:class:`AppendLog` is the one durable record log under the verdict
store, the rewrite-rule library and the telemetry corpus: CRC-stamped
JSONL lines, appended in batches of one ``O_APPEND`` write each, and a
loader that quarantines a damaged file and compacts the survivors.  Each
line opens with its CRC, which covers exactly the bytes after it, so a
loader checks a line without re-serializing it.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
import weakref
import zlib
from pathlib import Path

from . import faults


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``)."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path, payload, indent: int | None = None,
                      default=None) -> None:
    """Serialize ``payload`` as JSON and write it atomically."""
    text = json.dumps(payload, indent=indent, default=default)
    atomic_write_text(path, text + "\n")


# ---------------------------------------------------------------------------
# The durable append log
# ---------------------------------------------------------------------------


def encode_record(rec: dict) -> str:
    """One JSONL line for ``rec``, stamped with a CRC-32 of its body.

    The body is the canonical serialization of ``rec`` (compact
    separators, sorted keys).  The line is ``{"crc":N,`` followed by the
    body without its opening brace (``{"crc":N}`` for an empty record), so
    N is the CRC-32 of exactly ``{`` plus the rest of the line.  It is
    also the CRC of the record re-serialized canonically without its
    ``crc`` field, which is how lines of the older, key-sorted layout
    (``crc`` in mid-line) are checked.
    """
    body = json.dumps(rec, separators=(",", ":"), sort_keys=True)
    crc = zlib.crc32(body.encode())
    if body == "{}":
        return f'{{"crc":{crc}}}'
    return f'{{"crc":{crc},{body[1:]}'


#: the head :func:`encode_record` writes: ``{"crc":N,`` with N an integer
#: in JSON's own form and at most ten digits, as every CRC-32 is
_CRC_FIRST = re.compile(r'\{"crc":(0|[1-9][0-9]{0,9}),')

#: ``raw_decode`` reports where the body's object ends
_JSON = json.JSONDecoder()


def decode_record(line: str):
    """Parse one JSONL line; ``None`` if torn, merged or CRC-mismatched.

    A line that opens ``{"crc":N,`` is accepted when N is the CRC-32 of
    exactly ``{`` plus the rest of the line; only that body is parsed and
    nothing is re-serialized.  Every other line (the older layout with
    ``crc`` in mid-line, a non-ASCII line, or a body that fails that
    check, is empty or holds a second ``crc``) is parsed whole and its
    ``crc`` checked against the record re-serialized canonically without
    it, exactly as before the CRC moved to the front.  The first check
    does not require a canonical body; no encoder writes a line whose CRC
    covers a non-canonical one.

    Lines without a ``crc`` field (stores written before checksumming) are
    accepted as-is — the old best-effort trust level, kept so warm caches
    survive the upgrade; each store's loader still checks the fields.
    """
    head = _CRC_FIRST.match(line)
    if head is not None and line.isascii():
        body = "{" + line[head.end():]
        if zlib.crc32(body.encode()) == int(head[1]):
            try:
                rec, end = _JSON.raw_decode(body)
            except (ValueError, RecursionError):
                rec, end = None, 0
            # Left to the re-serializing check below: bytes after the
            # body's closing brace, an empty body (the line itself is then
            # not JSON) and a second ``crc`` (the one a parser keeps).
            if end == len(body) and rec and "crc" not in rec:
                return rec
    try:
        rec = json.loads(line)
    except (ValueError, RecursionError):  # RecursionError: deep nesting
        return None
    if not isinstance(rec, dict):
        return None
    if "crc" in rec:
        crc = rec.pop("crc")
        body = json.dumps(rec, separators=(",", ":"), sort_keys=True)
        if crc != zlib.crc32(body.encode()):
            return None
    return rec


def _utf8(line: str) -> bool:
    """Whether ``line``, decoded with ``surrogateescape``, was valid UTF-8:
    an undecodable byte becomes a lone surrogate, which no valid line has."""
    if line.isascii():
        return True
    try:
        line.encode()
    except UnicodeEncodeError:
        return False
    return True


def _warn(event: str, **fields) -> None:
    from .trace.log import get_logger  # deferred: repro.trace imports us

    get_logger("repro.fsutil").warning(event, **fields)


class AppendLog:
    """One append-only JSONL file of CRC-stamped records.

    :meth:`append` queues a record; every ``flush_every`` records (and
    on :meth:`flush`) the queue lands as **one** ``os.write`` on an
    ``O_APPEND`` descriptor, so processes sharing the file interleave
    whole batches, never bytes.  The file is created by the first flush
    that succeeds.  A flush that fails is counted in ``write_errors``;
    with ``requeue`` its records stay queued for the next flush,
    otherwise they are dropped (and any exception is swallowed, not
    just ``OSError``).  ``load_site`` / ``flush_site`` name the
    :mod:`repro.faults` sites fired on load and flush.

    Given an ``owner``, the log flushes when the owner is collected or
    at interpreter exit, whichever comes first; the exit hook holds the
    log, never the owner, so a dropped store is freed.
    """

    def __init__(self, path, owner=None, *, flush_every: int = 1,
                 load_site: str | None = None, flush_site: str | None = None,
                 requeue: bool = True):
        self.path = Path(path)
        self.flush_every = flush_every
        self.load_site = load_site
        self.flush_site = flush_site
        self.requeue = requeue
        self._pending: list[str] = []
        self._lock = threading.RLock()
        self.appended = 0
        self.corrupt_lines = 0
        self.load_errors = 0
        self.write_errors = 0
        self.quarantined: Path | None = None
        if owner is not None:
            weakref.finalize(owner, self.flush)

    def load(self, accept, repair: bool = True) -> bool:
        """Feed each record in the file to ``accept``; whether it was read.

        A line that is not UTF-8, is torn, fails its CRC, or that
        ``accept`` returns false for counts in ``corrupt_lines``.  If any
        did and ``repair`` is set, the file moves aside to
        ``<name>.quarantine`` and the accepted records are rewritten
        atomically, so a bad line is scrubbed once instead of re-skipped
        forever.  A missing file is an empty log; an unreadable one counts
        in ``load_errors``.
        """
        try:
            if self.load_site is not None:
                faults.fire(self.load_site)
            if not self.path.exists():
                return False
            data = self.path.read_bytes()
        except OSError as exc:
            self.load_errors += 1
            _warn("append log unreadable; starting empty",
                  path=str(self.path), error=str(exc))
            return False
        survivors = []
        for line in data.decode(errors="surrogateescape").splitlines():
            if not line.strip():
                continue
            rec = decode_record(line) if _utf8(line) else None
            if rec is not None and accept(rec):
                survivors.append(line)
            else:
                self.corrupt_lines += 1
        if self.corrupt_lines and repair:
            self._quarantine(survivors)
        return True

    def _quarantine(self, survivors: list) -> None:
        # Both steps go through os.replace, so a crash at any point leaves
        # the old file, the quarantined copy, or the compacted log.
        quarantine = self.path.with_name(self.path.name + ".quarantine")
        try:
            os.replace(self.path, quarantine)
        except OSError:
            self.load_errors += 1
            return
        self.quarantined = quarantine
        _warn("quarantined corrupt append log", path=str(quarantine),
              corrupt_lines=self.corrupt_lines)
        text = "".join(encode_record(decode_record(line)) + "\n"
                       for line in survivors)
        try:
            atomic_write_text(self.path, text)
        except OSError:
            # The quarantined copy still holds the data; appends resume
            # into a fresh file on the next flush.
            self.write_errors += 1

    def append(self, rec: dict) -> None:
        """Queue one record; raises ``TypeError``/``ValueError`` if it
        does not serialize."""
        line = encode_record(rec)
        with self._lock:
            self._pending.append(line)
            self.appended += 1
            full = len(self._pending) >= self.flush_every
        if full:
            self.flush()

    def flush(self) -> None:
        """Write the queued records in one ``O_APPEND`` write; never
        raises for a failed write."""
        with self._lock:
            if not self._pending:
                return
            pending, self._pending = self._pending, []
            payload = ("\n".join(pending) + "\n").encode()
            try:
                # A torn_write rule truncates the payload (a crash
                # mid-append); the raising kinds fail the write.
                if self.flush_site is not None:
                    payload = faults.corrupt(self.flush_site, payload)
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(
                    self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
                try:
                    os.write(fd, payload)
                finally:
                    os.close(fd)
            except Exception as exc:
                if self.requeue and not isinstance(exc, OSError):
                    raise
                self.write_errors += 1
                if self.requeue:
                    self._pending = pending  # the next flush retries
                else:
                    _warn("append log flush failed; records dropped",
                          path=str(self.path),
                          error=f"{type(exc).__name__}: {exc}")
