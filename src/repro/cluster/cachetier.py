"""The shared verdict-cache tier: a tiny socket server + tolerant client.

Worker nodes keep their node-local two-level
:class:`~repro.synthesis.engine.OracleCache`; the tier adds one more
level *behind* it that every node shares, so a verdict proved on node A
warms node B's very first compile.  The design constraint is the same
one the disk store lives under: the cache is an accelerator, never a
dependency — every tier interaction is best-effort, and a dead, slow or
lying cache server degrades the cluster to exactly the node-local
behaviour it had before the tier existed.

Wire protocol (deliberately minimal, stdlib sockets only):

* Each frame is a **4-byte big-endian length prefix** followed by that
  many bytes of one CRC-stamped JSON record line — the same
  :func:`~repro.fsutil.encode_record` / :func:`~repro.fsutil.decode_record`
  codec as the append log on disk, so a torn or corrupted frame decodes
  to ``None`` and is treated as a miss rather than trusted.
* Requests: ``{"op": "get", "k": key}``, ``{"op": "put", "k": key,
  "v": bool}``, ``{"op": "ping"}``, ``{"op": "stats"}``.
* Replies: ``get`` → ``{"ok": true, "hit": bool, "v": bool}``; ``put``
  and ``ping`` → ``{"ok": true}``; ``stats`` → the server's counters.
  Unknown ops get ``{"ok": false, "error": ...}``.

Connections are persistent (one framed exchange per round trip); the
client reconnects transparently and trips a small internal breaker
after consecutive failures so a dead tier costs one timeout per
cooldown window, not one per lookup.

Fault sites ``cachetier.get`` / ``cachetier.put`` fire in the *client*
on every tier interaction, which is how the ``cachetier-outage`` plan
proves a total tier outage never fails a compile.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
import time

from .. import faults
from ..fsutil import decode_record, encode_record
from ..synthesis.engine import OracleCache
from ..trace.log import get_logger

_log = get_logger("repro.cluster.cachetier")

#: frame = 4-byte big-endian payload length + payload (one record line)
_LEN = struct.Struct(">I")

#: refuse absurd frames before allocating for them
MAX_FRAME_BYTES = 1 << 20

#: client-side socket timeout — the tier must never stall a compile
CLIENT_TIMEOUT_S = 0.5

#: consecutive client failures before the tier is skipped for a window
CLIENT_TRIP_THRESHOLD = 3
CLIENT_COOLDOWN_S = 5.0


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (bare ``":port"`` = loopback)."""
    host, _, port = address.rpartition(":")
    return host or "127.0.0.1", int(port)


def _send_frame(sock: socket.socket, record: dict) -> None:
    payload = encode_record(record).encode()
    sock.sendall(_LEN.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on a clean peer close."""
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> dict | None:
    """One decoded frame; ``None`` on close, oversize or CRC mismatch."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if not 0 < length <= MAX_FRAME_BYTES:
        return None
    payload = _recv_exact(sock, length)
    if payload is None:
        return None
    record = decode_record(payload.decode(errors="replace"))
    return record if isinstance(record, dict) else None


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


class _TierHandler(socketserver.BaseRequestHandler):
    """One persistent connection: framed request/reply until close."""

    def handle(self) -> None:
        server: CacheTierServer = self.server.tier  # type: ignore[attr-defined]
        while True:
            try:
                request = _recv_frame(self.request)
            except OSError:
                return
            if request is None:
                return
            try:
                _send_frame(self.request, server.dispatch(request))
            except OSError:
                return


class _ThreadingTCP(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class CacheTierServer:
    """The shared verdict store behind every node's local cache.

    Verdicts live in an :class:`OracleCache` (optionally disk-backed via
    ``cache_dir``, so the tier itself survives restarts).  ``port=0``
    binds an ephemeral port — read it back from :attr:`address`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 cache_dir: str | None = None):
        self.cache = (OracleCache.with_disk(cache_dir) if cache_dir
                      else OracleCache())
        self.stats = {"gets": 0, "hits": 0, "puts": 0, "bad_frames": 0}
        self._stats_lock = threading.Lock()
        self._tcp = _ThreadingTCP((host, port), _TierHandler)
        self._tcp.tier = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._tcp.server_address[:2]
        return host, port

    @property
    def endpoint(self) -> str:
        host, port = self.address
        return f"{host}:{port}"

    # -- ops ---------------------------------------------------------------

    def dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "get":
            key = request.get("k")
            verdict = self.cache.lookup(key) if isinstance(key, str) else None
            with self._stats_lock:
                self.stats["gets"] += 1
                if verdict is not None:
                    self.stats["hits"] += 1
            if verdict is None:
                return {"ok": True, "hit": False}
            return {"ok": True, "hit": True, "v": bool(verdict)}
        if op == "put":
            key, verdict = request.get("k"), request.get("v")
            if isinstance(key, str) and isinstance(verdict, bool):
                self.cache.record(key, verdict)
                with self._stats_lock:
                    self.stats["puts"] += 1
                return {"ok": True}
            with self._stats_lock:
                self.stats["bad_frames"] += 1
            return {"ok": False, "error": "put needs string k and bool v"}
        if op == "ping":
            return {"ok": True}
        if op == "stats":
            with self._stats_lock:
                return {"ok": True, "verdicts": len(self.cache),
                        **self.stats}
        with self._stats_lock:
            self.stats["bad_frames"] += 1
        return {"ok": False, "error": f"unknown op {op!r}"}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "CacheTierServer":
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, name="repro-cachetier",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._tcp.serve_forever()

    def shutdown(self) -> None:
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.cache.flush()


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class CacheTierClient:
    """A tolerant, reconnecting client for one cache-tier server.

    Every public call is best-effort and silent: ``get`` degrades to a
    miss, ``put`` to a drop.  After :data:`CLIENT_TRIP_THRESHOLD`
    consecutive failures the client skips the tier entirely for
    :data:`CLIENT_COOLDOWN_S` seconds, so a dead tier costs one timeout
    per window instead of one per verdict lookup.  Thread-safe: one
    shared connection behind a lock (tier round trips are sub-millisecond
    next to a synthesis query, so serializing them is the simple win).
    """

    def __init__(self, address: str, timeout: float = CLIENT_TIMEOUT_S,
                 trip_threshold: int = CLIENT_TRIP_THRESHOLD,
                 cooldown_s: float = CLIENT_COOLDOWN_S):
        self.host, self.port = parse_address(address)
        self.timeout = timeout
        self.trip_threshold = trip_threshold
        self.cooldown_s = cooldown_s
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._failures = 0
        self._skip_until = 0.0
        self.stats = {"gets": 0, "hits": 0, "puts": 0,
                      "errors": 0, "skipped": 0}

    # -- connection --------------------------------------------------------

    def _connect_locked(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            sock.settimeout(self.timeout)
            self._sock = sock
        return self._sock

    def _drop_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _roundtrip(self, request: dict, fault_site: str) -> dict | None:
        """One framed exchange; ``None`` on any failure (counted, never
        raised)."""
        with self._lock:
            now = time.monotonic()
            if now < self._skip_until:
                self.stats["skipped"] += 1
                return None
            try:
                faults.fire(fault_site)
                sock = self._connect_locked()
                _send_frame(sock, request)
                reply = _recv_frame(sock)
                if reply is None or not reply.get("ok"):
                    raise OSError("cache tier returned a bad frame")
            except Exception:
                # Includes injected faults: an outage plan must look
                # exactly like a real one from here on up.
                self.stats["errors"] += 1
                self._drop_locked()
                self._failures += 1
                if self._failures >= self.trip_threshold:
                    self._skip_until = now + self.cooldown_s
                    self._failures = 0
                    _log.warning(
                        "cache tier unreachable; degrading to local cache",
                        tier=f"{self.host}:{self.port}",
                        cooldown_s=self.cooldown_s,
                    )
                return None
            self._failures = 0
            return reply

    # -- API ---------------------------------------------------------------

    def get(self, key: str) -> bool | None:
        """The tier's verdict for ``key``; ``None`` on miss *or* outage."""
        self.stats["gets"] += 1
        reply = self._roundtrip({"op": "get", "k": key},
                                faults.SITE_CACHETIER_GET)
        if reply is None or not reply.get("hit"):
            return None
        self.stats["hits"] += 1
        return bool(reply["v"])

    def put(self, key: str, verdict: bool) -> bool:
        """Publish one verdict; ``False`` when dropped by an outage."""
        self.stats["puts"] += 1
        reply = self._roundtrip({"op": "put", "k": key, "v": bool(verdict)},
                                faults.SITE_CACHETIER_PUT)
        return reply is not None

    def ping(self) -> bool:
        return self._roundtrip({"op": "ping"},
                               faults.SITE_CACHETIER_GET) is not None

    def server_stats(self) -> dict | None:
        reply = self._roundtrip({"op": "stats"}, faults.SITE_CACHETIER_GET)
        return reply if reply is None else {
            k: v for k, v in reply.items() if k != "ok"
        }

    def close(self) -> None:
        with self._lock:
            self._drop_locked()


# ---------------------------------------------------------------------------
# The OracleCache adapter worker nodes actually compile against
# ---------------------------------------------------------------------------


class TieredOracleCache:
    """A node-local :class:`OracleCache` with the shared tier behind it.

    Implements the exact ``OracleCache`` surface the synthesis engine
    and scheduler consume.  ``lookup`` falls through local → tier and
    backfills the local cache on a tier hit; ``record`` writes local
    first (correctness) then publishes to the tier (best-effort).
    The adapter can not raise on the tier's behalf: the client already
    swallows every failure mode.
    """

    def __init__(self, local: OracleCache, tier: CacheTierClient):
        self.local = local
        self.tier = tier

    def lookup(self, key: str) -> bool | None:
        verdict = self.local.lookup(key)
        if verdict is not None:
            return verdict
        verdict = self.tier.get(key)
        if verdict is not None:
            self.local.record(key, verdict)
        return verdict

    def record(self, key: str, verdict: bool) -> None:
        self.local.record(key, verdict)
        self.tier.put(key, verdict)

    def __len__(self) -> int:
        return len(self.local)

    def flush(self) -> None:
        self.local.flush()
