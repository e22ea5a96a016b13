"""The compilation daemon: JSON over HTTP on the stdlib ``http.server``.

Endpoints (see ``docs/service.md`` for schemas):

* ``POST /compile``          — submit a :class:`CompileRequest`; responds
  with the job id and whether the submission coalesced onto an identical
  in-flight job.  ``503`` when the queue is full, ``400`` on protocol
  errors, ``409`` once shutdown has begun.
* ``GET  /jobs/<id>``        — the job's :class:`JobView` (result inline
  once terminal).  ``?wait=S`` long-polls: the reply is held until the
  job is terminal or S seconds pass (``400`` for a malformed S, clamped
  to :data:`~repro.service.protocol.MAX_WAIT_S`).  ``404`` for unknown
  ids.
* ``POST /jobs/<id>/cancel`` — cooperative cancellation.
* ``GET  /healthz``          — liveness + protocol version + uptime.
* ``GET  /metrics``          — Prometheus-style text
  (``?format=json`` for the structured form).
* ``GET  /telemetry/summary`` — the persistent telemetry corpus's
  per-workload summary (``{"enabled": false}`` when telemetry is off).
* ``POST /shutdown``         — graceful shutdown (also triggered by
  SIGINT/SIGTERM under ``repro serve``).

Graceful shutdown never strands a client: admission closes first (new
submissions get ``503``), queued and running jobs drain to terminal
states while status polls keep being answered, the shared verdict cache
is flushed to disk, and only then does the HTTP loop stop.

``repro serve`` builds a :class:`CompileServer` from its flags and runs
it through the start-up every daemon shares (``repro.cli``): fault plan,
signal handlers, port file, then :meth:`CompileServer.serve_forever`.
"""

from __future__ import annotations

import json
import math
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .. import faults
from ..errors import (
    CircuitOpenError,
    ProtocolError,
    QueueFullError,
    ServiceError,
)
from .protocol import PROTOCOL_VERSION, CompileRequest, parse_wait
from .scheduler import JobScheduler


def _wants_trace(query: str | None) -> bool:
    """``?trace=1`` (also ``true``/``yes``) on ``GET /jobs/<id>``."""
    values = parse_qs(query or "").get("trace", [])
    return any(v.lower() in ("1", "true", "yes") for v in values)


class DaemonHTTPServer(ThreadingHTTPServer):
    """The HTTP loop of both daemons, the worker and the cluster router.

    Peers keep their connections open between exchanges, and an accepted
    connection outlives the listener: closing only the listening socket
    would leave a peer's pooled connection answered by a daemon that is
    gone.  :meth:`server_close` therefore also shuts down every accepted
    connection that is still open (:meth:`close_connections`).
    """

    daemon_threads = True
    #: listen backlog: the stdlib default of 5 drops the SYNs of clients
    #: that connect at once, and each dropped one waits out a 1 s
    #: retransmit before its first request
    request_queue_size = 128

    def __init__(self, address, handler):
        self._open: set = set()
        self._open_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut down every open accepted connection; peers see EOF."""
        with self._open_lock:
            accepted = list(self._open)
        for conn in accepted:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # the peer already closed it
                pass

    def server_close(self):
        super().server_close()
        self.close_connections()

    def handle_error(self, request, client_address):
        # A peer that hung up mid-reply, or a connection shut down by
        # close_connections, is not a fault of the daemon.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class JsonHandler(BaseHTTPRequestHandler):
    """Reply plumbing both daemons' handlers share.

    Connections stay open between exchanges (HTTP/1.1 keep-alive), so a
    reply must not wait on the peer's delayed ACK: it is buffered and
    sent as one write (``wbufsize = -1``, flushed after each request)
    with Nagle off.
    """

    protocol_version = "HTTP/1.1"
    wbufsize = -1
    disable_nagle_algorithm = True

    def _send_json(self, status: int, payload: dict,
                   headers: dict | None = None) -> None:
        self._send(status, json.dumps(payload).encode(), "application/json",
                   headers)

    def _send_text(self, status: int, text: str) -> None:
        self._send(status, text.encode(), "text/plain; charset=utf-8")

    def _send(self, status: int, body: bytes, content_type: str,
              headers: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        """The request body as JSON (``{}`` when empty).  Every POST reads
        it before answering: the connection's next request follows it."""
        length = int(self.headers.get("Content-Length", 0) or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}")


class _Handler(JsonHandler):
    """Routes one HTTP exchange to the owning :class:`CompileServer`."""

    service: "CompileServer" = None  # patched per server instance

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.service.quiet:
            super().log_message(format, *args)

    def _inject_request_fault(self) -> bool:
        """Fire the ``server.request`` site; ``True`` when the connection
        was reset and the handler must bail out without responding."""
        rule = faults.fire(faults.SITE_SERVER_REQUEST)
        if rule is not None and rule.kind == faults.KIND_SOCKET_RESET:
            # Tear the TCP connection down mid-exchange: the client sees
            # a reset/empty response, exactly like a crashed server.
            self.close_connection = True
            try:
                self.connection.close()
            except OSError:
                pass
            return True
        return False

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if self._inject_request_fault():
                return
            if parts == ["healthz"]:
                self._send_json(200, self.service.health())
            elif parts == ["telemetry", "summary"]:
                self._send_json(200, self.service.scheduler.telemetry_summary())
            elif parts == ["metrics"]:
                if "format=json" in (url.query or ""):
                    self._send_json(200, self.service.metrics.as_dict())
                else:
                    self._send_text(200, self.service.metrics.render_text())
            elif len(parts) == 2 and parts[0] == "jobs":
                wait_s = parse_wait(url.query)
                job = self.service.scheduler.get(parts[1])
                if job is None:
                    self._send_json(404, {"error": f"unknown job {parts[1]}"})
                else:
                    # Long-poll: hold the reply until the job is terminal
                    # or the window closes.
                    job.done.wait(wait_s)
                    payload = job.view().to_dict()
                    if _wants_trace(url.query):
                        payload["trace"] = job.trace
                    self._send_json(200, payload)
            else:
                self._send_json(404, {"error": f"no route GET {url.path}"})
        except ProtocolError as exc:
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # never kill the connection thread
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            body = self._read_json()
            if self._inject_request_fault():
                return
            if parts == ["compile"]:
                self._post_compile(body)
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                cancelled = self.service.scheduler.cancel(parts[1])
                self._send_json(200, {"id": parts[1], "cancelled": cancelled})
            elif parts == ["shutdown"]:
                self._send_json(200, {"draining": True})
                self.wfile.flush()  # before the drain closes the socket
                self.service.request_shutdown()
            else:
                self._send_json(404, {"error": f"no route POST {url.path}"})
        except ProtocolError as exc:
            self._send_json(400, {"error": str(exc)})
        except CircuitOpenError as exc:
            self._send_json(
                503,
                {
                    "error": str(exc),
                    "retry": True,
                    "retry_after_s": round(exc.retry_after_s, 3),
                },
                headers={"Retry-After": str(math.ceil(exc.retry_after_s))},
            )
        except QueueFullError as exc:
            self._send_json(
                503,
                {
                    "error": str(exc),
                    "retry": True,
                    "retry_after_s": round(exc.retry_after_s, 3),
                },
                headers={"Retry-After": str(math.ceil(exc.retry_after_s))},
            )
        except ServiceError as exc:
            self._send_json(409, {"error": str(exc)})
        except Exception as exc:
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _post_compile(self, body: dict) -> None:
        from ..workloads.base import names

        request = CompileRequest.from_dict(body)
        request.validate(known_workloads=names())
        routed_by = self.headers.get("X-Repro-Routed-By") or None
        job, coalesced = self.service.scheduler.submit(
            request, routed_by=routed_by
        )
        idempotent = coalesced == "idempotent"
        self._send_json(202, {
            "v": PROTOCOL_VERSION,
            "id": job.id,
            "state": job.state,
            "coalesced": bool(coalesced) and not idempotent,
            "idempotent": idempotent,
            "key": job.key,
            "node_id": self.service.node_id,
        })


class CompileServer:
    """A long-lived compilation server bound to one scheduler.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`address`).  :meth:`start` runs the HTTP loop on a background
    thread (tests, benchmarks); :meth:`serve_forever` blocks (the CLI).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue_size: int = 64,
        cache_dir: str | None = None,
        cache=None,
        compile_fn=None,
        aging_rate: float = 1.0,
        quiet: bool = True,
        grace_s: float = 2.0,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 30.0,
        rules: bool = False,
        rules_dir: str | None = None,
        telemetry_dir: str | None = None,
        node_id: str | None = None,
        cache_tier: str | None = None,
    ):
        self.node_id = node_id
        # A shared verdict-cache tier (repro.cluster.cachetier) layers
        # *behind* the node-local cache: lookups fall through to it,
        # publishes are best-effort, and any tier outage degrades to
        # purely local caching — never to a failed compile.
        if cache_tier:
            from ..cluster.cachetier import CacheTierClient, TieredOracleCache
            from ..synthesis.engine import OracleCache

            local = cache if cache is not None else (
                OracleCache.with_disk(cache_dir) if cache_dir
                else OracleCache()
            )
            cache = TieredOracleCache(local, CacheTierClient(cache_tier))
        self.scheduler = JobScheduler(
            workers=workers,
            queue_size=queue_size,
            cache=cache,
            cache_dir=cache_dir,
            compile_fn=compile_fn,
            aging_rate=aging_rate,
            breaker_threshold=breaker_threshold,
            breaker_cooldown_s=breaker_cooldown_s,
            rules=rules,
            rules_dir=rules_dir,
            telemetry_dir=telemetry_dir,
            node_id=node_id,
        )
        self.metrics = self.scheduler.metrics
        self.quiet = quiet
        self.grace_s = grace_s
        self.started_mono = time.monotonic()
        handler = type("BoundHandler", (_Handler,), {"service": self})
        self._httpd = DaemonHTTPServer((host, port), handler)
        self._serve_thread: threading.Thread | None = None
        self._shutdown_lock = threading.Lock()
        self._shutting_down = False

    # -- addresses ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- health ------------------------------------------------------------

    def health(self) -> dict:
        from ..workloads.base import names

        return {
            "status": "draining" if self._shutting_down else "ok",
            "v": PROTOCOL_VERSION,
            "node_id": self.node_id,
            "uptime_s": round(time.monotonic() - self.started_mono, 3),
            "workloads": len(names()),
            "queue_depth": self.scheduler.queue_depth(),
            "jobs_inflight": self.scheduler.inflight(),
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "CompileServer":
        """Serve on a background thread; returns self once listening."""
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-http", daemon=True
        )
        self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def request_shutdown(self) -> None:
        """Begin graceful shutdown without blocking the caller (used by
        ``POST /shutdown`` and signal handlers)."""
        threading.Thread(
            target=self.shutdown, name="repro-shutdown", daemon=True
        ).start()

    def shutdown(self, drain: bool = True,
                 timeout: float | None = None) -> bool:
        """Drain jobs, flush the verdict cache, stop the HTTP loop.

        Idempotent; returns whether the drain finished cleanly.  Status
        polls are answered for the whole drain window so clients waiting
        on in-flight jobs observe their terminal states.
        """
        with self._shutdown_lock:
            if self._shutting_down:
                return True
            self._shutting_down = True
        busy = self.scheduler.queue_depth() + self.scheduler.inflight() > 0
        clean = self.scheduler.shutdown(drain=drain, timeout=timeout)
        if busy and self.grace_s > 0:
            # A long-poll wakes when its job goes terminal, but a waiter
            # between two status reads (or between its submit and first
            # read) still needs the listener: linger so it gets one
            # successful read before the sockets close.
            time.sleep(self.grace_s)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        return clean

