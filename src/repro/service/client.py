"""A blocking Python client for the compilation service.

Wraps the HTTP API in typed calls: ``submit`` returns a job id,
``status`` a :class:`~repro.service.protocol.JobView`, and ``compile``
blocks — submit, long-poll ``GET /jobs/<id>?wait=S`` until the job is
terminal, return the terminal :class:`JobView`.  The CLI's
``submit``/``status`` subcommands and the service tests and benchmark
all go through this class, so the wire format has exactly one reader and
one writer.  Each thread keeps one keep-alive connection to the server
(:func:`exchange`, which the cluster router's hops share).

Transport errors surface as :class:`~repro.errors.ServiceError`; protocol
violations (bad JSON, version mismatch) as
:class:`~repro.errors.ProtocolError`.

Retry semantics:

* Transient connection failures during **GET** requests — a waiting
  client racing a server restart, a reset socket, a reply cut off
  mid-body — are retried with capped exponential backoff before
  surfacing as the typed :class:`~repro.errors.ServiceUnavailable`.
  Reopening a kept-alive connection that the server closed while it sat
  idle sends nothing twice and is not a retry.
* ``POST /compile`` is retried too, but only because :meth:`submit`
  stamps a client-generated **idempotency key** into every request it
  sends: a retry after a dropped connection replays onto the job the
  first attempt minted (or mints it if the first attempt never arrived)
  instead of double-submitting.  POSTs *without* a key — explicit
  ``idempotency_key=None`` callers, cancels, shutdown — are never
  retried.
* **503 shed responses** (full queue, open circuit breaker) are honored:
  the client sleeps for the server's ``Retry-After`` hint and resubmits,
  up to the retry policy's attempt budget, before surfacing the typed
  error.

``stats`` counts what the retry machinery actually did (GET retries,
POST retries, 503 sheds honored) so tests and operators can see the
resilience path exercising instead of inferring it from latency.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
import uuid
from dataclasses import replace
from urllib.parse import urlsplit

from ..errors import (
    CircuitOpenError,
    ProtocolError,
    QueueFullError,
    ServiceError,
    ServiceUnavailable,
)
from ..faults import RetryPolicy
from .protocol import MAX_WAIT_S, CompileRequest, JobView

#: cap on how long one honored Retry-After hint may sleep — a server
#: deep in breaker cooldown should fail fast to the caller, not wedge it
MAX_RETRY_AFTER_S = 5.0


def _default_retry() -> RetryPolicy:
    return RetryPolicy(attempts=3, base_s=0.05, max_s=0.5)


def connect(url: str) -> http.client.HTTPConnection:
    """An unopened keep-alive connection to the host and port of ``url``
    (``http://host:port``); it opens on its first :func:`exchange`."""
    parts = urlsplit(url)
    return http.client.HTTPConnection(parts.hostname, parts.port)


def exchange(conn: http.client.HTTPConnection, method: str, path: str,
             body: bytes | None, headers: dict, timeout: float):
    """One request and its whole reply on a keep-alive connection;
    returns ``(status, body bytes, headers)``.

    A connection the peer closed while it sat idle is reopened first,
    before anything is sent.  Any later failure closes the connection
    and raises ``OSError`` — including a reply cut off mid-body, which
    ``http.client`` reports as an ``HTTPException`` — so the caller's
    retry rules decide whether the request goes out again.
    """
    if conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
        conn.close()  # EOF (or a stray byte) on an idle connection
    conn.timeout = timeout
    if conn.sock is not None:
        conn.sock.settimeout(timeout)
    try:
        conn.request(method, path, body=body, headers=headers)
        reply = conn.getresponse()
        return reply.status, reply.read(), reply.headers
    except BaseException as exc:
        conn.close()  # never reuse a connection left mid-exchange
        if isinstance(exc, http.client.HTTPException):
            raise OSError(f"bad HTTP reply: {exc!r}") from exc
        raise


class ServiceClient:
    """Talks to one server at ``base_url`` (e.g. ``http://127.0.0.1:8347``).

    ``retry`` governs both the transient-connection retry (default: 3
    retries, 50 ms base backoff capped at 0.5 s) and how many 503 shed
    responses :meth:`submit` will wait out before giving up."""

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retry: RetryPolicy | None = None):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry if retry is not None else _default_retry()
        self._local = threading.local()  # .conn: this thread's connection
        #: visible retry-path accounting; never consulted by the client
        self.stats = {
            "get_retries": 0,
            "post_retries": 0,
            "shed_retries": 0,
        }

    # -- transport ---------------------------------------------------------

    def _request(self, method: str, path: str, payload: dict | None = None,
                 idempotent: bool = False, wait_s: float = 0.0):
        """One HTTP exchange; returns ``(status, body, headers)``.

        ``idempotent=True`` opts a non-GET request into the transient
        connection retry — the caller asserts a replay is safe.
        ``wait_s`` extends the socket timeout by a long-poll window.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = connect(self.base_url)
        data = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        retryable = method == "GET" or idempotent
        attempts = self.retry.attempts if retryable else 0
        last: Exception | None = None
        for attempt in range(attempts + 1):
            try:
                status, body, reply_headers = exchange(
                    conn, method, path, data, headers,
                    self.timeout + wait_s,
                )
                # HTTP-level errors are answers, not transport failures;
                # the caller maps them.
                return status, body.decode(), reply_headers
            except OSError as exc:
                last = exc
                if attempt < attempts:
                    self.stats[
                        "get_retries" if method == "GET" else "post_retries"
                    ] += 1
                    self.retry.sleep(attempt)
        if retryable:
            raise ServiceUnavailable(
                f"cannot reach compile server at {self.base_url} "
                f"after {attempts + 1} attempts: {last}"
            ) from last
        raise ServiceError(
            f"cannot reach compile server at {self.base_url}: {last}"
        ) from last

    def _request_json(self, method: str, path: str,
                      payload: dict | None = None,
                      idempotent: bool = False,
                      wait_s: float = 0.0) -> dict:
        status, body, resp_headers = self._request(
            method, path, payload, idempotent=idempotent, wait_s=wait_s
        )
        try:
            decoded = json.loads(body) if body else {}
        except json.JSONDecodeError as exc:
            raise ProtocolError(
                f"server returned invalid JSON for {method} {path}: {exc}"
            ) from exc
        if status == 503:
            raise self._shed_error(decoded, resp_headers)
        if status >= 400:
            raise ServiceError(
                decoded.get("error", f"{method} {path} failed ({status})")
            )
        return decoded

    @staticmethod
    def _shed_error(decoded: dict, headers) -> ServiceError:
        """Map one 503 body+headers to the typed shed exception, carrying
        the server's Retry-After hint either way."""
        retry_after = decoded.get("retry_after_s")
        if retry_after is None:
            retry_after = headers.get("Retry-After", 1.0)
        try:
            retry_after_s = max(0.0, float(retry_after))
        except (TypeError, ValueError):
            retry_after_s = 1.0
        message = decoded.get("error", "server is shedding load")
        if "circuit" in message or "shedding" in message:
            return CircuitOpenError(message, retry_after_s=retry_after_s)
        return QueueFullError(message, retry_after_s=retry_after_s)

    # -- API ---------------------------------------------------------------

    def healthz(self) -> dict:
        return self._request_json("GET", "/healthz")

    def metrics(self) -> dict:
        """The structured (JSON) form of ``/metrics``."""
        return self._request_json("GET", "/metrics?format=json")

    def metrics_text(self) -> str:
        status, body, _headers = self._request("GET", "/metrics")
        if status >= 400:
            raise ServiceError(f"GET /metrics failed ({status})")
        return body

    def submit(self, request: CompileRequest,
               honor_retry_after: bool = True) -> dict:
        """Submit one compile; returns ``{id, state, coalesced, key, ...}``.

        Stamps a fresh idempotency key onto the request when the caller
        did not set one, which is what makes the transport retry of this
        POST safe.  503 shed responses are waited out for the server's
        ``Retry-After`` hint (bounded by the retry policy's attempts and
        ``MAX_RETRY_AFTER_S``) unless ``honor_retry_after=False``.
        """
        if request.idempotency_key is None:
            request = replace(request, idempotency_key=uuid.uuid4().hex)
        payload = request.to_dict()
        sheds = self.retry.attempts if honor_retry_after else 0
        for attempt in range(sheds + 1):
            try:
                return self._request_json(
                    "POST", "/compile", payload,
                    idempotent=bool(request.idempotency_key),
                )
            except (CircuitOpenError, QueueFullError) as exc:
                # A hint past the cap (a breaker deep in cooldown) means
                # waiting it out is pointless: fail fast to the caller.
                if attempt >= sheds or exc.retry_after_s > MAX_RETRY_AFTER_S:
                    raise
                self.stats["shed_retries"] += 1
                time.sleep(max(0.0, exc.retry_after_s))
        raise AssertionError("unreachable")

    def status(self, job_id: str, wait: float = 0.0) -> JobView:
        """The job's view; with ``wait`` > 0 the server holds the reply
        until the job is terminal or ``wait`` seconds pass (long-poll,
        clamped to :data:`~repro.service.protocol.MAX_WAIT_S`)."""
        path = f"/jobs/{job_id}"
        if wait > 0:
            path += f"?wait={wait:.3f}"
        return JobView.from_dict(
            self._request_json("GET", path, wait_s=wait)
        )

    def trace(self, job_id: str) -> dict | None:
        """The job's serialized span tree (``GET /jobs/<id>?trace=1``).

        ``None`` when the job was submitted without ``trace=True`` or has
        not finished compiling yet.
        """
        reply = self._request_json("GET", f"/jobs/{job_id}?trace=1")
        return reply.get("trace")

    def cancel(self, job_id: str) -> bool:
        reply = self._request_json("POST", f"/jobs/{job_id}/cancel")
        return bool(reply.get("cancelled"))

    def wait(self, job_id: str, timeout: float | None = None) -> JobView:
        """Block until the job is terminal: each long-poll returns the
        moment the job finishes, or after one window."""
        deadline = time.monotonic() + timeout if timeout is not None else None
        while True:
            window = MAX_WAIT_S
            if deadline is not None:
                window = min(window, max(0.0, deadline - time.monotonic()))
            view = self.status(job_id, wait=window)
            if view.terminal:
                return view
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out waiting for job {job_id} "
                    f"(last state: {view.state})"
                )

    def compile(self, request: CompileRequest,
                timeout: float | None = None) -> JobView:
        """Submit and block until terminal; the one-call serving path."""
        submitted = self.submit(request)
        return self.wait(submitted["id"], timeout=timeout)

    def shutdown(self) -> dict:
        """Ask the server to drain and stop."""
        return self._request_json("POST", "/shutdown")
