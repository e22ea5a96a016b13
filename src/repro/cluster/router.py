"""The cluster router: one front door over N worker daemons.

The router speaks the **same wire API** as a single ``repro serve``
worker — ``POST /compile``, ``GET /jobs/<id>``, cancel, ``/healthz``,
``/metrics``, ``/shutdown`` — so the existing
:class:`~repro.service.client.ServiceClient` drives a cluster without
changing a line.  What it adds underneath:

* **Consistent-hash sharding** — submissions are placed on a hash ring
  (virtual nodes for balance) keyed by the same canonical coalescing key
  (:func:`~repro.service.coalesce.request_key`) the single-node
  scheduler deduplicates on.  Identical requests therefore land on the
  same worker and coalesce there exactly as on one server; the ring only
  moves ~1/N of keys when a node dies.
* **Health-gated dispatch** — a background probe loop (``worker.health``
  fault site) and a per-node circuit breaker (fed by dispatch outcomes)
  decide eligibility; the ring walk skips ineligible nodes, so a dead
  node costs one hop, not an error.
* **Failover re-dispatch** — when the node owning a job stops answering
  status reads (or dies holding a long-poll ``GET /jobs/<id>?wait=S``),
  the router re-submits the original request to the next eligible node
  *with the same idempotency key* and the job's remaining deadline
  budget, then aliases the public job id onto the replacement.
  Compiles are deterministic pure functions of the request, so a replay
  returns the byte-identical selection the dead node would have; the
  idempotency key makes the replay additionally safe against the racy
  case where the "dead" node actually admitted the job and a later
  retry lands on it again.
* **Deadline budgets across hops** — ``deadline_s`` is anchored at
  router admission; a failover re-dispatch forwards only the remaining
  budget, and a job whose budget is exhausted mid-failover is answered
  as ``timeout`` without another hop.

The router holds no compile state — only the job table mapping public
ids to ``(node, current id, payload, deadline)`` — so it restarts
cheaply; jobs survive on the workers.

``repro serve-cluster`` builds a :class:`ClusterRouter` from its flags
and runs it through the start-up every daemon shares (``repro.cli``).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import threading
import time
import uuid
from collections import deque
from dataclasses import replace
from urllib.parse import urlsplit

from .. import faults
from ..errors import NoHealthyNodeError, ProtocolError
from ..service.client import connect, exchange
from ..service.coalesce import request_key
from ..service.metrics import MetricsRegistry
from ..service.protocol import (
    JOB_TIMEOUT,
    PROTOCOL_VERSION,
    CompileRequest,
    parse_wait,
)
from ..service.server import DaemonHTTPServer, JsonHandler
from ..trace.log import get_logger
from .membership import WorkerNode

_log = get_logger("repro.cluster.router")

#: virtual nodes per worker on the hash ring — enough for <10% imbalance
#: at small N without making ring construction measurable
VNODES = 64

#: timeout for one router → worker hop (forwards, proxies, probes); the
#: worker answers submissions and status reads from memory, so slow means
#: sick.  A long-poll's hop gets its window on top.
HOP_TIMEOUT_S = 5.0

#: idle keep-alive connections kept per worker node; more concurrent hops
#: than this open extra connections that are closed after use
IDLE_CONNECTIONS_PER_NODE = 8

#: Retry-After hint when no node is eligible — probes run on this order
NO_NODE_RETRY_AFTER_S = 1.0

#: the routed-by stamp travels in a header so the worker can record it
#: without the request body changing shape
ROUTED_BY_HEADER = "X-Repro-Routed-By"


class _Ring:
    """A consistent-hash ring over a fixed node set."""

    def __init__(self, nodes: list[WorkerNode], vnodes: int = VNODES):
        points: list[tuple[int, WorkerNode]] = []
        for node in nodes:
            for i in range(vnodes):
                digest = hashlib.sha256(
                    f"{node.node_id}#{i}".encode()
                ).digest()
                points.append((int.from_bytes(digest[:8], "big"), node))
        points.sort(key=lambda p: p[0])
        self._hashes = [p[0] for p in points]
        self._nodes = [p[1] for p in points]

    def walk(self, key: str):
        """Distinct nodes in ring order from the key's hash point — the
        first is the key's home, the rest its failover order."""
        point = int.from_bytes(
            hashlib.sha256(key.encode()).digest()[:8], "big"
        )
        start = bisect.bisect_left(self._hashes, point) % len(self._hashes)
        seen = set()
        for i in range(len(self._nodes)):
            node = self._nodes[(start + i) % len(self._nodes)]
            if id(node) not in seen:
                seen.add(id(node))
                yield node


class _RoutedJob:
    """Router-side record of one accepted job."""

    __slots__ = ("public_id", "current_id", "node", "payload",
                 "idempotency_key", "deadline_mono", "failovers")

    def __init__(self, public_id: str, node: WorkerNode, payload: dict,
                 idempotency_key: str, deadline_mono: float | None):
        self.public_id = public_id
        self.current_id = public_id
        self.node = node
        self.payload = payload
        self.idempotency_key = idempotency_key
        self.deadline_mono = deadline_mono
        self.failovers = 0


class _RouterHandler(JsonHandler):
    """Routes one HTTP exchange to the owning :class:`ClusterRouter`."""

    router: "ClusterRouter" = None  # patched per router instance

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.router.quiet:
            super().log_message(format, *args)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self._send_json(200, self.router.health())
            elif parts == ["metrics"]:
                if "format=json" in (url.query or ""):
                    self._send_json(200, self.router.metrics.as_dict())
                else:
                    self._send_text(200, self.router.metrics.render_text())
            elif len(parts) == 2 and parts[0] == "jobs":
                status, payload = self.router.job_status(
                    parts[1], query=url.query
                )
                self._send_json(status, payload)
            else:
                self._send_json(404, {"error": f"no route GET {url.path}"})
        except ProtocolError as exc:
            self._send_json(400, {"error": str(exc)})
        except NoHealthyNodeError as exc:
            self._shed(exc)
        except Exception as exc:  # never kill the connection thread
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            body = self._read_json()
            if parts == ["compile"]:
                status, payload, headers = self.router.submit(body)
                self._send_json(status, payload, headers=headers)
            elif (len(parts) == 3 and parts[0] == "jobs"
                    and parts[2] == "cancel"):
                status, payload = self.router.cancel(parts[1])
                self._send_json(status, payload)
            elif parts == ["shutdown"]:
                self._send_json(200, {"draining": True})
                self.wfile.flush()  # before the shutdown closes the socket
                self.router.request_shutdown()
            else:
                self._send_json(404, {"error": f"no route POST {url.path}"})
        except ProtocolError as exc:
            self._send_json(400, {"error": str(exc)})
        except NoHealthyNodeError as exc:
            self._shed(exc)
        except Exception as exc:
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _shed(self, exc: Exception) -> None:
        self._send_json(
            503,
            {"error": str(exc), "retry": True,
             "retry_after_s": NO_NODE_RETRY_AFTER_S},
            headers={"Retry-After": str(int(NO_NODE_RETRY_AFTER_S))},
        )


class ClusterRouter:
    """The front-end daemon; construct with worker base URLs.

    ``nodes`` maps node ids to worker base URLs (or is a plain list of
    URLs, in which case ids ``node-0..n-1`` are minted in order — the
    order then *is* the ring identity, so keep it stable across router
    restarts).  ``port=0`` binds an ephemeral port.
    """

    def __init__(
        self,
        nodes,
        host: str = "127.0.0.1",
        port: int = 0,
        router_id: str = "router",
        health_interval_s: float = 0.5,
        quiet: bool = True,
        hop_timeout_s: float = HOP_TIMEOUT_S,
    ):
        if isinstance(nodes, dict):
            items = list(nodes.items())
        else:
            items = [(f"node-{i}", url) for i, url in enumerate(nodes)]
        if not items:
            raise ValueError("cluster router needs at least one worker node")
        self.nodes = [
            WorkerNode(node_id=node_id, url=url.rstrip("/"))
            for node_id, url in items
        ]
        self.router_id = router_id
        self.quiet = quiet
        self.hop_timeout_s = hop_timeout_s
        self.health_interval_s = health_interval_s
        self._ring = _Ring(self.nodes)
        # Forwards, status hops and probes share each node's idle
        # keep-alive connections.
        self._idle = {node.node_id: deque() for node in self.nodes}
        self._jobs: dict[str, _RoutedJob] = {}
        self._jobs_lock = threading.Lock()
        self.metrics = MetricsRegistry()
        self._init_metrics()
        self.started_mono = time.monotonic()
        handler = type("BoundRouterHandler", (_RouterHandler,),
                       {"router": self})
        self._httpd = DaemonHTTPServer((host, port), handler)
        self._serve_thread: threading.Thread | None = None
        self._probe_stop = threading.Event()
        self._probe_thread: threading.Thread | None = None
        self._shutdown_lock = threading.Lock()
        self._shutting_down = False

    def _init_metrics(self) -> None:
        m = self.metrics
        m.gauge("repro_router_nodes", "worker nodes configured").set(
            len(self.nodes)
        )
        m.gauge("repro_router_nodes_eligible",
                "worker nodes currently eligible for dispatch").set(
            len(self.nodes)
        )
        for name, help_text in (
            ("repro_router_forwards_total",
             "submissions forwarded to a worker node"),
            ("repro_router_forward_errors_total",
             "forward attempts that failed and moved on down the ring"),
            ("repro_router_failovers_total",
             "jobs re-dispatched off a dead node"),
            ("repro_router_sheds_total",
             "requests shed because no node was eligible"),
            ("repro_router_deadline_exhausted_total",
             "jobs answered as timeout because the deadline budget ran "
             "out during failover"),
            ("repro_router_health_probes_total",
             "health probes by node and outcome"),
        ):
            m.counter(name, help_text)

    # -- addresses ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- one router → worker hop -------------------------------------------

    def _hop(self, node: WorkerNode, method: str, path: str,
             payload: dict | None = None, wait_s: float = 0.0):
        """One HTTP exchange with a worker over one of its pooled
        connections; returns ``(status, dict)``.

        ``wait_s`` extends the hop timeout by a long-poll window.
        Transport failures, a reply cut off mid-body included, raise
        ``OSError`` — the caller owns marking the node and walking on.
        """
        data = json.dumps(payload).encode() if payload is not None else None
        headers = {ROUTED_BY_HEADER: self.router_id}
        if data:
            headers["Content-Type"] = "application/json"
        idle = self._idle[node.node_id]
        try:
            conn = idle.pop()
        except IndexError:
            conn = connect(node.url)
        try:
            status, body, _ = exchange(
                conn, method, path, data, headers, self.hop_timeout_s + wait_s,
            )
        except OSError as exc:
            raise OSError(f"node {node.node_id} unreachable: {exc}") from exc
        if len(idle) < IDLE_CONNECTIONS_PER_NODE:
            idle.append(conn)
        else:
            conn.close()
        try:
            decoded = json.loads(body) if body else {}
        except ValueError:
            decoded = {"error": "worker returned invalid JSON"}
        return status, decoded

    # -- submission --------------------------------------------------------

    def submit(self, body: dict):
        """Route one ``POST /compile``; returns ``(status, payload,
        headers)`` ready to send."""
        from ..workloads.base import names

        request = CompileRequest.from_dict(body)
        request.validate(known_workloads=names())
        if request.idempotency_key is None:
            # The router mints the key when the client did not: failover
            # re-dispatch depends on every routed job having one.
            request = replace(request, idempotency_key=uuid.uuid4().hex)
        key = request_key(request)
        payload = request.to_dict()
        deadline_mono = (
            time.monotonic() + request.deadline_s
            if request.deadline_s is not None else None
        )
        last_error = "no eligible worker node"
        for node in self._ring.walk(key):
            if not node.eligible():
                continue
            try:
                faults.fire(faults.SITE_ROUTER_FORWARD)
                status, reply = self._hop(node, "POST", "/compile", payload)
            except Exception as exc:
                node.dispatch_failed()
                if isinstance(exc, OSError):
                    node.mark_dead()
                self.metrics.counter(
                    "repro_router_forward_errors_total"
                ).inc()
                self._refresh_eligible_gauge()
                last_error = str(exc)
                _log.warning("forward failed; walking ring",
                             node=node.node_id, error=last_error)
                continue
            if status == 202:
                node.dispatch_ok()
                job = _RoutedJob(
                    public_id=reply["id"], node=node, payload=payload,
                    idempotency_key=request.idempotency_key,
                    deadline_mono=deadline_mono,
                )
                with self._jobs_lock:
                    self._jobs[job.public_id] = job
                self.metrics.counter(
                    "repro_router_forwards_total",
                    "submissions forwarded to a worker node",
                    labels={"node": node.node_id},
                ).inc()
                reply["routed_by"] = self.router_id
                return 202, reply, None
            # The node answered: it is alive. 503s (shed/full) and 4xxs
            # are the *request's* problem, not the node's — propagate
            # rather than spraying the same request down the ring.
            node.dispatch_ok()
            headers = None
            if status == 503:
                retry_after = reply.get("retry_after_s", 1.0)
                try:
                    headers = {"Retry-After":
                               str(max(1, int(float(retry_after))))}
                except (TypeError, ValueError):
                    headers = {"Retry-After": "1"}
            return status, reply, headers
        self.metrics.counter("repro_router_sheds_total").inc()
        raise NoHealthyNodeError(
            f"no healthy worker node to dispatch to ({last_error})"
        )

    # -- status + failover -------------------------------------------------

    def job_status(self, public_id: str, query: str | None = None):
        """``GET /jobs/<id>`` with failover; returns ``(status, dict)``.

        A long-poll (``?wait=S``) is forwarded as is, on a hop whose
        timeout is extended by S; a node that dies while holding it is
        failed over like one that stops answering.
        """
        wait_s = parse_wait(query)
        with self._jobs_lock:
            job = self._jobs.get(public_id)
        if job is None:
            return 404, {"error": f"unknown job {public_id}"}
        suffix = f"?{query}" if query else ""
        try:
            status, reply = self._hop(
                job.node, "GET", f"/jobs/{job.current_id}{suffix}",
                wait_s=wait_s,
            )
        except OSError:
            job.node.dispatch_failed()
            job.node.mark_dead()
            self._refresh_eligible_gauge()
            return self._failover(job, suffix, wait_s)
        if status == 200:
            job.node.dispatch_ok()
            reply["id"] = job.public_id
            return 200, reply
        if status == 404:
            # The node answers but no longer knows the job: it restarted
            # and lost its in-memory table. Same cure as a dead node.
            _log.warning("node lost job; failing over",
                         node=job.node.node_id, job=job.public_id)
            return self._failover(job, suffix, wait_s)
        return status, reply

    def _failover(self, job: _RoutedJob, suffix: str, wait_s: float):
        """Re-dispatch one stranded job and answer the status read that
        found it stranded."""
        remaining = None
        if job.deadline_mono is not None:
            remaining = job.deadline_mono - time.monotonic()
            if remaining <= 0:
                self.metrics.counter(
                    "repro_router_deadline_exhausted_total"
                ).inc()
                return 200, self._timeout_view(job)
        payload = dict(job.payload)
        if remaining is not None:
            payload["deadline_s"] = remaining
        dead = job.node
        for node in self._ring.walk(request_key(
            CompileRequest.from_dict(job.payload)
        )):
            if node is dead or not node.eligible():
                continue
            try:
                faults.fire(faults.SITE_ROUTER_FORWARD)
                status, reply = self._hop(node, "POST", "/compile", payload)
            except Exception as exc:
                node.dispatch_failed()
                if isinstance(exc, OSError):
                    node.mark_dead()
                self._refresh_eligible_gauge()
                _log.warning("failover forward failed; walking ring",
                             node=node.node_id, error=str(exc))
                continue
            if status != 202:
                # An answering node that refuses (full queue) is healthy;
                # surface the refusal to the poller, who will poll again.
                node.dispatch_ok()
                return status, reply
            node.dispatch_ok()
            job.node = node
            job.current_id = reply["id"]
            job.failovers += 1
            self.metrics.counter("repro_router_failovers_total").inc()
            _log.warning("job failed over", job=job.public_id,
                         from_node=dead.node_id, to_node=node.node_id,
                         failovers=job.failovers)
            status, reply = self._hop(
                node, "GET", f"/jobs/{job.current_id}{suffix}",
                wait_s=wait_s,
            )
            if status == 200:
                reply["id"] = job.public_id
            return status, reply
        self.metrics.counter("repro_router_sheds_total").inc()
        raise NoHealthyNodeError(
            f"job {job.public_id} stranded on dead node "
            f"{dead.node_id} and no eligible node remains"
        )

    def _timeout_view(self, job: _RoutedJob) -> dict:
        """A synthesized terminal view for a job whose deadline budget
        ran out while stranded — no worker ever answers for it again."""
        return {
            "v": PROTOCOL_VERSION,
            "id": job.public_id,
            "state": JOB_TIMEOUT,
            "request": dict(job.payload),
            "key": "",
            "submitted_at": 0.0,
            "started_at": None,
            "finished_at": None,
            "wait_s": None,
            "run_s": None,
            "coalesced_waiters": 0,
            "error": ("deadline exhausted while failing over off dead "
                      f"node {job.node.node_id}"),
            "result": None,
            "trace_id": None,
            "degraded": False,
            "node_id": None,
            "routed_by": self.router_id,
        }

    # -- cancel ------------------------------------------------------------

    def cancel(self, public_id: str):
        with self._jobs_lock:
            job = self._jobs.get(public_id)
        if job is None:
            return 404, {"error": f"unknown job {public_id}"}
        try:
            status, reply = self._hop(
                job.node, "POST", f"/jobs/{job.current_id}/cancel"
            )
        except OSError:
            # A job on a dead node is not running anywhere: cancelled in
            # the only sense that matters. Drop the table entry so a
            # later poll does not resurrect it through failover.
            with self._jobs_lock:
                self._jobs.pop(public_id, None)
            return 200, {"id": public_id, "cancelled": True}
        if status == 200:
            reply["id"] = public_id
        return status, reply

    # -- health ------------------------------------------------------------

    def health(self) -> dict:
        snapshots = [node.snapshot() for node in self.nodes]
        return {
            "status": "draining" if self._shutting_down else "ok",
            "role": "router",
            "router_id": self.router_id,
            "v": PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self.started_mono, 3),
            "nodes": snapshots,
            "eligible_nodes": sum(
                1 for node in self.nodes
                if node.alive and node.breaker.state != "open"
            ),
            "jobs_routed": len(self._jobs),
        }

    def _refresh_eligible_gauge(self) -> None:
        self.metrics.gauge("repro_router_nodes_eligible").set(sum(
            1 for node in self.nodes
            if node.alive and node.breaker.state != "open"
        ))

    def probe_all(self) -> None:
        """One health-probe sweep over every node (the loop body; tests
        call it directly for determinism)."""
        for node in self.nodes:
            try:
                faults.fire(faults.SITE_WORKER_HEALTH)
                status, reply = self._hop(node, "GET", "/healthz")
                ok = status == 200 and reply.get("status") in (
                    "ok", "draining"
                )
            except Exception:
                ok = False
            if ok:
                was_down = not node.alive
                node.probe_ok()
                if was_down:
                    _log.info("node recovered", node=node.node_id)
            elif node.probe_failed():
                _log.warning("node marked down", node=node.node_id)
            self.metrics.counter(
                "repro_router_health_probes_total",
                "health probes by node and outcome",
                labels={"node": node.node_id,
                        "ok": "true" if ok else "false"},
            ).inc()
        self._refresh_eligible_gauge()

    def _probe_loop(self) -> None:
        while not self._probe_stop.wait(self.health_interval_s):
            self.probe_all()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ClusterRouter":
        """Serve + probe on background threads; returns self."""
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-router",
            daemon=True,
        )
        self._serve_thread.start()
        self._probe_thread = threading.Thread(
            target=self._probe_loop, name="repro-router-probe", daemon=True
        )
        self._probe_thread.start()
        return self

    def serve_forever(self) -> None:
        self._probe_thread = threading.Thread(
            target=self._probe_loop, name="repro-router-probe", daemon=True
        )
        self._probe_thread.start()
        self._httpd.serve_forever()

    def request_shutdown(self) -> None:
        threading.Thread(
            target=self.shutdown, name="repro-router-shutdown", daemon=True
        ).start()

    def shutdown(self) -> None:
        """Stop probing and the HTTP loop. Workers are not touched: jobs
        in flight on them finish and remain pollable node-direct."""
        with self._shutdown_lock:
            if self._shutting_down:
                return
            self._shutting_down = True
        self._probe_stop.set()
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=5.0)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        for idle in self._idle.values():
            while idle:
                idle.pop().close()

