"""The served workload: two ``repro serve --rules --cache-tier`` workers
behind ``repro serve-cluster``, with a ``repro cache-server`` tier.

Every daemon is a subprocess started through ``daemon.py`` with the
global ``--log-level warning`` (the scheduler logs each job at info
level, and that stderr I/O would land in served latency) and ``--quiet``
where the command has it (access logs).

One client sends the timed requests and runs the host-speed calibration
before each, while no request is in flight, so served times are scaled
like the in-process workloads' (see the README).
"""

from __future__ import annotations

import itertools
import shutil
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

import common
import inproc

#: most requests one timed phase sends: whole rounds of the 42 pairs, and
#: fewer than the 1000 samples at which the tail would move to p99, so a
#: faster host cannot change which percentile the tail reports
MAX_TIMED_REQUESTS = 23 * 42

#: one served request may take this long before it counts as timed out
REQUEST_TIMEOUT_S = 120.0

#: daemons must publish their port within this many seconds
BOOT_TIMEOUT_S = 60.0


class Daemon:
    """One daemon subprocess started through the benchmark's launcher."""

    def __init__(self, name: str, args: list, run_dir: Path,
                 spans_out: Path | None = None):
        self.name = name
        self.port_file = run_dir / f"{name}.port"
        launcher = [sys.executable, str(common.BENCH / "daemon.py")]
        if spans_out is not None:
            launcher += ["--spans-out", str(spans_out)]
        argv = launcher + ["--", "--log-level", "warning"] + args + [
            "--port", "0", "--port-file", str(self.port_file)]
        self._log = open(run_dir / f"{name}.log", "wb")
        self.proc = subprocess.Popen(
            argv, stdout=self._log, stderr=subprocess.STDOUT,
            env=common.child_env(run_dir), cwd=str(common.ROOT),
        )
        self._address = None

    def address(self) -> tuple:
        if self._address is None:
            deadline = time.monotonic() + BOOT_TIMEOUT_S
            while time.monotonic() < deadline:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"{self.name} exited during boot")
                try:
                    # the CLI probes the path (creating and removing it)
                    # before it binds, so the file may come and go
                    parts = self.port_file.read_text().split()
                except FileNotFoundError:
                    parts = []
                if len(parts) == 2:
                    self._address = (parts[0], int(parts[1]))
                    break
                time.sleep(0.02)
            else:
                raise RuntimeError(f"{self.name} did not publish a port")
        return self._address

    @property
    def url(self) -> str:
        host, port = self.address()
        return f"http://{host}:{port}"

    @property
    def endpoint(self) -> str:
        host, port = self.address()
        return f"{host}:{port}"

    def peak_rss_mb(self) -> float:
        return common.vm_hwm_mb(self.proc.pid)

    def stop(self, how: str = "http", timeout: float = 60.0) -> None:
        """Shut down gracefully (``POST /shutdown`` or SIGTERM), wait for
        the exit, and kill a daemon that does not stop in ``timeout``."""
        if self.proc.poll() is None:
            try:
                if how == "http":
                    from repro.service.client import ServiceClient

                    ServiceClient(self.url, timeout=10).shutdown()
                else:
                    self.proc.send_signal(signal.SIGTERM)
                self.proc.wait(timeout=timeout)
            except Exception:
                pass
        self.kill()

    def kill(self) -> None:
        """Kill the process if it still runs, reap it, close its log."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


def _mint() -> str:
    return uuid.uuid4().hex


def _request(kernel, target, key):
    from repro.service.protocol import CompileRequest

    return CompileRequest(workload=kernel, target=target, rules=True,
                          idempotency_key=key)


def served_request(client, kernel, target, recorder=None):
    """One served request, ``ServiceClient.submit`` to a terminal view."""
    rid = _mint()
    if recorder is not None:
        recorder.set_request(rid)
    start = time.monotonic()
    view, submitted, error = None, None, None
    try:
        submitted = client.submit(_request(kernel, target, rid))
        view = client.wait(submitted["id"], timeout=REQUEST_TIMEOUT_S)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if recorder is not None:
            recorder.set_request(None)
    end = time.monotonic()
    rec = {"pair": [kernel, target], "rid": rid, "start": start,
           "end": end, "error": error}
    if view is not None:
        rec.update(state=view.state, wait_s=view.wait_s, run_s=view.run_s,
                   node=view.node_id,
                   coalesced=bool(submitted.get("coalesced")))
        if view.state != "done":
            rec["error"] = f"job {view.state}: {view.error}"
        elif view.degraded:
            rec["error"] = "degraded"
        if view.result is not None:
            result = view.result
            rec.update(
                cycles=result.total_cycles,
                counts=inproc.counts_of(result.stats),
                stage_s=inproc.stage_seconds(result.stats),
                fallbacks=result.fallbacks,
                selection=[[p["stage"], p["selector"], p["listing"]]
                           for p in result.programs],
            )
    return rec


def closed_loop(url, pairs, deadline=None, recorder=None,
                calibrate=False):
    """One client in this thread, sending each request only after the
    previous one finished, until ``pairs`` ends or ``deadline``.  With
    ``calibrate``, a :func:`common.calibrate` run precedes each request
    (``calib_s``); no request is in flight while it runs."""
    from repro.service.client import ServiceClient

    client = ServiceClient(url, timeout=60)
    records = []
    for pair in pairs:
        if deadline is not None and time.monotonic() >= deadline:
            break
        calib_s = common.calibrate() if calibrate else None
        records.append(served_request(client, *pair, recorder=recorder))
        records[-1]["calib_s"] = calib_s
    return records, sum(client.stats.values())


def _metrics(url) -> dict:
    from repro.service.client import ServiceClient

    return ServiceClient(url, timeout=30).metrics()


def _counter(snapshot: dict, name: str) -> float:
    """A counter family's value, summed over its label sets."""
    return sum(value for key, value in snapshot.items()
               if key == name or key.startswith(name + "{"))


SERVED_COUNTERS = ("repro_rule_hits_total", "repro_oracle_cache_misses_total",
                   "repro_jobs_coalesced_total")
ROUTER_COUNTERS = ("repro_router_forwards_total",
                   "repro_router_failovers_total")


class Deployment:
    """The daemons of the served workload, booted and torn down together:
    a cache tier, two ``serve --rules --cache-tier`` workers and a
    ``serve-cluster`` router in front of them.  Every worker starts from
    a copy of the ``filled`` store and rule libraries.
    """

    def __init__(self, run_dir: Path, spans_dir: Path | None, filled: Path):
        self.workers: dict = {}  # node id -> (Daemon, cache dir)
        self.daemons: list = []  # in start order
        self.span_files: list = []
        try:
            self._boot(run_dir, spans_dir, filled)
        except BaseException:
            self.kill()
            raise

    def _start(self, name, args, run_dir, spans_out=None) -> Daemon:
        daemon = Daemon(name, args, run_dir, spans_out)
        self.daemons.append(daemon)
        return daemon

    def _boot(self, run_dir, spans_dir, filled) -> None:
        self.tier = self._start("tier", ["cache-server"], run_dir)
        for node in ("node0", "node1"):
            cache_dir = run_dir / f"{node}-cache"
            shutil.copytree(filled, cache_dir)
            spans_out = (spans_dir / f"{node}.spans.jsonl"
                         if spans_dir is not None else None)
            if spans_out is not None:
                self.span_files.append(spans_out)
            args = ["serve", "--rules", "--cache-dir", str(cache_dir),
                    "--quiet", "--node-id", node,
                    "--cache-tier", self.tier.endpoint]
            self.workers[node] = (
                self._start(node, args, run_dir, spans_out), cache_dir)
        nodes = []
        for node, (daemon, _) in self.workers.items():
            nodes += ["--node", f"{node}={daemon.url}"]
        self.front = self._start(
            "router", ["serve-cluster", "--quiet"] + nodes, run_dir)

    def wait_ready(self) -> None:
        """Block until the front door answers and sees every node."""
        from repro.service.client import ServiceClient

        client = ServiceClient(self.front.url, timeout=10)
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                health = client.healthz()
            except Exception:
                health = {}
            if health.get("status") == "ok" and \
                    health.get("eligible_nodes") == len(self.workers):
                return
            time.sleep(0.05)
        raise RuntimeError("deployment did not become ready")

    def snapshot(self) -> dict:
        """Counters the per-layer ledger differences over the timed phase."""
        snap = {"served": {}, "router": {}, "tier": {}}
        for daemon, _ in self.workers.values():
            metrics = _metrics(daemon.url)
            for name in SERVED_COUNTERS:
                snap["served"][name] = snap["served"].get(name, 0) + \
                    _counter(metrics, name)
        metrics = _metrics(self.front.url)
        for name in ROUTER_COUNTERS:
            snap["router"][name] = _counter(metrics, name)
        from repro.cluster.cachetier import CacheTierClient

        tier = CacheTierClient(self.tier.endpoint, timeout=5)
        try:
            stats = tier.server_stats() or {}
        finally:
            tier.close()
        snap["tier"] = {k: stats.get(k, 0) for k in ("gets", "hits")}
        return snap

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the compiling processes (the workers)."""
        return sum(d.peak_rss_mb() for d, _ in self.workers.values())

    def stop(self) -> None:
        """Router first, then the workers (they drain and flush their
        stores and rule libraries), then the tier."""
        for daemon in reversed(self.daemons):
            daemon.stop("signal" if daemon.name == "tier" else "http")

    def kill(self) -> None:
        for daemon in self.daemons:
            daemon.kill()


def run_served(pairs: list, seed: int, seconds: float, run_dir: Path,
               spans_dir: Path | None, launch: float) -> dict:
    """Fill, boot, warm up, time, stop and check the deployment; with
    ``spans_dir``, trace it and write the spans there."""
    # Set-up: every pair compiled once, with rules, into one store that
    # each worker starts from; each target's rule library learns in the
    # same fixed order for every seed.
    calibs = common.calibrations()
    run_dir.mkdir(parents=True, exist_ok=True)
    filled = run_dir / "filled"
    fill_wall_s, fill_s = inproc.fill_store(pairs, filled, run_dir,
                                            rules=True)
    deployment = Deployment(run_dir, spans_dir, filled)
    recorder = None
    try:
        deployment.wait_ready()
        url = deployment.front.url
        warmup, _ = closed_loop(url, common.permutation(pairs, seed,
                                                        "warmup"))
        before = deployment.snapshot()
        if spans_dir is not None:
            import spans
            from repro.service.client import ServiceClient

            recorder = spans.Recorder()
            recorder.patch(ServiceClient, "submit", "service.submit")
            recorder.patch(ServiceClient, "status", "service.status")
        calibs += common.calibrations()
        timed_start = time.monotonic()
        setup_s = fill_s + common.host_scale(calibs) * (
            timed_start - launch - fill_wall_s - sum(calibs))
        stream = itertools.islice(common.request_stream(pairs, seed),
                                  MAX_TIMED_REQUESTS)
        try:
            records, retries = closed_loop(
                url, stream, deadline=timed_start + seconds,
                recorder=recorder, calibrate=True)
        finally:
            if recorder is not None:
                recorder.unpatch()
        records = common.scaled(records)
        after = deployment.snapshot()
        peak = deployment.peak_rss_mb()
    except BaseException:
        deployment.kill()
        raise
    deployment.stop()
    stores = {node: cache_dir
              for node, (_, cache_dir) in deployment.workers.items()}
    check_served(records, stores, seed)
    span_files = list(deployment.span_files)
    if recorder is not None:
        span_files.append(spans_dir / "client.spans.jsonl")
        recorder.write(span_files[-1])
    return {
        "setup_s": setup_s,
        "timed_s": common.busy_s(records),
        "host_scale": common.host_scale([r["calib_s"] for r in records]),
        "records": records,
        "setup_errors": [r["error"] for r in warmup if r["error"]],
        "peak_rss_mb": peak,
        "retries": retries,
        "before": before,
        "after": after,
        "span_files": span_files,
    }


def check_served(records: list, stores: dict, seed: int) -> None:
    """Each distinct served selection must equal an in-process compile of
    the pair against the serving node's flushed store and rule library,
    and that compile must pass the pixel check."""
    from repro.rules import RuleLibrary, rules_file
    from repro.synthesis.engine import OracleCache

    caches, libraries, verdicts = {}, {}, {}
    for rec in records:
        if rec.get("selection") is None or rec.get("node") is None:
            continue
        kernel, target = rec["pair"]
        node = rec["node"]
        key = (node, kernel, target, repr(rec["selection"]))
        if key not in verdicts:
            if node not in caches:
                caches[node] = OracleCache.with_disk(stores[node])
            if (node, target) not in libraries:
                libraries[node, target] = RuleLibrary(
                    rules_file(stores[node], target), target=target)
            compiled, _ = inproc.compile_request(
                kernel, target, cache=caches[node],
                rules=libraries[node, target])
            if inproc.selection_of(compiled) != rec["selection"]:
                verdicts[key] = ("served selection differs from an "
                                 "in-process compile on the node's store")
            else:
                verdicts[key] = inproc.pixel_check(kernel, target,
                                                   compiled, seed)
        if verdicts[key] is not None and rec["error"] is None:
            rec["error"] = f"output check: {verdicts[key]}"
