"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
import threading

import pytest

from repro.ir.interp import BufferView, Environment
from repro.types import U8, U16


def env_with(name="in", data=None, elem=U8, origin=8, extra=None):
    """A small environment with one (or more) buffers for interp tests."""
    data = data if data is not None else list(range(64))
    buffers = {name: BufferView(data, elem, origin)}
    for other_name, (other_data, other_elem, other_origin) in (extra or {}).items():
        buffers[other_name] = BufferView(other_data, other_elem, other_origin)
    return Environment(buffers=buffers)


@pytest.fixture
def small_env():
    return env_with()


@pytest.fixture
def oracle():
    from repro.synthesis.oracle import Oracle

    return Oracle()


@pytest.fixture
def held_server():
    """A stub-compile server whose only worker is paused: jobs stay
    queued until the test resumes ``held_server.scheduler``."""
    from repro.service import CompileServer
    from repro.service.protocol import CompileResult

    def quick_compile(request, cancel, cache):
        return CompileResult(workload=request.workload,
                             backend=request.backend, total_cycles=1)

    server = CompileServer(workers=1, quiet=True, grace_s=0.0,
                           compile_fn=quick_compile).start()
    server.scheduler.pause()
    yield server
    server.shutdown()


@pytest.fixture
def truncating_server():
    """A stub HTTP daemon whose replies to ``GET`` are cut off mid-body.

    Any ``POST`` is admitted as the queued job ``stub-job``; every
    ``GET`` gets headers promising 500 body bytes, 7 of them, and a
    closed connection.  Yields the stub's base URL.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    from repro.service.protocol import PROTOCOL_VERSION

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args):  # noqa: A002
            pass

        def do_POST(self):  # noqa: N802 - stdlib naming
            self.rfile.read(int(self.headers.get("Content-Length") or 0))
            body = json.dumps({
                "v": PROTOCOL_VERSION, "id": "stub-job", "state": "queued",
                "coalesced": False, "idempotent": False, "key": "",
                "node_id": "stub",
            }).encode()
            self.send_response(202)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):  # noqa: N802 - stdlib naming
            self.wfile.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: 500\r\n\r\n" + b'{"v": 4'
            )
            self.close_connection = True

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
