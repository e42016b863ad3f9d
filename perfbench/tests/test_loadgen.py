"""The load generator is deterministic, pins sessions, and stays
within ``nproc`` threads and connections.

Run with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import layers
import loadgen
import verify
from workloads import WORKLOADS, Request, render_schedule

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_schedule(name):
    workload = WORKLOADS[name]
    first = render_schedule(workload, 5, 2, 200)
    assert first == render_schedule(workload, 5, 2, 200)
    assert first != render_schedule(workload, 6, 2, 200)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("conns", [1, 2, 3])
def test_each_session_is_pinned_to_one_connection(name, conns):
    workload = WORKLOADS[name]
    owner = {}
    for conn, setup in enumerate(workload.setup_requests(3, conns)):
        for request in setup:
            assert owner.setdefault(request.session, conn) == conn
    for conn in range(conns):
        stream = workload.stream(3, conn, conns)
        for _ in range(500):
            request = next(stream)
            if request.session is not None:
                assert owner.setdefault(request.session, conn) == conn


def test_ingest_lifecycles_are_bounded_and_refetch():
    stream = WORKLOADS["ingest_durable"].stream(9, 0, 2)
    fetches = {}
    refetched = False
    for _ in range(2000):
        request = next(stream)
        if request.kind == "write":
            seen = fetches.setdefault(request.session, [])
            refetched = refetched or request.spec in seen
            seen.append(request.spec)
    assert max(len(specs) for specs in fetches.values()) <= 3
    assert refetched


class _Stub(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def do_GET(self):
        server = self.server
        with server.lock:
            server.peers.add(self.client_address)
            server.requests += 1
            server.max_threads = max(
                server.max_threads,
                1 + sum(t.name.startswith("loadgen-") for t in threading.enumerate()),
            )
        body = json.dumps({"ok": True}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Repro-Trace-Id", "t")
        self.end_headers()
        self.wfile.write(body)


def test_generator_stays_within_nproc_threads_and_keeps_connections_open():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.peers, server.requests, server.max_threads = set(), 0, 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        n = loadgen.max_connections()
        conns = [loadgen.Connection(*server.server_address[:2]) for _ in range(n)]
        streams = [iter(lambda: Request("read", "q1", "s"), None) for _ in range(n)]
        results = loadgen.run_open(conns, streams, "open", 0.01, 10)
        closed, elapsed = loadgen.run_closed(conns, streams, "closed", 0.3)
        for conn in conns:
            conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert all(r.ok for r in results + closed)
    assert len(results) == 10 * n and elapsed >= 0.3
    assert len(server.peers) == n
    assert server.requests == len(results) + len(closed)
    assert 1 <= server.max_threads <= n


def test_a_wrong_answer_is_caught():
    replica = verify.Replica()
    request = Request("read", "q1", "demo")
    sure, more, version = replica.read("demo", "q1")
    good = {"sure_nodes": len(sure), "may_have_more": more, "queries_recorded": version}
    result = loadgen.Result(request, "open", 0, None, 0.0, 0.001, 200, good, "t", ok=True)
    assert verify.check(replica, result) is None
    result.body = dict(good, sure_nodes=len(sure) + 1)
    assert verify.check(replica, result) is not None


def test_benchmark_json_names_every_workload_and_layer():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert contract["per_layer"] == layers.per_layer_catalogue()
