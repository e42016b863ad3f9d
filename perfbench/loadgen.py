"""The load generator: one process, one thread and one persistent
keep-alive connection per stream, at most ``nproc`` of each.

The calling thread drives connection 0 itself, so a run with ``n``
connections uses exactly ``n`` threads.  Connections are never
re-opened between requests: reconnecting per request would hide the
keep-alive stall this benchmark must expose (NOTES.md).  A connection
is only replaced after a transport error, which counts as a failure.

Open loop: connection ``c`` sends request ``k`` at its due time
``t0 + c*interval/n + k*interval`` (or at once, when late), and latency
is timed from the due time, so a stall also charges the requests
queued behind it.  Closed loop: each connection sends its next request
as soon as the previous one completes, until the deadline.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

from workloads import Request

#: Per-request socket timeout; a timeout counts as a failed request.
REQUEST_TIMEOUT_S = 30.0


def max_connections() -> int:
    """The generator's thread and connection budget: ``nproc``."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


@dataclass
class Result:
    """One request as the client saw it (times from ``perf_counter``)."""

    request: Request
    phase: str
    conn: int
    due: Optional[float]
    sent: float
    done: float
    status: int
    body: Optional[dict]
    trace_id: Optional[str]
    error: Optional[str] = None
    #: 200 and, once checked, the answer the replica expects
    ok: bool = False

    @property
    def latency_s(self) -> float:
        """From the due time (open loop) or the send time (otherwise)."""
        start = self.sent if self.due is None else self.due
        return self.done - start

    @property
    def service_s(self) -> float:
        return self.done - self.sent

    @property
    def lag_s(self) -> float:
        return 0.0 if self.due is None else max(0.0, self.sent - self.due)


class Connection:
    """One persistent HTTP/1.1 connection to the server."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def send(self, request: Request):
        """``(status, body, trace_id, error)``; status 0 on transport errors."""
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=REQUEST_TIMEOUT_S
                )
            self._conn.request("GET", request.path)
            response = self._conn.getresponse()
            raw = response.read()
            trace_id = response.getheader("X-Repro-Trace-Id")
            if response.status != 200:
                return response.status, None, trace_id, raw.decode("utf-8", "replace").strip()
            return 200, json.loads(raw), trace_id, None
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.close()
            return 0, None, None, f"{type(exc).__name__}: {exc}"

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def fan_out(count: int, work: Callable[[int], None]) -> None:
    """Run ``work(i)`` for ``i < count``: ``i = 0`` on the calling
    thread, the others on ``count - 1`` threads named ``loadgen-i``."""
    errors: List[BaseException] = []

    def guarded(index: int) -> None:
        try:
            work(index)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(i,), name=f"loadgen-{i}", daemon=True)
        for i in range(1, count)
    ]
    for thread in threads:
        thread.start()
    guarded(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def run_list(
    conns: Sequence[Connection], requests: Sequence[Sequence[Request]], phase: str
) -> List[Result]:
    """Send each connection's finite list back to back (set-up)."""
    results: List[List[Result]] = [[] for _ in conns]

    def work(c: int) -> None:
        for request in requests[c]:
            results[c].append(_send(conns[c], c, request, phase, None))

    fan_out(len(conns), work)
    return [r for per_conn in results for r in per_conn]


def run_open(
    conns: Sequence[Connection],
    streams: Sequence[Iterator[Request]],
    phase: str,
    interval_s: float,
    per_conn: int,
) -> List[Result]:
    """Open loop: ``per_conn`` requests per connection at fixed due times."""
    results: List[List[Result]] = [[] for _ in conns]
    n = len(conns)
    t0 = time.perf_counter() + 0.01

    def work(c: int) -> None:
        first = t0 + c * interval_s / n
        for k in range(per_conn):
            due = first + k * interval_s
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            results[c].append(_send(conns[c], c, next(streams[c]), phase, due))

    fan_out(n, work)
    return [r for per_conn in results for r in per_conn]


def run_closed(
    conns: Sequence[Connection],
    streams: Sequence[Iterator[Request]],
    phase: str,
    seconds: float,
):
    """Closed loop until ``seconds`` pass; returns ``(results, elapsed_s)``."""
    results: List[List[Result]] = [[] for _ in conns]
    t0 = time.perf_counter()
    deadline = t0 + seconds

    def work(c: int) -> None:
        while time.perf_counter() < deadline:
            results[c].append(_send(conns[c], c, next(streams[c]), phase, None))

    fan_out(len(conns), work)
    elapsed = time.perf_counter() - t0
    return [r for per_conn in results for r in per_conn], elapsed


def _send(
    conn: Connection, index: int, request: Request, phase: str, due: Optional[float]
) -> Result:
    sent = time.perf_counter()
    status, body, trace_id, error = conn.send(request)
    done = time.perf_counter()
    return Result(
        request, phase, index, due, sent, done, status, body, trace_id, error, status == 200
    )
