"""Span recording for the traced run, from outside the program.

:func:`install` replaces public functions of each layer with timing
wrappers, at the place the caller looks the name up (a module global
such as ``repro.mediator.webhouse.refine``, or a class attribute such
as ``ShardedWebhouse.answer_info``).  No ``src/`` file changes.  Each
span records the request's trace id (``X-Repro-Trace-Id``), its own id,
its parent span's id, a name, and start/end ``perf_counter`` times;
spans stay in memory until :meth:`SpanBook.dump` writes them out when
the server stops.

Two spans are not timed by a wrapper.  ``proc.worker_service`` takes
its duration from the service-time books a worker pushes back with each
response; it is marked ``"nested"``: it lies inside its parent
``proc.request``, at an unknown offset.  ``cluster.slowest_shard`` is
the longest task of one scatter; it is marked ``"summary"``: it
duplicates time its siblings already cover.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.obs.spans import current_trace_id

_CURRENT: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)


class SpanBook:
    """In-memory spans, counts and cache-counter snapshots, by trace id."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: [trace, id, parent, name, start, end, derived], derived
        #: being None, "nested" or "summary" (see the module docstring)
        self.spans: List[list] = []
        #: [trace, name, value]
        self.counts: List[list] = []
        #: [trace, {table: [hits, misses, evictions]}]
        self.perf: List[list] = []

    def next_id(self) -> int:
        return next(self._ids)

    def span(self, trace, sid, parent, name, start, end, derived=None) -> None:
        with self._lock:
            self.spans.append([trace, sid, parent, name, start, end, derived])

    def count(self, name: str, value: float = 1, trace: Optional[str] = None) -> None:
        trace = current_trace_id() if trace is None else trace
        with self._lock:
            self.counts.append([trace, name, value])

    def snapshot_perf(self, trace: Optional[str]) -> None:
        from repro.perf import STATE

        tables = {
            name: [cache.hits, cache.misses, cache.evictions]
            for name, cache in STATE.caches.items()
        }
        pool = STATE.pool.stats()
        tables["intern"] = [
            sum(int(t["hits"]) for t in pool.values()),
            sum(int(t["misses"]) for t in pool.values()),
            sum(int(t["evictions"]) for t in pool.values()),
        ]
        with self._lock:
            self.perf.append([trace, tables])

    def dump(self, path: str) -> None:
        with self._lock:
            document = {"spans": self.spans, "counts": self.counts, "perf": self.perf}
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(tmp, path)


def _timed(book: SpanBook, name: str, fn: Callable, trace_of=None, after=None):
    """Wrap ``fn`` so each call records a span named ``name``.

    ``trace_of(args)`` picks the trace id when the call runs outside
    the request's context; ``after(result)`` runs after the span
    closes, under the caller's span.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        trace = trace_of(args) if trace_of is not None else current_trace_id()
        sid = book.next_id()
        parent = _CURRENT.get()
        token = _CURRENT.set(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            book.span(trace, sid, parent, name, start, end)
        if after is not None:
            after(result)
        return result

    return wrapper


class _TimedEnter:
    """A context manager whose ``__enter__`` is recorded as a wait span."""

    def __init__(self, book, name, cm, on_error=None):
        self._book, self._name, self._cm, self._on_error = book, name, cm, on_error

    def __enter__(self):
        start = time.perf_counter()
        try:
            return self._cm.__enter__()
        except BaseException as exc:
            if self._on_error is not None:
                self._on_error(exc)
            raise
        finally:
            self._book.span(
                current_trace_id(), self._book.next_id(), _CURRENT.get(),
                self._name, start, time.perf_counter(),
            )

    def __exit__(self, *exc_info):
        return self._cm.__exit__(*exc_info)


def _patch(owner, attr: str, book: SpanBook, name: str, **kwargs) -> None:
    setattr(owner, attr, _timed(book, name, getattr(owner, attr), **kwargs))


def install(book: SpanBook) -> None:
    """Install every layer's wrappers; call before the server starts."""
    import repro.answering.answerable as answerable
    import repro.cluster.wire as wire
    import repro.core.query as query
    import repro.mediator.webhouse as webhouse
    import repro.ops.server as server
    import repro.store.journal as journal
    import repro.store.session as session
    from repro.cluster.admission import AdmissionController, ShardOverloaded
    from repro.cluster.executor import Executor
    from repro.cluster.locks import RWLock
    from repro.cluster.proc import ProcWorkerPool
    from repro.cluster.sharded import ShardedWebhouse
    from repro.faults.policies import RetryPolicy

    # ops: dispatch (snapshotting the cache counters first), the
    # post-response pipeline, query parsing
    dispatch = server.OpsServer.dispatch

    def snapshot_then_dispatch(self, path, params, extras):
        if path == "/ask":
            book.snapshot_perf(current_trace_id())
        return dispatch(self, path, params, extras)

    server.OpsServer.dispatch = _timed(book, "ops.dispatch", snapshot_then_dispatch)
    _patch(
        server.OpsServer, "finish_request", book, "ops.finish_request",
        trace_of=lambda args: args[5].trace_id,
    )
    _patch(server, "parse_query_spec", book, "ops.parse_query_spec")

    # cluster: keyed ops, admission and lock waits, fan-out, retries
    for attr in ("answer_info", "ask_info"):
        _patch(ShardedWebhouse, attr, book, "cluster.keyed_op")

    def count_degraded(info):
        if info["degraded"]:
            book.count("cluster.degraded")

    _patch(ShardedWebhouse, "ask_all_info", book, "cluster.ask_all", after=count_degraded)
    _patch(RWLock, "acquire_read", book, "cluster.read_lock_wait")
    _patch(RWLock, "acquire_write", book, "cluster.write_lock_wait")
    admit = AdmissionController.admit

    def on_admit_error(exc):
        if isinstance(exc, ShardOverloaded):
            book.count("cluster.shed")

    def timed_admit(self, shard):
        return _TimedEnter(book, "cluster.admission_wait", admit(self, shard), on_admit_error)

    AdmissionController.admit = timed_admit
    retry_call = RetryPolicy.call

    def counted_call(self, fn, **kwargs):
        attempts = [0]

        def attempt():
            attempts[0] += 1
            return fn()

        try:
            return retry_call(self, attempt, **kwargs)
        finally:
            if attempts[0] > 1:
                book.count("cluster.retries", attempts[0] - 1)

    RetryPolicy.call = counted_call
    scatter = Executor.scatter_outcomes

    def timed_scatter(self, items, fn, deadline=None):
        parent = _CURRENT.get()
        durations: List[float] = []

        def task(index, item):
            token = _CURRENT.set(parent)
            start = time.perf_counter()
            try:
                return fn(index, item)
            finally:
                durations.append(time.perf_counter() - start)
                _CURRENT.reset(token)

        outcomes = scatter(self, items, task, deadline)
        if durations:
            end = time.perf_counter()
            book.span(
                current_trace_id(), book.next_id(), parent,
                "cluster.slowest_shard", end - max(durations), end, "summary",
            )
        return outcomes

    # the scatter span is the parent of its tasks' spans
    Executor.scatter_outcomes = _timed(book, "cluster.scatter", timed_scatter)

    # process backend, parent side: round trip, codec, worker books
    _patch(ProcWorkerPool, "request", book, "proc.request")

    def frame_bytes(frame):
        book.count("wire.bytes", len(frame))

    _patch(wire, "encode_frame", book, "wire.encode", after=frame_bytes)
    decode_frame = wire.decode_frame

    def decode_counted(data):
        book.count("wire.bytes", len(data))
        return decode_frame(data)

    wire.decode_frame = _timed(book, "wire.decode", decode_counted)

    def worker_service(response):
        sketches = (response.get("books") or {}).get("sketches") or {}
        seconds = sum(float(doc["sum"]) for doc in sketches.values())
        if sketches:
            end = time.perf_counter()
            book.span(
                current_trace_id(), book.next_id(), _CURRENT.get(),
                "proc.worker_service", end - seconds, end, "nested",
            )

    # the envelope check is cheap and follows decode_frame: not a span
    decode_response = wire.decode_response

    def decode_then_book(payload):
        response = decode_response(payload)
        worker_service(response)
        return response

    wire.decode_response = decode_then_book

    # mediator and engine
    for attr, name in (
        ("answer_with_caveats", "mediator.answer_with_caveats"),
        ("ask", "mediator.ask"),
        ("prepare", "mediator.prepare"),
    ):
        _patch(webhouse.Webhouse, attr, book, name)
    _patch(webhouse, "fully_answerable", book, "answering.fully_answerable")
    _patch(answerable, "certain_prefix", book, "incomplete.certain_prefix")
    _patch(query.PSQuery, "evaluate", book, "core.query_evaluate")
    _patch(webhouse, "refine", book, "refine.refine")
    _patch(webhouse, "intersect_with_tree_type", book, "refine.intersect_with_tree_type")

    # store
    _patch(journal.Journal, "append", book, "store.journal_append")
    _patch(session.Session, "snapshot", book, "store.snapshot")
    _patch(session.SessionStore, "create", book, "store.session_create")
    fsync = os.fsync

    def counted_fsync(fd):
        book.count("store.fsync")
        return fsync(fd)

    os.fsync = counted_fsync
