"""The process transport: a shard's host in its own worker process.

The thread transport (:mod:`repro.cluster.host`) parallelizes shard work
only as far as the GIL allows.  Here each shard's
:class:`~repro.cluster.host.ShardHost` — the same class, so the same
operations, journal resume, dedupe and revival — runs in its own
**worker process**, and per-shard Refine/answer work runs on real cores.
A shard is a closed world (Theorem 3.5), so where it evaluates cannot
change an answer.  This module adds only the transport:

* :class:`ProcTransport` — the parent-side ``call(op, args)``: encode the
  host op's arguments, one round trip, decode the result.
  :func:`_to_wire`/:func:`_from_wire` are the only code that knows how
  host values cross the pipe.
* :class:`ProcWorkerPool` — one worker per shard, spawned with the
  ``multiprocessing`` **spawn** context (a fresh interpreter — no forked
  locks) behind a duplex pipe of :mod:`repro.cluster.wire` frames.  The
  request envelope carries the caller's trace id, remaining deadline
  and armed fault-plan spec, so ``contextvars`` state survives the hop.

A worker builds its host (resuming every journaled session), sends a
hello frame, then serves requests strictly in order — a worker *is* its
shard's write lock.  Every response pushes back the request's service
time, the worker's counter deltas and its request count, so the router
merges fleet telemetry without polling.  A killed or hung worker shows
up as EOF or a poll timeout; :class:`ProcTransport` respawns it before
the caller's retry.  ``ping``, ``sleep`` and ``spans`` are worker-level
debug ops that never reach the host.  In-memory pools (no store) lose a
killed shard's sessions on respawn — the sound degraded direction (empty
sure part, ``may_have_more``), but a real deployment should give the
pool a store.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.query import PSQuery
from ..core.tree import DataTree
from ..faults.inject import (
    active_plan,
    armed as _faults_armed,
    check_site as _check_site,
    fault_scope,
)
from ..faults.plan import FaultError, FaultPlan
from ..faults.policies import Deadline, DeadlineExceeded
from ..mediator.source import InMemorySource
from ..obs.sketch import QuantileSketch
from ..obs.spans import current_trace_id
from ..obs.state import STATE as _OBS
from ..store.codec import query_from_json, query_to_json, tree_from_json, tree_to_json
from . import wire
from .host import (
    HOST_OPS,
    OP_FAMILY,
    RETRYABLE_ERRORS,
    SHARD_OPS,
    ShardHost,
    WorkerError,
    WorkerFault,
    WorkerUnavailable,
)

Json = Any


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a spawned worker needs to rebuild its shard host.

    Plain picklable data only — the tree type travels as its
    ``store.codec`` JSON form, never as a live object.
    """

    shard: int
    alphabet: Tuple[str, ...]
    tree_type_json: Optional[Json] = None
    auto_minimize: bool = False
    store_root: Optional[str] = None
    snapshot_every: int = 32
    obs_enabled: bool = False
    caches_enabled: bool = False


# -- the codec of host arguments and results -----------------------------------


def _to_wire(value: Any) -> Json:
    """A host op's arguments or result as JSON.

    Host values are plain data plus three paper objects; each of those
    travels as a one-key ``{"$tag": ...}`` object holding the
    ``store.codec`` form the journal uses (a source as its document).
    """
    if isinstance(value, DataTree):
        return {"$tree": tree_to_json(value)}
    if isinstance(value, PSQuery):
        return {"$query": query_to_json(value)}
    if isinstance(value, InMemorySource):
        return {"$source": tree_to_json(value.document())}
    if isinstance(value, dict):
        return {key: _to_wire(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_wire(item) for item in value]
    return value


#: tag -> decoder for the tags the parent receives; the worker adds
#: ``$source``, which needs its tree type and document cache.
_DECODERS: Dict[str, Callable[[Json], Any]] = {
    "$tree": tree_from_json,
    "$query": query_from_json,
}


def _from_wire(value: Json, decoders: Dict[str, Callable[[Json], Any]]) -> Any:
    """Inverse of :func:`_to_wire` (tuples come back as lists)."""
    if isinstance(value, list):
        return [_from_wire(item, decoders) for item in value]
    if isinstance(value, dict):
        if len(value) == 1:
            ((tag, body),) = value.items()
            if tag in decoders:
                return decoders[tag](body)
        return {key: _from_wire(item, decoders) for key, item in value.items()}
    return value


# -- the worker process ---------------------------------------------------------


def _spans(limit: int) -> Json:
    """Recent closed spans (flattened, preorder), for trace-propagation
    checks."""
    rows: List[Dict[str, Json]] = []
    stack = list(_OBS.traces)[-limit:][::-1]
    while stack:
        span = stack.pop()
        rows.append(
            {
                "name": span.name,
                "trace_id": span.attrs.get("trace_id"),
                "shard": span.attrs.get("shard"),
            }
        )
        stack.extend(reversed(span.children))
    return {"spans": rows[-limit:]}


def _worker_entry(config: WorkerConfig, conn) -> None:
    """The spawned worker's main: serve wire frames until the parent
    closes the pipe."""
    # the parent coordinates shutdown over the pipe; a terminal Ctrl-C
    # must not tear workers down mid-journal-write underneath it
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    from .. import obs, perf
    from ..obs.spans import reset_shard, reset_trace_id, set_shard, set_trace_id, span
    from ..store.codec import canonical_dumps, treetype_from_json
    from ..store.session import SessionStore

    if config.obs_enabled:
        obs.enable(obs.RingBufferSink())
    if config.caches_enabled:
        perf.enable_caches()

    tree_type = (
        None if config.tree_type_json is None else treetype_from_json(config.tree_type_json)
    )
    store = (
        None
        if config.store_root is None
        else SessionStore(config.store_root, snapshot_every=config.snapshot_every)
    )
    host = ShardHost(config.shard, config.alphabet, tree_type, config.auto_minimize, store)
    handled = 0
    #: counter snapshot at the last push-back (deltas travel)
    counter_base: Dict[str, float] = {}

    def books_for(op: str, seconds: float) -> Dict[str, Json]:
        """This request's service time plus counter deltas since the
        previous response: the books every response pushes back."""
        sketches = {}
        if op in OP_FAMILY:
            sketch = QuantileSketch()
            sketch.observe(seconds)
            sketches[OP_FAMILY[op]] = sketch.to_dict()
        counters: Dict[str, float] = {}
        if _OBS.enabled:
            current = dict(_OBS.metrics.counters())
            for name, value in current.items():
                if value != counter_base.get(name, 0):
                    counters[name] = value - counter_base.get(name, 0)
            counter_base.clear()
            counter_base.update(current)
        return {"sketches": sketches, "counters": counters, "requests_handled": handled}

    #: parsed fault plans by spec, so trigger state (``nth``/``once``)
    #: persists across the requests of one worker incarnation
    plans: Dict[str, Optional[FaultPlan]] = {}
    #: decoded sources by their canonical document JSON, so repeated
    #: asks against one source do not rebuild the tree every time
    sources: Dict[str, InMemorySource] = {}

    def source_for(document: Json) -> InMemorySource:
        cache_key = canonical_dumps(document)
        source = sources.get(cache_key)
        if source is None:
            source = InMemorySource(tree_from_json(document), tree_type)
            if len(sources) >= 8:
                sources.pop(next(iter(sources)))
            sources[cache_key] = source
        return source

    decoders = dict(_DECODERS, **{"$source": source_for})

    def plan_for(spec: Optional[str]) -> Optional[FaultPlan]:
        if spec is None:
            return None
        if spec not in plans:
            try:
                plans[spec] = FaultPlan.parse(spec)
            except FaultError:
                plans[spec] = None  # a bad spec disarms rather than wedging the worker
        return plans[spec]

    def handle(op: str, args: Dict[str, Json]) -> Json:
        if op == "ping":
            return {"pid": os.getpid()}
        if op == "sleep":  # debug/testing: simulate a hung worker
            time.sleep(float(args.get("seconds", 0.0)))
            return {"slept_s": float(args.get("seconds", 0.0))}
        if op == "spans":
            return _spans(int(args.get("limit", 64)))
        if op not in HOST_OPS:
            raise ValueError(f"unknown worker op {op!r}")
        return _to_wire(getattr(host, op)(**_from_wire(args, decoders)))

    conn.send_bytes(
        wire.encode_frame(
            wire.response_envelope(0, value={"pid": os.getpid(), "hello": True})
        )
    )
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):  # the parent closed the pipe: shut down
            break
        seq = -1
        try:
            request = wire.decode_request(wire.decode_frame(data))
            seq = request["seq"]
            op = request["op"]
            started = time.perf_counter()
            shard_token = set_shard(config.shard)
            trace_token = set_trace_id(request.get("trace_id"))
            try:
                deadline_s = request.get("deadline_s")
                if deadline_s is not None and deadline_s <= 0:
                    raise DeadlineExceeded(
                        f"request deadline expired before worker "
                        f"{config.shard} started"
                    )
                with fault_scope(plan_for(request.get("fault_plan"))):
                    if _faults_armed():
                        _check_site(f"cluster.worker.{config.shard}")
                    with span(f"worker.{op}", shard=config.shard):
                        value = handle(op, request["args"])
            finally:
                reset_trace_id(trace_token)
                reset_shard(shard_token)
            handled += 1
            books = books_for(op, time.perf_counter() - started)
            response = wire.response_envelope(seq, value=value, books=books)
        except BaseException as exc:  # every failure becomes a frame
            response = wire.response_envelope(
                seq,
                error={
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "retryable": isinstance(exc, RETRYABLE_ERRORS),
                },
            )
        try:
            conn.send_bytes(wire.encode_frame(response))
        except (BrokenPipeError, OSError):
            break
    host.close()
    conn.close()


# -- the router-side pool -----------------------------------------------------


@dataclass
class _Worker:
    """Router-side state for one shard worker."""

    config: WorkerConfig
    process: Any = None
    conn: Any = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    seq: int = 0
    pid: Optional[int] = None
    restarts: int = 0
    #: the worker's request count as of its last response
    requests_handled: int = 0
    #: accumulated worker-side service-time sketches (delta merges)
    sketches: Dict[str, QuantileSketch] = field(
        default_factory=lambda: {op: QuantileSketch() for op in SHARD_OPS}
    )
    #: accumulated worker counter deltas
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ProcWorkerPool:
    """One spawned worker process per shard, framed by the wire codec."""

    def __init__(
        self,
        configs: List[WorkerConfig],
        *,
        request_timeout_s: float = 30.0,
        spawn_timeout_s: float = 60.0,
    ):
        import multiprocessing

        self._ctx = multiprocessing.get_context("spawn")
        self._workers = [_Worker(config) for config in configs]
        self.request_timeout_s = float(request_timeout_s)
        self.spawn_timeout_s = float(spawn_timeout_s)
        self._stopping = False

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "ProcWorkerPool":
        """Spawn every worker (started concurrently, awaited in order)."""
        for worker in self._workers:
            with worker.lock:
                if not worker.alive:
                    self._spawn(worker)
        for worker in self._workers:
            with worker.lock:
                self._await_hello(worker)
        return self

    def _spawn(self, worker: _Worker) -> None:
        """Launch one worker process; caller holds ``worker.lock``."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_entry,
            args=(worker.config, child_conn),
            name=f"repro-shard-worker-{worker.config.shard}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.pid = process.pid
        worker.seq = 0

    def _await_hello(self, worker: _Worker) -> None:
        """Block until the worker's hello frame; caller holds the lock."""
        try:
            if not worker.conn.poll(self.spawn_timeout_s):
                raise TimeoutError(f"did not come up within {self.spawn_timeout_s:g}s")
            hello = wire.decode_response(wire.decode_frame(worker.conn.recv_bytes()))
            if not hello["ok"] or not (hello["value"] or {}).get("hello"):
                raise wire.WireError("malformed hello")
        except (EOFError, OSError, wire.WireError) as exc:
            self._discard(worker)
            raise WorkerUnavailable(f"worker {worker.config.shard} failed to start: {exc}")
        worker.pid = hello["value"].get("pid", worker.pid)

    def _discard(self, worker: _Worker) -> None:
        """Tear down a dead/hung worker's process + pipe (lock held)."""
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.conn = None
        process, worker.process = worker.process, None
        if process is not None:
            if process.is_alive():
                process.kill()
            process.join(timeout=5)

    def ensure(self, shard: int) -> None:
        """Respawn shard's worker if it is dead — the revival path.

        The fresh worker's host resumes every journaled session in its
        shard namespace before serving (Theorem 3.5 snapshot+replay), so
        a respawn after a kill loses nothing that reached the journal.
        """
        worker = self._workers[shard]
        with worker.lock:
            if self._stopping or worker.alive:
                return
            self._discard(worker)
            self._spawn(worker)
            worker.restarts += 1
            self._await_hello(worker)
        if _OBS.enabled:
            _OBS.metrics.inc("cluster.worker_respawns")

    def kill(self, shard: int) -> None:
        """SIGKILL shard's worker (chaos/testing); respawn is on demand."""
        worker = self._workers[shard]
        process = worker.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5)

    def stop(self) -> None:
        """Orderly shutdown: close every pipe (each worker reads EOF,
        detaches its sessions and exits), then reap."""
        self._stopping = True
        for worker in self._workers:
            with worker.lock:
                if worker.conn is not None:
                    worker.conn.close()
                    worker.conn = None
        for worker in self._workers:
            with worker.lock:
                if worker.process is not None:
                    worker.process.join(timeout=5)
                self._discard(worker)

    # -- the request path -------------------------------------------------------

    def request(
        self,
        shard: int,
        op: str,
        args: Optional[Dict[str, Json]] = None,
        *,
        trace_id: Optional[str] = None,
        deadline: Optional[Deadline] = None,
        plan: Optional[FaultPlan] = None,
    ) -> Json:
        """One request/response round trip with shard's worker.

        Serialized per worker (the pipe is ordered, not multiplexed).
        Raises :class:`WorkerUnavailable` when the worker is dead, hung
        past the timeout, or desynchronized — all retryable after
        :meth:`ensure`.  Remote errors come back typed: ``ValueError``
        and :class:`DeadlineExceeded` re-raise as themselves,
        store/fault failures as :class:`WorkerFault` (retryable),
        everything else as :class:`WorkerError`.
        """
        worker = self._workers[shard]
        timeout = self.request_timeout_s
        deadline_s: Optional[float] = None
        if deadline is not None:
            deadline_s = deadline.remaining()
            if deadline_s <= 0:
                raise DeadlineExceeded(
                    f"deadline expired before reaching worker {shard}"
                )
            timeout = min(timeout, deadline_s)
        with worker.lock:
            if not worker.alive or worker.conn is None:
                raise WorkerUnavailable(f"worker {shard} is not running")
            worker.seq += 1
            seq = worker.seq
            envelope = wire.request_envelope(
                seq,
                op,
                args,
                trace_id=trace_id,
                deadline_s=deadline_s,
                fault_plan=None if plan is None else plan.spec(),
            )
            try:
                worker.conn.send_bytes(wire.encode_frame(envelope))
                if not worker.conn.poll(timeout):
                    raise TimeoutError(f"did not answer within {timeout:g}s")
                response = wire.decode_response(
                    wire.decode_frame(worker.conn.recv_bytes())
                )
                if response["seq"] != seq:
                    raise wire.WireError(
                        f"desynchronized (expected seq {seq}, got {response['seq']})"
                    )
            except (EOFError, OSError, wire.WireError) as exc:
                # a dead, hung, or garbled worker blocks its whole shard;
                # kill it so the respawn path can bring the shard back
                self._discard(worker)
                raise WorkerUnavailable(f"worker {shard}: {type(exc).__name__}: {exc}")
            self._fold_books(worker, response.get("books") or {})
        if response["ok"]:
            return response["value"]
        return self._raise_remote(shard, response["error"])

    def _raise_remote(self, shard: int, error: Dict[str, Json]) -> Json:
        remote_type = str(error.get("type", "Exception"))
        message = str(error.get("message", ""))
        local = {"ValueError": ValueError, "DeadlineExceeded": DeadlineExceeded}
        if remote_type in local:
            raise local[remote_type](message)
        kind = WorkerFault if error.get("retryable") else WorkerError
        raise kind(f"{remote_type}: worker {shard}: {message}")

    def _fold_books(self, worker: _Worker, books: Dict[str, Json]) -> None:
        """Merge one response's pushed-back deltas (lock held)."""
        worker.requests_handled = books.get("requests_handled", worker.requests_handled)
        for op, document in (books.get("sketches") or {}).items():
            if op in worker.sketches:
                worker.sketches[op].merge(QuantileSketch.from_dict(document))
        counters = books.get("counters") or {}
        if counters:
            for name, delta in counters.items():
                worker.counters[name] = worker.counters.get(name, 0) + delta
            if _OBS.enabled:
                # fleet-wide /metrics sees worker-side engine counters
                _OBS.metrics.merge_counts(counters)

    # -- books ------------------------------------------------------------------

    def worker_sketches(self) -> Dict[str, QuantileSketch]:
        """Fleet service-time sketches: per-worker books merged per op."""
        return {
            op: QuantileSketch.merged(
                [worker.sketches[op] for worker in self._workers]
            )
            for op in SHARD_OPS
        }

    def stats(self) -> List[Dict[str, Json]]:
        """Per-worker lifecycle books (no pipe traffic)."""
        return [
            {
                "shard": worker.config.shard,
                "pid": worker.pid,
                "alive": worker.alive,
                "restarts": worker.restarts,
                "requests_handled": worker.requests_handled,
                "counters": dict(worker.counters),
            }
            for worker in self._workers
        ]

    def __repr__(self) -> str:
        alive = sum(1 for worker in self._workers if worker.alive)
        return f"ProcWorkerPool(workers={len(self._workers)}, alive={alive})"


class ProcTransport:
    """Runs shard ``index``'s :class:`ShardHost` in its pool worker."""

    __slots__ = ("pool", "index")

    def __init__(self, pool: ProcWorkerPool, index: int):
        self.pool = pool
        self.index = index

    def call(
        self, op: str, args: Dict[str, object], deadline: Optional[Deadline] = None
    ) -> object:
        try:
            value = self.pool.request(
                self.index,
                op,
                _to_wire(args),
                trace_id=current_trace_id(),
                deadline=deadline,
                plan=active_plan(),
            )
        except WorkerUnavailable:
            # respawn now, so the caller's retry reaches a fresh worker
            # whose host has resumed every journaled session
            self.pool.ensure(self.index)
            raise
        return _from_wire(value, _DECODERS)

    def engines(self) -> Dict[str, object]:
        raise NotImplementedError(
            "backend='process' hosts engines in worker processes; use "
            "answer_info()/stats_all() for per-session books, and rebuild "
            "the cluster against the store to resize it"
        )

    def close(self) -> None:
        self.pool.stop()


__all__ = [
    "ProcTransport",
    "ProcWorkerPool",
    "WorkerConfig",
    "WorkerError",
    "WorkerFault",
    "WorkerUnavailable",
    "_worker_entry",
]
