"""repro.cluster — a sharded webhouse pool with scatter-gather answering.

The paper's mediator holds one incomplete tree per interaction (§3.4),
and Theorem 3.5 makes each session's knowledge a pure function of its
own history — sessions never share state, so the warehouse scales out
by *grouping* sessions, not by splitting any one session's knowledge.

This package is that grouping, zero-dependency like the rest of the
repo:

* :class:`~repro.cluster.ring.Router` — consistent-hash routing of
  session keys onto shard indices; stable across processes (BLAKE2b,
  not ``hash()``) and cheap to resize (~1/(n+1) keys move).
* :class:`~repro.cluster.locks.RWLock` — writer-preferring readers-
  writer lock; local answering shares, Refine excludes.
* :class:`~repro.cluster.admission.AdmissionController` — bounded
  per-shard in-flight budgets with ``shed`` / ``wait`` backpressure;
  overload raises :class:`~repro.cluster.admission.ShardOverloaded`
  (HTTP 503 at the ops plane).
* :class:`~repro.cluster.executor.Executor` — thread-pool scatter-
  gather with deterministic (item-order) gathering and the shard index
  bound to the observability context.
* :class:`~repro.cluster.host.ShardHost` — the one implementation of
  every shard operation (engines, journal resume, record dedupe,
  revival), reached in-process by a
  :class:`~repro.cluster.host.ThreadTransport` under the shard lock.
* :class:`~repro.cluster.sharded.ShardedWebhouse` — the pool itself:
  keyed ``record``/``ask``/``answer`` plus fleet-wide ``ask_all`` /
  ``stats_all`` whose certain-answer union is invariant under the
  shard count — and under the transport.
* :mod:`~repro.cluster.wire` — the length-prefixed, CRC-checked binary
  frame codec (canonical JSON payloads) the process transport speaks.
* :class:`~repro.cluster.proc.ProcWorkerPool` — one spawned worker
  process per shard (``backend="process"``), each running the same
  ``ShardHost`` behind a :class:`~repro.cluster.proc.ProcTransport`, so
  shard work runs on real cores instead of timeslicing one GIL; dead
  workers respawn and revive their engines from the journal.

See ``docs/CLUSTER.md`` for routing, rebalancing, admission control,
and failure modes; ``repro serve --shards N --backend process`` puts
the pool behind the HTTP ops plane.
"""

from __future__ import annotations

from .admission import AdmissionController, POLICIES, ShardOverloaded
from .executor import Executor, TaskOutcome
from .host import (
    RETRYABLE_ERRORS,
    ShardHost,
    WorkerError,
    WorkerFault,
    WorkerUnavailable,
)
from .locks import RWLock
from .proc import ProcWorkerPool, WorkerConfig
from .ring import DEFAULT_REPLICAS, Router, stable_hash
from .sharded import BACKENDS, ResiliencePolicy, Shard, ShardedWebhouse
from .wire import WireError

__all__ = [
    "AdmissionController",
    "BACKENDS",
    "DEFAULT_REPLICAS",
    "Executor",
    "POLICIES",
    "ProcWorkerPool",
    "RETRYABLE_ERRORS",
    "ResiliencePolicy",
    "RWLock",
    "Router",
    "Shard",
    "ShardedWebhouse",
    "ShardHost",
    "ShardOverloaded",
    "TaskOutcome",
    "WireError",
    "WorkerConfig",
    "WorkerError",
    "WorkerFault",
    "WorkerUnavailable",
    "stable_hash",
]
