"""The shard host: the one implementation of every shard operation.

Theorem 3.5 makes a session's knowledge a pure function of its own
query/answer history, so a shard — a group of whole sessions — is a
closed world.  :class:`ShardHost` is that world: the shard's per-session
:class:`~repro.mediator.webhouse.Webhouse` engines, its durable
``SessionStore.shard(i)`` namespace, and the operations on them
(``record``, ``ask``, ``answer``, ``answer_all``, ``stats``,
``apply_remedy``), taking and returning Python objects.

Where the host runs is a *transport* decision and changes nothing it
does:

* :class:`ThreadTransport` (here) calls the host directly in this
  process under the shard's readers-writer lock — reads share, writes
  exclude — with no codec work on the path;
* :class:`~repro.cluster.proc.ProcTransport` runs the same host class
  inside a worker process and moves arguments and results over the
  :mod:`~repro.cluster.wire` codec.

The host owns the durability discipline on both transports: start-up
resumes every journaled session, a re-sent ``record`` of the last pair
is deduplicated (a crashed attempt may have persisted it), and a write
that fails with a store-layer error revives the engine from its journal
before the error leaves the host, so the caller's retry sees the disk
state rather than memory that ran ahead of it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional, Tuple

from ..core.query import PSQuery
from ..core.tree import DataTree
from ..core.treetype import TreeType
from ..faults.inject import FaultInjected
from ..mediator.source import InMemorySource
from ..mediator.webhouse import Webhouse
from ..obs.state import STATE as _OBS
from ..store.journal import JournalError
from ..store.session import StoreError
from .locks import RWLock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..store.session import SessionStore


class WorkerError(RuntimeError):
    """A worker process reported a non-retryable failure for one call."""


class WorkerFault(WorkerError):
    """A worker reported a *retryable* failure (store/fault-plane)."""


class WorkerUnavailable(WorkerError):
    """The worker process is dead, hung, or desynchronized.

    Retryable by design: the process transport respawns the worker (its
    host resumes every journaled session) before the retry reaches it.
    """


#: Errors worth retrying / counting against a shard's breaker, on either
#: transport: injected faults, the store-layer failures they (or real
#: disks) surface as, and a worker's remote or lost-process failures.
#: Deliberate control decisions — admission shedding, validation — are
#: excluded: retrying them would amplify load, not absorb a glitch.
RETRYABLE_ERRORS = (
    FaultInjected,
    JournalError,
    StoreError,
    OSError,
    WorkerFault,
    WorkerUnavailable,
)

#: Host operations that only read; every other op in :data:`HOST_OPS`
#: mutates and runs under the shard's exclusive lock.
READ_OPS = frozenset({"answer", "answer_info", "answer_all", "stats"})

#: Every operation a transport may invoke on a :class:`ShardHost`.
HOST_OPS = READ_OPS | {"record", "ask", "apply_remedy"}

#: The operation families each shard keeps a latency sketch for.
SHARD_OPS = ("record", "ask", "answer")

#: host op -> the latency-sketch family it is observed under.
OP_FAMILY = {
    "record": "record",
    "ask": "ask",
    "answer": "answer",
    "answer_info": "answer",
    "answer_all": "answer",
}


class ShardHost:
    """One shard's engines, store namespace, and operations."""

    def __init__(
        self,
        shard: int,
        alphabet: Iterable[str],
        tree_type: Optional[TreeType] = None,
        auto_minimize: bool = False,
        store: Optional["SessionStore"] = None,
    ):
        self.shard = shard
        self.alphabet = sorted(set(alphabet))
        self.tree_type = tree_type
        self.auto_minimize = auto_minimize
        self.store = store
        #: session key -> its engine; the transport serializes access.
        self.engines: Dict[str, Webhouse] = {}
        if store is not None:
            for name in store.list_sessions():
                self.engines[name] = Webhouse.resume(store, name).prepare()

    # -- engines ---------------------------------------------------------------

    def _create(self, key: str) -> Webhouse:
        engine = Webhouse(
            self.alphabet, tree_type=self.tree_type, auto_minimize=self.auto_minimize
        )
        if self.store is not None:
            engine.attach(
                self.store.create(
                    key,
                    self.alphabet,
                    tree_type=self.tree_type,
                    auto_minimize=self.auto_minimize,
                )
            )
        self.engines[key] = engine
        if _OBS.enabled:
            _OBS.metrics.inc("cluster.sessions_created")
            _OBS.metrics.set_gauge(f"shard.{self.shard}.sessions", len(self.engines))
        return engine

    def revive(self, key: str) -> None:
        """Drop a possibly-wedged engine and resume it from its journal.

        A store-layer failure mid-write can leave an engine's memory
        ahead of its journal (or its journal handle closed); the only
        trustworthy copy is disk, so the engine is rebuilt by snapshot +
        replay — the same Theorem 3.5 path a restart takes.  In-memory
        hosts (no store) keep the engine: with no journal to disagree
        with, memory *is* the state.
        """
        if self.store is None or not self.store.exists(key):
            return
        self.engines.pop(key, None)
        self.engines[key] = Webhouse.resume(self.store, key).prepare()
        if _OBS.enabled:
            _OBS.metrics.inc("cluster.engine_revivals")

    def _write(self, key: str, mutate: Callable[[Webhouse], object]) -> object:
        """Run ``mutate`` on ``key``'s engine (created on demand), then
        materialize its knowledge; revive the engine if a store fails."""
        try:
            engine = self.engines.get(key)
            if engine is None:
                engine = self._create(key)
            result = mutate(engine)
            engine.prepare()
        except RETRYABLE_ERRORS:
            self.revive(key)
            raise
        return result

    def _books(self, engine: Optional[Webhouse]) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "knowledge_size": 0 if engine is None else engine.size(),
            "queries_recorded": 0 if engine is None else len(engine.history),
        }

    # -- writes ----------------------------------------------------------------

    def record(self, key: str, query: PSQuery, answer: DataTree) -> None:
        """Refine ``key``'s knowledge with one pair, exactly once."""

        def mutate(engine: Webhouse) -> None:
            history = engine.history
            if history and history[-1] == (query, answer):
                # a crashed attempt persisted the pair before failing;
                # the retry is already done
                return
            engine.record(query, answer)

        self._write(key, mutate)

    def ask(self, key: str, source: InMemorySource, query: PSQuery) -> Dict[str, object]:
        """Query ``source`` for ``key``, fold the answer in; answer + books."""
        answer = self._write(key, lambda engine: engine.ask(source, query))
        return dict(self._books(self.engines[key]), answer=answer)

    def apply_remedy(self, remedy: str) -> None:
        """Apply a paper remedy to every engine, in memory only."""
        for engine in self.engines.values():
            engine.apply_remedy(remedy)

    # -- reads -----------------------------------------------------------------

    def answer(self, key: str, query: PSQuery) -> Tuple[DataTree, bool]:
        """``key``'s caveated certain answer.

        An unknown key answers from zero knowledge — empty sure part,
        ``may_have_more=True`` — *without* creating an engine, so probe
        traffic cannot grow the pool.
        """
        engine = self.engines.get(key)
        if engine is None:
            return DataTree.empty(), True
        return engine.answer_with_caveats(query)

    def answer_info(self, key: str, query: PSQuery) -> Dict[str, object]:
        """:meth:`answer` plus the session's books (sizing the knowledge
        costs more than a cached read, so plain answers skip it)."""
        sure, more = self.answer(key, query)
        return dict(self._books(self.engines.get(key)), sure=sure, may_have_more=more)

    def answer_all(self, query: PSQuery) -> Dict[str, object]:
        """Every session's ``(key, sure, may_have_more)`` in key order, and
        the shard's total knowledge size."""
        engines = sorted(self.engines.items())
        return {
            "rows": [(key, *engine.answer_with_caveats(query)) for key, engine in engines],
            "knowledge_size": sum(engine.size() for _, engine in engines),
        }

    def stats(self) -> Dict[str, object]:
        engines = self.engines.values()
        return {
            "shard": self.shard,
            "sessions": len(self.engines),
            "session_keys": sorted(self.engines),
            "queries_recorded": sum(len(engine.history) for engine in engines),
            "knowledge_size": sum(engine.size() for engine in engines),
        }

    def close(self) -> None:
        for engine in self.engines.values():
            if engine.session is not None:
                engine.detach()
        self.engines.clear()


class ThreadTransport:
    """Runs a :class:`ShardHost` in this process under its shard lock."""

    __slots__ = ("host", "lock")

    def __init__(self, host: ShardHost):
        self.host = host
        self.lock = RWLock()

    def call(self, op: str, args: Dict[str, object], deadline=None) -> object:
        locked = self.lock.read_locked if op in READ_OPS else self.lock.write_locked
        with locked():
            return getattr(self.host, op)(**args)

    def engines(self) -> Dict[str, Webhouse]:
        """A snapshot of the live engines (this transport only)."""
        with self.lock.read_locked():
            return dict(self.host.engines)

    def close(self) -> None:
        with self.lock.write_locked():
            self.host.close()


__all__ = [
    "HOST_OPS",
    "OP_FAMILY",
    "READ_OPS",
    "RETRYABLE_ERRORS",
    "SHARD_OPS",
    "ShardHost",
    "ThreadTransport",
    "WorkerError",
    "WorkerFault",
    "WorkerUnavailable",
]
