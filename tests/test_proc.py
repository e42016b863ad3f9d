"""The process-backed cluster data plane (PR 10).

Covers the acceptance criteria end to end: certain-answer invariance is
bit-for-bit identical across mono (one engine per key), thread, and
process backends on 1/2/8 shards — including under a seeded fault plan
with a worker kill+respawn; the wire envelope carries the caller's
trace id, deadline, and fault plan across the process hop; a dead or
hung worker is respawned with its engines revived from the journal
exactly-once; and workers push latency-sketch/counter books back so
fleet telemetry merges without polling.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

import repro.obs as obs
from repro.cluster import (
    BACKENDS,
    Executor,
    ProcWorkerPool,
    ShardedWebhouse,
    WorkerConfig,
    WorkerUnavailable,
)
from repro.core.tree import DataTree
from repro.faults.inject import fault_scope
from repro.faults.plan import FaultPlan
from repro.faults.policies import Deadline, DeadlineExceeded
from repro.mediator.local_query import overlay
from repro.mediator.source import InMemorySource
from repro.mediator.webhouse import Webhouse
from repro.obs.registry import Metrics
from repro.obs.sinks import NullSink
from repro.obs.spans import current_trace_id, reset_trace_id, set_trace_id
from repro.ops import OpsServer, demo_cluster, drive_request, proc_self_check
from repro.store import SessionStore
from repro.workloads.catalog import (
    CATALOG_ALPHABET,
    catalog_type,
    generate_catalog,
    query1,
    query2,
    query3,
)


@pytest.fixture(autouse=True)
def clean_state():
    obs.disable()
    obs.STATE.sink = NullSink()
    obs.STATE.clear()
    yield
    obs.disable()
    obs.STATE.sink = NullSink()
    obs.STATE.clear()


def _source(products: int = 8, seed: int = 7) -> InMemorySource:
    return InMemorySource(generate_catalog(products, seed=seed), catalog_type())


def _facts(tree: DataTree):
    return sorted(
        (nid, tree.label(nid), tree.value(nid), tree.parent(nid))
        for nid in tree.node_ids()
    )


_KEYS = [f"tenant-{i}" for i in range(6)]


def _drive(cluster: ShardedWebhouse, source, *, kill_one: bool = False):
    """One deterministic workload; returns comparable per-key + fleet facts.

    A seeded fault plan is armed around one of the asks (it targets the
    worker entry site of shard 0, a no-op under the thread backend);
    with ``kill_one`` the worker owning the first key is SIGKILLed
    after ingestion, so the answers that follow must come from a
    respawned worker's journal-revived engines.
    """
    queries = [query1(), query2(), query3()]
    plan = FaultPlan.parse("cluster.worker.0:error:once")
    for i, key in enumerate(_KEYS):
        with fault_scope(plan if i == 2 else None):
            cluster.ask(key, source, queries[i % 3])
    if kill_one and cluster.backend == "process":
        cluster.pool().kill(cluster.shard_of(_KEYS[0]))
    out = []
    for key in _KEYS:
        sure, more = cluster.answer(key, queries[0])
        out.append((key, _facts(sure), more))
    union, more = cluster.ask_all(queries[1])
    out.append(("fleet", _facts(union), more))
    return out


def _mono_reference(source):
    """The same workload on bare per-key engines — the paper baseline."""
    queries = [query1(), query2(), query3()]
    engines = {}
    for i, key in enumerate(_KEYS):
        engine = engines.setdefault(
            key, Webhouse(CATALOG_ALPHABET, tree_type=catalog_type())
        )
        engine.ask(source, queries[i % 3])
        engine.prepare()
    out = []
    for key in _KEYS:
        sure, more = engines[key].answer_with_caveats(queries[0])
        out.append((key, _facts(sure), more))
    merged = None
    more_any = False
    for key in sorted(engines):
        sure, more = engines[key].answer_with_caveats(queries[1])
        more_any = more_any or more
        if not sure.is_empty():
            merged = sure if merged is None else overlay(merged, sure)
    out.append(
        ("fleet", _facts(merged if merged is not None else DataTree.empty()), more_any)
    )
    return out


# -- invariance: mono vs thread vs process ------------------------------------


@pytest.mark.parametrize("shards", [1, 2, 8])
def test_certain_answers_invariant_across_backends(tmp_path, shards):
    """Bit-for-bit identical answers on mono/thread/process — with a
    seeded fault plan and one worker kill+respawn in the mix."""
    source = _source()
    expected = _mono_reference(source)
    for backend in BACKENDS:
        store = SessionStore(str(tmp_path / f"{backend}-{shards}"))
        cluster = ShardedWebhouse(
            CATALOG_ALPHABET,
            tree_type=catalog_type(),
            shards=shards,
            backend=backend,
            store=store,
        )
        try:
            got = _drive(cluster, source, kill_one=True)
            assert got == expected, f"{backend}/{shards} diverged from mono"
            if backend == "process":
                restarts = sum(
                    row["restarts"] for row in cluster.worker_stats()
                )
                assert restarts >= 1, "the kill never forced a respawn"
        finally:
            cluster.close()


def test_in_memory_invariance_without_store():
    """No store: the backends still agree (nothing is killed here)."""
    source = _source()
    expected = _mono_reference(source)
    for backend in BACKENDS:
        cluster = ShardedWebhouse(
            CATALOG_ALPHABET, tree_type=catalog_type(), shards=2, backend=backend
        )
        try:
            assert _drive(cluster, source) == expected
        finally:
            cluster.close()


# -- exactly-once across respawn ----------------------------------------------


def test_record_deduped_across_worker_respawn(tmp_path):
    """A record retried against a respawned worker lands exactly once."""
    source = _source()
    store = SessionStore(str(tmp_path))
    cluster = ShardedWebhouse(
        CATALOG_ALPHABET,
        tree_type=catalog_type(),
        shards=2,
        backend="process",
        store=store,
    )
    try:
        query = query1()
        answer = source.ask(query)
        cluster.record("alice", query, answer)
        shard = cluster.shard_of("alice")
        cluster.pool().kill(shard)
        # the journal acknowledged the pair before the kill; a client
        # retry of the same pair must not double-record
        cluster.record("alice", query, answer)
        info = cluster.answer_info("alice", query)
        assert info["queries_recorded"] == 1
    finally:
        cluster.close()


def test_journal_fault_absorbed_exactly_once(tmp_path):
    """An injected store fault inside the worker is retried, not doubled."""
    source = _source()
    store = SessionStore(str(tmp_path))
    cluster = ShardedWebhouse(
        CATALOG_ALPHABET,
        tree_type=catalog_type(),
        shards=2,
        backend="process",
        store=store,
    )
    try:
        query = query1()
        answer = source.ask(query)
        plan = FaultPlan.parse("store.journal.append:error:once")
        with fault_scope(plan):
            cluster.record("bob", query, answer)
        info = cluster.answer_info("bob", query)
        assert info["queries_recorded"] == 1
    finally:
        cluster.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_unjournaled_write_survives_reopen(tmp_path, backend):
    """A record whose journal append failed is not acknowledged from
    memory: the host revives the engine from disk, the retry journals
    the pair, and a reopened cluster finds it exactly once."""
    source = _source()
    query = query1()
    answer = source.ask(query)

    def open_cluster():
        return ShardedWebhouse(
            CATALOG_ALPHABET,
            tree_type=catalog_type(),
            shards=2,
            backend=backend,
            store=SessionStore(str(tmp_path)),
        )

    cluster = open_cluster()
    try:
        with fault_scope(FaultPlan.parse("store.journal.append:error:once")):
            cluster.record("bob", query, answer)
        assert cluster.answer_info("bob", query)["queries_recorded"] == 1
    finally:
        cluster.close()
    reopened = open_cluster()
    try:
        assert reopened.answer_info("bob", query)["queries_recorded"] == 1
    finally:
        reopened.close()


# -- remedies and fleet books on both backends ---------------------------------


def test_degrade_remedy_reaches_every_backend():
    """The SLO degrade hook's remedy reaches every session engine,
    worker-hosted ones included, and changes them alike."""
    source = _source()
    sizes = {}
    for backend in BACKENDS:
        cluster = ShardedWebhouse(
            CATALOG_ALPHABET, tree_type=catalog_type(), shards=2, backend=backend
        )
        server = OpsServer(cluster=cluster, source=source)
        try:
            for key in _KEYS[:3]:
                cluster.ask(key, source, query1())
            plain = cluster.answer_info(_KEYS[1], query1())["knowledge_size"]
            server._degrade_for_burn(SimpleNamespace(remedy="conjunctive"))
            assert server.remedies_applied == ["conjunctive"]
            cluster.ask(_KEYS[0], source, query2())
            sizes[backend] = [
                cluster.answer_info(key, query1())["knowledge_size"]
                for key in _KEYS[:3]
            ]
            assert sizes[backend][1] != plain, f"{backend}: remedy had no effect"
        finally:
            server.request_log.close()
            cluster.close()
    assert sizes["thread"] == sizes["process"]


def test_fleet_ask_is_one_worker_request_per_shard():
    """A fleet ``/ask`` takes its union and its books from one fan-out."""
    cluster, source = demo_cluster(shards=2, backend="process", tenants=2)
    server = OpsServer(cluster=cluster, source=source)
    try:
        before = [row["requests_handled"] for row in cluster.worker_stats()]
        status, body = drive_request(server, "/ask?q=q2")
        after = [row["requests_handled"] for row in cluster.worker_stats()]
        assert status == 200
        assert [b - a for a, b in zip(before, after)] == [1, 1]
        document = json.loads(body)
        assert document["sessions"] == len(cluster)
        assert document["knowledge_size"] == cluster.size()
    finally:
        server.request_log.close()
        cluster.close()


# -- context propagation across the hop ---------------------------------------


def test_trace_id_crosses_process_boundary():
    """Worker-side spans carry the caller's trace id via the envelope."""
    obs.enable(obs.RingBufferSink())
    source = _source()
    cluster = ShardedWebhouse(
        CATALOG_ALPHABET, tree_type=catalog_type(), shards=2, backend="process"
    )
    try:
        token = set_trace_id("trace-proc-pin")
        try:
            cluster.ask("alice", source, query1())
        finally:
            reset_trace_id(token)
        shard = cluster.shard_of("alice")
        value = cluster.pool().request(shard, "spans")
        ask_spans = [
            row for row in value["spans"] if row["name"] == "worker.ask"
        ]
        assert ask_spans, f"no worker.ask span in {value['spans']}"
        assert ask_spans[-1]["trace_id"] == "trace-proc-pin"
        assert ask_spans[-1]["shard"] == shard
    finally:
        cluster.close()


def test_trace_id_crosses_thread_pool_boundary():
    """Executor.submit re-binds the caller's trace id in pool threads."""
    executor = Executor(max_workers=2)
    try:
        token = set_trace_id("trace-thread-pin")
        try:
            seen = executor.scatter([0, 1], lambda i, item: current_trace_id())
        finally:
            reset_trace_id(token)
        assert seen == ["trace-thread-pin", "trace-thread-pin"]
    finally:
        executor.shutdown()


def test_expired_deadline_refused_at_the_pool():
    cluster = ShardedWebhouse(
        CATALOG_ALPHABET, tree_type=catalog_type(), shards=1, backend="process"
    )
    try:
        with pytest.raises(DeadlineExceeded):
            cluster.pool().request(
                0, "ping", deadline=Deadline.after(-1.0)
            )
    finally:
        cluster.close()


# -- worker lifecycle ----------------------------------------------------------


def test_hung_worker_times_out_and_respawns():
    cluster = ShardedWebhouse(
        CATALOG_ALPHABET,
        tree_type=catalog_type(),
        shards=1,
        backend="process",
        worker_timeout_s=0.4,
    )
    try:
        pool = cluster.pool()
        with pytest.raises(WorkerUnavailable):
            pool.request(0, "sleep", {"seconds": 30})
        pool.ensure(0)
        assert pool.request(0, "ping")["pid"]
        assert pool.stats()[0]["restarts"] == 1
    finally:
        cluster.close()


def test_pool_standalone_lifecycle():
    pool = ProcWorkerPool(
        [WorkerConfig(shard=0, alphabet=("a", "b"))], request_timeout_s=10.0
    ).start()
    try:
        first = pool.request(0, "ping")["pid"]
        pool.kill(0)
        with pytest.raises(WorkerUnavailable):
            pool.request(0, "ping")
        pool.ensure(0)
        assert pool.request(0, "ping")["pid"] != first
    finally:
        pool.stop()
    # stopped pools refuse politely instead of hanging
    with pytest.raises(WorkerUnavailable):
        pool.request(0, "ping")


def test_backend_validation():
    with pytest.raises(ValueError):
        ShardedWebhouse("ab", backend="fibers")
    cluster = ShardedWebhouse(
        CATALOG_ALPHABET, tree_type=catalog_type(), shards=1, backend="process"
    )
    try:
        assert cluster.backend == "process"
        with pytest.raises(NotImplementedError):
            cluster.engine("alice")
        with pytest.raises(NotImplementedError):
            cluster.resized(2)
    finally:
        cluster.close()
    thread_cluster = ShardedWebhouse(CATALOG_ALPHABET, shards=2)
    try:
        assert thread_cluster.backend == "thread"
        assert thread_cluster.worker_sketches() == {}
        assert thread_cluster.worker_stats() == []
        assert thread_cluster.pool() is None
    finally:
        thread_cluster.close()


# -- pushed-back books ---------------------------------------------------------


def test_worker_books_merge_into_fleet_views():
    obs.enable(obs.RingBufferSink())
    source = _source()
    cluster = ShardedWebhouse(
        CATALOG_ALPHABET, tree_type=catalog_type(), shards=2, backend="process"
    )
    try:
        for key in _KEYS:
            cluster.ask(key, source, query1())
            cluster.answer(key, query1())
        sketches = cluster.worker_sketches()
        assert sketches["ask"].count == len(_KEYS)
        assert sketches["answer"].count == len(_KEYS)
        # worker service time is a component of the router round trip
        merged = cluster.merged_sketches()
        assert merged["ask"].count == len(_KEYS)
        rollup = cluster.stats_all()
        assert rollup["backend"] == "process"
        assert rollup["sessions"] == len(_KEYS)
        assert "worker_latency" in rollup
        assert {row["worker"]["alive"] for row in rollup["per_shard"]} == {True}
    finally:
        cluster.close()


def test_metrics_merge_counts_folds_deltas():
    metrics = Metrics()
    metrics.merge_counts({"refine.steps": 2})
    metrics.merge_counts({"refine.steps": 3, "noop": 0})
    assert metrics.value("refine.steps") == 5
    assert "noop" not in metrics.counters()


# -- the ops plane over the process backend ------------------------------------


def test_ops_server_endpoints_over_process_backend():
    obs.enable(obs.RingBufferSink())
    cluster, source = demo_cluster(shards=2, backend="process", tenants=2)
    server = OpsServer(cluster=cluster, source=source)
    try:
        status, body = drive_request(server, "/ask?q=q1&session=demo")
        assert status == 200
        document = json.loads(body)
        assert document["shard"] == cluster.shard_of("demo")
        assert document["queries_recorded"] >= 1
        status, body = drive_request(server, "/statusz")
        assert status == 200
        assert json.loads(body)["cluster"]["backend"] == "process"
        status, body = drive_request(server, "/ask?q=q2")
        assert status == 200
        assert json.loads(body)["scope"] == "fleet"
        status, body = drive_request(server, "/metrics")
        assert status == 200
        assert "repro_cluster_worker_" in body
    finally:
        server.request_log.close()
        cluster.close()


def test_proc_self_check_passes():
    ok, report = proc_self_check()
    assert ok, report
    assert report[0]["status"] == 200
