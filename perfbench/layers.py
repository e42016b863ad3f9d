"""Per-layer metrics from a traced run's span dump.

Only spans whose trace id belongs to a measured request count.  Each
span ``S`` gives ``S.p50_ms`` and ``S.p90_ms`` (inclusive duration per
call) and ``S.calls_per_req``; a layer a workload never reaches reports
0 calls and 0 ms.  :func:`self_times` gives each span's self time: its
duration minus the part of it its (timed) child spans cover.

Two spans are computed here rather than recorded:

* ``ops.http_residual`` = client latency (send to last byte) minus
  ``ops.dispatch`` minus ``ops.finish_request`` of the same trace id:
  HTTP framing, parsing, the socket hops and the keep-alive stall.
  ``finish_request`` runs after the body is written, so part of it
  overlaps the client's wait and the residual slightly undercounts.
* ``proc.transit`` = ``proc.request`` minus its ``wire.encode``,
  ``wire.decode`` and ``proc.worker_service`` children: the pipe hop
  and the scheduling on both sides of it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence

SPANS = (
    "ops.dispatch",
    "ops.finish_request",
    "ops.parse_query_spec",
    "ops.http_residual",
    "cluster.admission_wait",
    "cluster.read_lock_wait",
    "cluster.write_lock_wait",
    "cluster.keyed_op",
    "cluster.ask_all",
    "cluster.scatter",
    "cluster.slowest_shard",
    "proc.request",
    "wire.encode",
    "wire.decode",
    "proc.worker_service",
    "proc.transit",
    "mediator.answer_with_caveats",
    "mediator.ask",
    "mediator.prepare",
    "answering.fully_answerable",
    "incomplete.certain_prefix",
    "core.query_evaluate",
    "refine.refine",
    "refine.intersect_with_tree_type",
    "store.journal_append",
    "store.snapshot",
    "store.session_create",
)

#: The perf memo tables whose hit ratios are reported.
PERF_TABLES = (
    "emptiness",
    "normalize",
    "matching",
    "type_intersect",
    "refine",
    "minimize",
    "query_incomplete",
)

#: (name, unit, better) of every count and ratio besides the spans.
COUNTS = (
    ("cluster.shed", "count", "lower"),
    ("cluster.retries", "count", "lower"),
    ("cluster.degraded", "count", "lower"),
    ("wire.bytes_per_req", "B", "lower"),
    ("refine.knowledge_size", "count", "lower"),
    ("store.fsyncs_per_write", "count", "lower"),
    ("store.bytes_per_write", "B", "lower"),
    *((f"perf.{table}.hit_ratio", "ratio", "higher") for table in PERF_TABLES),
    ("perf.intern.hit_ratio", "ratio", "higher"),
    ("perf.evictions", "count", "lower"),
    ("loadgen.lag_p90_ms", "ms", "lower"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.failed", "count", "lower"),
    ("trace_overhead", "ratio", "lower"),
    ("ops.http_residual.share_of_read_p50", "ratio", "lower"),
    ("ops.http_residual.share_closed", "ratio", "lower"),
)


def per_layer_catalogue() -> List[dict]:
    """Every per-layer metric as ``{"name", "unit", "better"}``."""
    rows = []
    for span in SPANS:
        rows.append({"name": f"{span}.p50_ms", "unit": "ms", "better": "lower"})
        rows.append({"name": f"{span}.p90_ms", "unit": "ms", "better": "lower"})
        rows.append({"name": f"{span}.calls_per_req", "unit": "count", "better": "lower"})
    rows.extend({"name": n, "unit": u, "better": b} for n, u, b in COUNTS)
    return rows


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _covered(intervals: Iterable[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _framing(spans: Iterable[list]) -> Dict[str, float]:
    """Per trace id, seconds in ``ops.dispatch`` + ``ops.finish_request``."""
    per_trace: Dict[str, float] = defaultdict(float)
    for trace, _sid, _parent, name, start, end, _derived in spans:
        if name in ("ops.dispatch", "ops.finish_request"):
            per_trace[trace] += end - start
    return per_trace


def durations(spans: List[list], results: Sequence) -> Dict[str, List[float]]:
    """Per span name, the per-call durations (s), including the two
    computed spans; ``spans`` are those of the ``results``' traces."""
    by_name: Dict[str, List[float]] = defaultdict(list)
    children = defaultdict(list)
    for trace, sid, parent, name, start, end, _derived in spans:
        by_name[name].append(end - start)
        children[parent].append(end - start)
    for trace, sid, parent, name, start, end, _derived in spans:
        if name == "proc.request":
            by_name["proc.transit"].append(max(0.0, end - start - sum(children[sid])))
    framing = _framing(spans)
    for result in results:
        if result.trace_id in framing:
            by_name["ops.http_residual"].append(
                max(0.0, result.service_s - framing[result.trace_id])
            )
    return by_name


def self_times(spans: List[list]) -> Dict[str, float]:
    """Total self time (s) per span name.

    A timed span's self time is its duration minus the union of its
    timed children's intervals (scatter tasks overlap) and minus its
    nested children's durations; ``summary`` spans are left out.
    """
    timed = defaultdict(list)
    nested = defaultdict(float)
    for trace, sid, parent, name, start, end, derived in spans:
        if derived is None:
            timed[parent].append((start, end))
        elif derived == "nested":
            nested[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for trace, sid, parent, name, start, end, derived in spans:
        if derived == "summary":
            continue
        inner = [(max(a, start), min(b, end)) for a, b in timed[sid] if b > start and a < end]
        totals[name] += max(0.0, end - start - _covered(inner) - nested[sid])
    return dict(totals)


def _perf_ratios(dump: dict, traces: set) -> Dict[str, float]:
    snapshots = [tables for trace, tables in dump["perf"] if trace in traces]
    metrics: Dict[str, float] = {}
    evictions = 0
    for table in PERF_TABLES + ("intern",):
        if len(snapshots) < 2:
            hits = misses = 0
        else:
            first, last = snapshots[0][table], snapshots[-1][table]
            hits, misses = last[0] - first[0], last[1] - first[1]
            if table != "intern":
                evictions += last[2] - first[2]
        lookups = hits + misses
        metrics[f"perf.{table}.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["perf.evictions"] = evictions
    return metrics


def per_layer(
    dump: dict, results: Sequence, read_p50_s: float, client: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric value for the measured ``results``.

    ``read_p50_s`` is the traced open-loop read p50 the residual share
    is taken of; ``client`` holds what only the client measures
    (``store.bytes_per_write``, ``loadgen.*``, ``trace_overhead``).
    """
    traces = {r.trace_id for r in results if r.trace_id}
    spans = measured_spans(dump, results)
    requests = max(1, len(results))
    by_name = durations(spans, results)
    metrics: Dict[str, float] = {}
    for span in SPANS:
        values = by_name.get(span, [])
        metrics[f"{span}.p50_ms"] = percentile(values, 0.5) * 1000
        metrics[f"{span}.p90_ms"] = percentile(values, 0.9) * 1000
        metrics[f"{span}.calls_per_req"] = len(values) / requests
    counts: Dict[str, float] = defaultdict(float)
    for trace, name, value in dump["counts"]:
        if trace in traces:
            counts[name] += value
    writes = [r for r in results if r.request.kind == "write"]
    metrics["cluster.shed"] = counts["cluster.shed"]
    metrics["cluster.retries"] = counts["cluster.retries"]
    metrics["cluster.degraded"] = counts["cluster.degraded"]
    metrics["wire.bytes_per_req"] = counts["wire.bytes"] / requests
    metrics["refine.knowledge_size"] = percentile(
        [r.body["knowledge_size"] for r in writes if r.body], 0.5
    )
    # reads never fsync: every fsync of a measured trace is a write's
    metrics["store.fsyncs_per_write"] = counts["store.fsync"] / len(writes) if writes else 0.0
    metrics.update(_perf_ratios(dump, traces))
    framing = _framing(spans)

    def residual_p50(chosen):
        return percentile([max(0.0, r.service_s - framing[r.trace_id]) for r in chosen], 0.5)

    open_reads = [r for r in results if r.request.kind == "read" and r.phase == "open"]
    metrics["ops.http_residual.share_of_read_p50"] = (
        residual_p50(open_reads) / read_p50_s if read_p50_s else 0.0
    )
    # the closed loop reuses each connection at once, which is when the
    # keep-alive stall fires (NOTES.md); the open loop's gaps avoid it
    closed = [r for r in results if r.phase == "closed"]
    service = percentile([r.service_s for r in closed], 0.5)
    metrics["ops.http_residual.share_closed"] = (
        residual_p50(closed) / service if service else 0.0
    )
    metrics.update(client)
    return metrics


def measured_spans(dump: dict, results: Sequence) -> List[list]:
    """The dump's spans that belong to the ``results``' trace ids."""
    traces = {r.trace_id for r in results if r.trace_id}
    return [span for span in dump["spans"] if span[0] in traces]
