"""The benchmark's three traffic mixes, as seeded request streams.

Every workload is a pure function of ``(seed, connection count)``: the
set-up requests, and per connection an endless stream of requests.  A
session is owned by exactly one connection, so its requests reach the
server in the order they were generated.  The server only ever sees the
generated HTTP requests; the seed never reaches it.

The served document is the one ``python -m repro serve`` hosts by
default (``generate_catalog(8, seed=7)``), with session ``demo``
pre-recorded with Query 1; the replica used to check answers
(``verify.py``) rebuilds exactly that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional
from urllib.parse import quote

#: The named queries the ops server understands (``q1``..``q4``).
NAMED = ("q1", "q2", "q3", "q4")

#: Sessions populated before the measured phase of ``read_hot`` and
#: ``fleet_proc``.  16 sessions x 8 read specs (``HOT_POOL``) = 128
#: distinct (knowledge, query) pairs, under 256, the smallest
#: memo-table capacity (``type_intersect``, ``refine``, ``minimize``),
#: so the read working set fits every cache.
HOT_SESSIONS = 16

#: Fetches per ``ingest_durable`` session are bounded: re-fetching one
#: session grows its representation, and with it the cost of every
#: later fetch (see NOTES.md, "Re-fetch growth").
MAX_FETCHES = 3

@dataclass(frozen=True)
class Request:
    """One ``/ask`` request: a keyed read, a keyed fetch, or a fleet ask."""

    kind: str
    spec: str
    session: Optional[str] = None

    @property
    def path(self) -> str:
        parts = []
        if self.session is not None:
            parts.append(f"session={self.session}")
        parts.append(f"q={quote(self.spec, safe='')}")
        if self.kind == "write":
            parts.append("mode=fetch")
        return "/ask?" + "&".join(parts)


def price_spec(threshold: float) -> str:
    return f"catalog/product/price[<{threshold:g}]"


#: The 8 read specs of the hot workloads: q1..q4 plus 4 price paths
#: spread over the catalog's price range.  They are fixed, not seeded:
#: a seeded threshold near either end of the range selects almost no
#: product or almost all, which moved fleet-ask cost by a third from
#: seed to seed.  The seed picks each session's fetches and the order
#: of the reads.
HOT_POOL = tuple(NAMED) + tuple(price_spec(t) for t in (150, 350, 550, 800))


class Workload:
    """A named traffic mix; subclasses define requests and the server."""

    name = ""
    #: the open-loop offered rate over all connections, requests/s; a
    #: constant of the benchmark, below the capacity of the seed commit.
    #: Each connection must idle over 40 ms between a response and its
    #: next request, or the keep-alive stall (NOTES.md) fires and pushes
    #: the offered load past capacity.  With 2 connections, 16/s leaves
    #: 125 ms per request, so a response may take up to 85 ms (a fetch
    #: or fleet ask on a busy host) before the stall can fire.
    rate_rps = 16.0

    def setup_requests(self, seed: int, conns: int) -> List[List[Request]]:
        """Per connection, the requests that populate the server."""
        return [[] for _ in range(conns)]

    def warmup_requests(self, seed: int, conns: int) -> Optional[List[List[Request]]]:
        """Per connection, requests that warm every cache the measured
        phase uses; None warms up with the workload's own stream."""
        return None

    def stream(self, seed: int, conn: int, conns: int) -> Iterator[Request]:
        """The endless measured request stream of one connection."""
        raise NotImplementedError

    def server(self, conns: int) -> dict:
        """How to launch the server: ``{"serve": [...]}`` args for
        ``repro serve``, or ``{"durable": True}`` for the durable
        launcher."""
        raise NotImplementedError


class _HotSessions(Workload):
    """Shared shape of ``read_hot`` and ``fleet_proc``: 16 sessions,
    each populated with two distinct seeded fetches."""

    @staticmethod
    def sessions(conn: int, conns: int) -> List[str]:
        return [f"hot-{i:02d}" for i in range(HOT_SESSIONS) if i % conns == conn]

    def setup_requests(self, seed: int, conns: int) -> List[List[Request]]:
        rng = random.Random(seed * 7919 + 1)
        per_conn: List[List[Request]] = [[] for _ in range(conns)]
        for i in range(HOT_SESSIONS):
            session = f"hot-{i:02d}"
            for spec in rng.sample(HOT_POOL, 2):
                per_conn[i % conns].append(Request("write", spec, session))
        return per_conn

    def warmup_requests(self, seed: int, conns: int) -> List[List[Request]]:
        """Every (session, spec) read once, and every spec fleet-wide
        once: the first read of a pair fills the memo tables, and a
        random stream would leave pairs cold well into the measured
        phase."""
        return [
            [Request("read", spec, s) for s in self.sessions(c, conns) for spec in HOT_POOL]
            for c in range(conns)
        ]


class ReadHot(_HotSessions):
    name = "read_hot"

    def stream(self, seed: int, conn: int, conns: int) -> Iterator[Request]:
        mine = self.sessions(conn, conns)
        rng = random.Random(seed * 7919 + 100 + conn)
        while True:
            yield Request("read", rng.choice(HOT_POOL), rng.choice(mine))

    def server(self, conns: int) -> dict:
        return {"serve": ["--shards", "4"]}


class FleetProc(_HotSessions):
    name = "fleet_proc"

    def stream(self, seed: int, conn: int, conns: int) -> Iterator[Request]:
        mine = self.sessions(conn, conns)
        rng = random.Random(seed * 7919 + 200 + conn)
        while True:
            if rng.random() < 0.5:
                yield Request("fleet", rng.choice(HOT_POOL))
            else:
                yield Request("read", rng.choice(HOT_POOL), rng.choice(mine))

    def warmup_requests(self, seed: int, conns: int) -> List[List[Request]]:
        per_conn = super().warmup_requests(seed, conns)
        per_conn[0] += [Request("fleet", spec) for spec in HOT_POOL]
        return per_conn

    def server(self, conns: int) -> dict:
        return {"serve": ["--shards", str(conns), "--backend", "process"]}


class IngestDurable(Workload):
    name = "ingest_durable"

    def stream(self, seed: int, conn: int, conns: int) -> Iterator[Request]:
        rng = random.Random(seed * 7919 + 300 + conn)
        number = 0
        while True:
            session = f"in-{conn}-{number:05d}"
            number += 1
            yield from self.lifecycle(rng, session)

    @staticmethod
    def lifecycle(rng: random.Random, session: str) -> Iterator[Request]:
        """2..3 fetches drawn with replacement from a personal set of 3
        specs (so re-fetches occur), each followed by 1..2 reads.

        Price thresholds come from 99k distinct values inside the
        catalog's price range, so (knowledge, pair) keys rarely repeat
        across sessions and the memo tables mostly miss.
        """
        personal = [
            rng.choice(NAMED)
            if rng.random() < 0.25
            else price_spec(rng.randrange(1000, 100000) / 100)
            for _ in range(3)
        ]
        for _ in range(rng.randint(2, MAX_FETCHES)):
            yield Request("write", rng.choice(personal), session)
            for _ in range(1 + (rng.random() < 0.25)):
                spec = (
                    rng.choice(personal)
                    if rng.random() < 0.5
                    else price_spec(rng.randrange(1000, 100000) / 100)
                )
                yield Request("read", spec, session)

    def server(self, conns: int) -> dict:
        return {"durable": True}


WORKLOADS = {w.name: w for w in (ReadHot(), IngestDurable(), FleetProc())}


def open_loop_interval(workload: Workload, conns: int) -> float:
    """Seconds between two due times on one connection."""
    return conns / workload.rate_rps


def render_schedule(
    workload: Workload, seed: int, conns: int, per_conn: int
) -> bytes:
    """The set-up and warm-up lists, then the first ``per_conn``
    streamed requests of every connection with their open-loop due
    offsets, as bytes."""
    interval = open_loop_interval(workload, conns)
    lines: List[str] = []
    for conn, setup in enumerate(workload.setup_requests(seed, conns)):
        lines.extend(f"setup {conn} {request.path}" for request in setup)
    for conn, warmup in enumerate(workload.warmup_requests(seed, conns) or []):
        lines.extend(f"warmup {conn} {request.path}" for request in warmup)
    for conn in range(conns):
        stream = workload.stream(seed, conn, conns)
        for index in range(per_conn):
            due = conn * interval / conns + index * interval
            lines.append(f"{conn} {due:.6f} {next(stream).path}")
    return ("\n".join(lines) + "\n").encode("utf-8")
