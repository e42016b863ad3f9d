"""Check every response against an in-process replay of its history.

The replica is the exact engine (caches off) over the document
``repro serve`` hosts, with session ``demo`` pre-recorded with Query 1
as ``demo_cluster`` does.  Each session's requests are replayed in the
order its connection sent them:

* a fetch must report ``answer_nodes`` equal to what the source returns
  and the replica's history length;
* a keyed read must report the replica's ``sure_nodes``,
  ``may_have_more`` and history length;
* a fleet ask must report the union of every session's sure answer,
  ``may_have_more`` if any session may have more, and the session count.

Fleet asks are only checked in workloads whose measured phase does not
write (``fleet_proc``): only then is the fleet's knowledge fixed while
they run.  A failed fetch leaves the server's state unknown, so every
later request of that session counts as failed too.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro import perf
from repro.core.parsing import parse_query_spec
from repro.mediator.source import InMemorySource
from repro.mediator.webhouse import Webhouse
from repro.workloads.catalog import (
    CATALOG_ALPHABET,
    catalog_type,
    generate_catalog,
    query1,
    query2,
    query3,
    query4,
)

_NAMED = {"q1": query1, "q2": query2, "q3": query3, "q4": query4}

#: What ``repro serve`` hosts by default: 8 products, catalog seed 7.
SERVED_PRODUCTS = 8
SERVED_SEED = 7


class Replica:
    """The expected state of every session the server holds."""

    def __init__(self) -> None:
        self._tree_type = catalog_type()
        self.source = InMemorySource(
            generate_catalog(SERVED_PRODUCTS, seed=SERVED_SEED), self._tree_type
        )
        self._queries: Dict[str, object] = {}
        self._source_answers: Dict[str, int] = {}
        self._reads: Dict[Tuple[str, int, str], Tuple[Set[str], bool]] = {}
        self.engines: Dict[str, Webhouse] = {}
        self.tainted: Set[str] = set()
        with perf.uncached():
            self._engine("demo").ask(self.source, query1())

    def _engine(self, session: str) -> Webhouse:
        engine = self.engines.get(session)
        if engine is None:
            engine = Webhouse(CATALOG_ALPHABET, tree_type=self._tree_type)
            self.engines[session] = engine
        return engine

    def _query(self, spec: str):
        query = self._queries.get(spec)
        if query is None:
            query = self._queries[spec] = parse_query_spec(spec, named=_NAMED)
        return query

    def source_answer(self, spec: str) -> int:
        """Node count of the source's answer to ``spec``."""
        count = self._source_answers.get(spec)
        if count is None:
            count = self._source_answers[spec] = len(self.source.ask(self._query(spec)))
        return count

    def fetch(self, session: str, spec: str) -> int:
        """Replay one fetch; returns the session's history length."""
        engine = self._engine(session)
        with perf.uncached():
            engine.ask(self.source, self._query(spec))
        return len(engine.history)

    def read(self, session: str, spec: str) -> Tuple[Set[str], bool, int]:
        """``(sure node ids, may_have_more, history length)``."""
        engine = self.engines.get(session)
        if engine is None:  # the cluster answers unknown keys this way
            return set(), True, 0
        version = len(engine.history)
        key = (session, version, spec)
        cached = self._reads.get(key)
        if cached is None:
            with perf.uncached():
                sure, more = engine.answer_with_caveats(self._query(spec))
            cached = self._reads[key] = (set(sure.node_ids()), more)
        return cached[0], cached[1], version

    def fleet(self, spec: str) -> Tuple[int, bool, int]:
        """``(union node count, may_have_more, sessions)`` over all sessions."""
        union: Set[str] = set()
        more = not self.engines
        for session in sorted(self.engines):
            sure, session_more, _ = self.read(session, spec)
            union |= sure
            more = more or session_more
        return len(union), more, len(self.engines)


def check(replica: Replica, result) -> Optional[str]:
    """Verify one response; returns a mismatch description or None."""
    request = result.request
    session = request.session
    if session in replica.tainted or (
        request.kind == "fleet" and replica.tainted
    ):
        return "unverifiable: an earlier fetch of this session failed"
    if result.status != 200:
        if request.kind == "write":
            replica.tainted.add(session)
        return f"status {result.status}: {result.error}"
    body = result.body
    if request.kind == "write":
        expected = {
            "answer_nodes": replica.source_answer(request.spec),
            "queries_recorded": replica.fetch(session, request.spec),
        }
    elif request.kind == "read":
        sure, more, version = replica.read(session, request.spec)
        expected = {
            "sure_nodes": len(sure),
            "may_have_more": more,
            "queries_recorded": version,
        }
    else:
        count, more, sessions = replica.fleet(request.spec)
        expected = {"sure_nodes": count, "may_have_more": more, "sessions": sessions}
    wrong = {k: (body.get(k), v) for k, v in expected.items() if body.get(k) != v}
    if wrong:
        if request.kind == "write":
            replica.tainted.add(session)
        return f"{request.path}: got/expected {wrong}"
    return None


def check_all(replica: Replica, results: Iterable) -> List[Tuple[object, str]]:
    """Verify results in order; returns the ``(result, reason)`` failures."""
    failures = []
    for result in results:
        reason = check(replica, result)
        if reason is not None:
            failures.append((result, reason))
    return failures
