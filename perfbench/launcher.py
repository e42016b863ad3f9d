"""Start the server under test; stop it with SIGINT.

    python perfbench/launcher.py [--trace-dump FILE] serve ARGS...
    python perfbench/launcher.py [--trace-dump FILE] durable --root DIR

``serve`` runs exactly ``python -m repro serve ARGS...``.  ``durable``
does what ``repro serve --shards 4`` does, through public APIs (obs on
with a ring-buffer sink, caches on, the ``OpsServer`` defaults), and
adds one thing ``serve`` cannot do: the cluster journals to a
``SessionStore`` under ``DIR`` with the default fsync and snapshot
policy.

With ``--trace-dump FILE`` the layer wrappers of ``tracing.py`` are
installed before anything is served, and the spans they kept are
written to FILE when the server stops.  Either way the server prints
``repro ops plane listening on URL`` on stderr once it accepts
connections.
"""

from __future__ import annotations

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: The durable cluster's shape: what ``repro serve --shards 4`` hosts.
DURABLE_SHARDS = 4


def serve_durable(root: str) -> int:
    from repro import obs, perf
    from repro.cluster import ShardedWebhouse
    from repro.mediator.source import InMemorySource
    from repro.ops import OpsServer
    from repro.store import SessionStore
    from repro.workloads.catalog import (
        CATALOG_ALPHABET,
        catalog_type,
        generate_catalog,
        query1,
    )

    obs.enable(obs.RingBufferSink())
    perf.enable_caches()
    store = SessionStore(root)
    tree_type = catalog_type()
    source = InMemorySource(generate_catalog(8, seed=7), tree_type)
    cluster = ShardedWebhouse(
        CATALOG_ALPHABET, tree_type=tree_type, shards=DURABLE_SHARDS, store=store
    )
    try:
        cluster.ask("demo", source, query1())
        server = OpsServer(cluster=cluster, source=source, store=store).start()
        try:
            print(
                f"repro ops plane listening on {server.url} "
                f"({DURABLE_SHARDS} shards, thread backend, durable store)",
                file=sys.stderr,
                flush=True,
            )
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
    finally:
        cluster.close()
    return 0


def main(argv: list) -> int:
    sys.path.insert(0, SRC)
    dump = None
    if argv[:1] == ["--trace-dump"]:
        dump, argv = argv[1], argv[2:]
    book = None
    if dump is not None:
        import tracing

        book = tracing.SpanBook()
        tracing.install(book)
    try:
        if argv[:1] == ["serve"]:
            from repro.__main__ import main as repro_main

            return repro_main(["repro", *argv])
        if argv[:2] == ["durable", "--root"] and len(argv) == 3:
            return serve_durable(argv[2])
        print(__doc__, file=sys.stderr)
        return 2
    finally:
        if book is not None:
            book.dump(dump)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
