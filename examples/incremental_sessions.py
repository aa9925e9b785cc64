"""Connections: serve queries while the fact base changes.

Builds a reachability program over a random graph, opens a long-lived
:class:`repro.Connection` (which wraps an incremental evaluation session),
and streams mutation batches through it — comparing the per-batch repair
latency against a one-shot ``Database.query`` recompute from scratch, and
showing repeated reads between updates served from the storage's frozen
rows, memoised per relation generation.

Run with:  python examples/incremental_sessions.py
"""

from __future__ import annotations

import time

from repro import Database, EngineConfig
from repro.analyses.micro import build_transitive_closure_program
from repro.workloads import edge_update_stream


def main() -> None:
    stream = edge_update_stream(
        nodes=1_500, initial_edges=1_200, batches=6, batch_size=8,
        retract_fraction=0.4, seed=2024,
    )
    db = Database(
        build_transitive_closure_program(stream.initial["edge"]),
        EngineConfig.interpreted(),
    )
    conn = db.connect()
    conn.refresh()
    print(f"initial fixpoint: {conn.query('path').count()} path tuples "
          f"from {len(stream.initial['edge'])} edges\n")

    for i, batch in enumerate(stream, start=1):
        report = conn.apply(inserts=batch.inserts, retracts=batch.retracts)

        started = time.perf_counter()
        scratch_db = Database(conn.session.snapshot_program(), db.config)
        scratch = scratch_db.query("path")
        scratch_seconds = time.perf_counter() - started

        assert conn.query("path") == scratch, "incremental state diverged"
        print(f"batch {i}: +{batch.insert_count()} / -{batch.retract_count()} facts   "
              f"incremental {report.seconds * 1000:7.2f} ms   "
              f"recompute {scratch_seconds * 1000:7.2f} ms   "
              f"(cone {report.over_deleted}, rederived {report.rederived})")

    conn.query("path")
    conn.query("path")
    metrics = db.metrics()
    hits = metrics["result_cache_total{result=hit}"]
    misses = metrics["result_cache_total{result=miss}"]
    print(f"\nfrozen-rows memo: {hits} hits / {misses} misses across "
          f"{conn.session.updates_applied} updates")
    conn.close()


if __name__ == "__main__":
    main()
