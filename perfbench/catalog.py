"""Metric names and units, and their derivation from spans and counters.

End-to-end metrics are reported with tracing off; per-layer metrics by a
separate traced run.  Every workload reports every metric of its kind: a
layer the workload's path never reaches reads 0 (no span, no count).
"""

from __future__ import annotations

import ast
import json
import os
from typing import Dict, Mapping, Tuple

from common import ROOT


def _declared(kind: str) -> Tuple[Tuple[str, str], ...]:
    """(name, unit) of every ``kind`` metric that BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return tuple((m["name"], m["unit"]) for m in json.load(handle)[kind])


#: BENCHMARK.json is the one list of metric names and units.
E2E = _declared("end_to_end")
PER_LAYER = _declared("per_layer")

#: Self-time metric -> the layer whose spans it sums.
SELF_TIME = {
    "api.query_self_s": "api.query",
    "engine.prepare_s": "engine.prepare",
    "relational.load_s": "relational.load",
    "relational.join_s": "relational.join",
    "relational.insert_s": "relational.insert",
    "core.reorder_s": "core.reorder",
    "core.compile_s": "core.compile",
    "core.compiled_run_s": "core.compiled_run",
    "incremental.apply_s": "incremental.apply",
    "incremental.publish_s": "incremental.publish",
    "api.order_decode_s": "api.order_decode",
    "server.encode_s": "server.encode",
    "durability.wal_append_s": "durability.wal_append",
    "durability.wal_sync_s": "durability.wal_sync",
    "durability.checkpoint_load_s": "durability.checkpoint_load",
    "durability.replay_s": "durability.replay",
}


def counter(snapshot: Mapping[str, object], name: str, **labels) -> float:
    """Sum of the ``name`` series whose labels include ``labels``."""
    total = 0.0
    for key, value in snapshot.items():
        base, _, rest = key.partition("{")
        if base != name:
            continue
        pairs = dict(
            part.split("=", 1) for part in rest.rstrip("}").split(",") if part
        )
        if all(pairs.get(k) == str(v) for k, v in labels.items()):
            total += value["sum"] if isinstance(value, dict) else float(value)
    return total


def histogram(snapshot: Mapping[str, object], name: str) -> Tuple[float, float]:
    """(count, sum) of one histogram, (0, 0) when absent."""
    value = snapshot.get(name)
    if isinstance(value, str):  # the server's metrics op sends repr()s
        value = ast.literal_eval(value)
    if not isinstance(value, dict):
        return 0.0, 0.0
    return float(value["count"]), float(value["sum"])


def merge(snapshots) -> Dict[str, object]:
    """Sum metric snapshots series by series (histograms: count and sum)."""
    out: Dict[str, object] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if isinstance(value, dict):
                held = out.setdefault(key, {"count": 0, "sum": 0.0})
                held["count"] += value["count"]
                held["sum"] += value["sum"]
            else:
                out[key] = out.get(key, 0.0) + float(value)
    return out


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(selfs: Mapping[str, float], spans: Mapping[str, int],
              counts: Mapping[str, float], snapshot: Mapping[str, object],
              per: float, extra: Mapping[str, float]) -> Dict[str, float]:
    """Every per-layer metric; span/counter totals are divided by ``per``
    (evaluations for the batch workloads, 1 for a serve run)."""
    out = {name: selfs.get(layer, 0.0) / per for name, layer in SELF_TIME.items()}
    derived = counts.get("relational.insert.rows_derived", 0.0)
    reorders = counter(snapshot, "reorders_total")
    subqueries = counter(snapshot, "subqueries_total")
    hits = (counter(snapshot, "result_cache_total", result="hit")
            + counter(snapshot, "snapshot_cache_total", result="hit"))
    probes = (counter(snapshot, "result_cache_total")
              + counter(snapshot, "snapshot_cache_total"))
    wal_records = counter(snapshot, "wal_records_total")
    queries = counter(snapshot, "server_requests_total", op="query")
    out.update({
        "relational.join_calls": spans.get("relational.join", 0) / per,
        "relational.rows_derived": derived / per,
        "relational.dedup_yield": ratio(
            counts.get("relational.insert.rows_accepted", 0.0), derived),
        "core.reorders": reorders / per,
        "core.reorder_yield": ratio(
            counter(snapshot, "reorders_changed_total"), reorders),
        "core.compilations": counter(snapshot, "compilations_total") / per,
        "core.iterations": counter(snapshot, "engine_iterations_total") / per,
        "core.vectorized_share": ratio(
            counter(snapshot, "subqueries_total", source="vectorized"),
            subqueries),
        "incremental.cache_hit_ratio": ratio(hits, probes),
        "api.rows_decoded": counts.get("api.order_decode.rows", 0.0) / per,
        "server.group_commit_size": ratio(
            *reversed(histogram(snapshot, "server_group_commit_size"))),
        # Server reads that missed its per-version result memo are the ones
        # that opened a snapshot query.
        "server.result_cache_hit_ratio": 1.0 - ratio(
            counter(snapshot, "snapshot_queries_total"), queries
        ) if queries else 0.0,
        "durability.wal_bytes_per_write": ratio(
            counter(snapshot, "wal_bytes_total"), wal_records),
        "durability.checkpoint_s": histogram(snapshot, "checkpoint_seconds")[1],
        "durability.checkpoints": counter(snapshot, "checkpoints_total"),
        "durability.replayed_records": counter(
            snapshot, "recovery_records_replayed_total"),
        "incremental.dred_s": 0.0,
        "server.request_ms": 0.0,
        "server.client_gap_ms": 0.0,
        "loadgen.late_p99_ms": 0.0,
        "loadgen.achieved_rate": 0.0,
        "trace.overhead": 0.0,
    })
    out.update(extra)
    return out


def with_units(values: Mapping[str, float],
               catalog: Tuple[Tuple[str, str], ...]) -> Dict[str, Tuple[float, str]]:
    return {name: (values[name], unit) for name, unit in catalog}
