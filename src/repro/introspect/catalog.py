"""The system catalog: engine internals as queryable ``sys_`` relations.

One :class:`SystemCatalog` serves one connection (or one-shot query): it
snapshots the telemetry ring, the metrics registry and the bound session's
storage/shard state into plain raw-domain rows, and materializes them into
a session's :class:`~repro.relational.storage.StorageManager` as ordinary
base facts whenever a program references a ``sys_`` relation in a rule
body.  Materialized rows go through ``storage.symbols`` like any other
fact, so catalog relations join, negate and aggregate against user
relations in every execution mode.

Freshness: each materialization records a content digest per ``sys_``
relation, and a refresh rewrites only the relations whose digest moved.  A
rewrite bumps the relation's storage generation — the validity token of
the session's per-generation frozen rows — so a read serves a new result
exactly when the observed catalog state differs, and an unchanged ring
keeps generations (and memoised results) stable.

Rows are *snapshots*: a catalog relation reflects the engine state at the
moment it was (re-)materialized, which for queries through the engine is
the start of the fetch — the currently-open query trace is never included
(its root span has not finished, so it is not in the ring yet).
"""

from __future__ import annotations

import hashlib
import sys as _sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.sinks import query_summary_rows

Row = Tuple[Any, ...]

#: Every catalog relation and its column names (the arity is implied).
CATALOG_COLUMNS: Dict[str, Tuple[str, ...]] = {
    "sys_relations": ("name", "arity", "cardinality", "generation"),
    "sys_queries": (
        "trace_id", "fingerprint", "relation", "latency_us", "rows",
        "cache_status",
    ),
    "sys_spans": (
        "span_id", "parent_id", "trace_id", "name", "start_ns", "duration_ns",
    ),
    "sys_span_attrs": ("span_id", "key", "value"),
    "sys_metrics": ("name", "labels", "kind", "value"),
    "sys_shards": ("shard", "pool", "degradations"),
    "sys_symbols": ("count", "bytes_estimate"),
    "sys_connections": (
        "conn", "peer", "state", "mode", "queries", "mutations",
        "bytes_in", "bytes_out",
    ),
    "sys_server": (
        "uptime_seconds", "connections", "queue_depth", "queue_capacity",
        "policy", "mutations_applied", "shed_total", "rejected_total",
        "snapshot_version", "snapshots_live",
    ),
    "sys_durability": (
        "dir", "fsync", "wal_records", "wal_bytes", "checkpoints_written",
        "recovered_records", "recovered_rows", "recovery_seconds",
    ),
    "sys_resilience": ("kind", "name", "value"),
}

#: Relation names starting with this prefix belong to the engine: rules may
#: read them, but never define them (enforced by the safety checker).
RESERVED_PREFIX = "sys_"


def is_catalog_relation(name: str) -> bool:
    """Whether ``name`` is one of the queryable catalog relations."""
    return name in CATALOG_COLUMNS


def catalog_relation_names() -> Tuple[str, ...]:
    """Every catalog relation name, sorted."""
    return tuple(sorted(CATALOG_COLUMNS))


def _digest_rows(rows: Sequence[Row]) -> str:
    """A stable content digest of one relation's raw-domain rows."""
    digest = hashlib.sha256()
    for row in sorted(map(repr, rows)):
        digest.update(row.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


class SystemCatalog:
    """Materializes engine internals as ``sys_`` relations.

    Parameters
    ----------
    metrics:
        The :class:`MetricsRegistry` behind ``sys_metrics`` (the database's
        shared registry, so catalog reads see the whole workload).
    ring:
        Any object with a ``traces()`` method returning finished
        :class:`~repro.telemetry.spans.Trace` objects — normally the
        :class:`~repro.telemetry.sinks.RingBufferSink` of the effective
        :class:`~repro.telemetry.TelemetryConfig`.  ``None`` (telemetry
        off) leaves the trace-backed relations empty.

    Storage- and shard-backed relations read through late-bound providers
    (:meth:`bind_storage`, :meth:`bind_shards`) installed by the API layer
    once the session exists; :meth:`install`/:meth:`refresh` receive the
    storage explicitly, so materialization into a session under
    construction needs no provider.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 ring: Optional[object] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.ring = ring
        self._storage_provider: Optional[Callable[[], object]] = None
        self._shard_provider: Optional[Callable[[], List[Row]]] = None
        self._connection_provider: Optional[Callable[[], List[Row]]] = None
        self._server_provider: Optional[Callable[[], List[Row]]] = None
        self._durability_provider: Optional[Callable[[], List[Row]]] = None
        self._resilience_provider: Optional[Callable[[], List[Row]]] = None
        #: Last materialized content digest per relation (per catalog —
        #: catalogs are per-connection, so this is per-storage too).
        self._digests: Dict[str, str] = {}

    # -- provider binding --------------------------------------------------------

    def bind_storage(self, provider: Callable[[], object]) -> None:
        """Install the storage accessor behind direct ``sys_relations``/
        ``sys_symbols`` reads (a zero-argument callable, late-bound so the
        catalog can be constructed before the session it observes)."""
        self._storage_provider = provider

    def bind_shards(self, provider: Callable[[], List[Row]]) -> None:
        """Install the provider of ``sys_shards`` rows."""
        self._shard_provider = provider

    def bind_connections(self, provider: Callable[[], List[Row]]) -> None:
        """Install the provider of ``sys_connections`` rows (the query
        server's session registry; empty when not serving)."""
        self._connection_provider = provider

    def bind_server(self, provider: Callable[[], List[Row]]) -> None:
        """Install the provider of the single ``sys_server`` row."""
        self._server_provider = provider

    def bind_durability(self, provider: Callable[[], List[Row]]) -> None:
        """Install the provider of the single ``sys_durability`` row (the
        durable writer's WAL/checkpoint/recovery state; empty elsewhere)."""
        self._durability_provider = provider

    def bind_resilience(self, provider: Callable[[], List[Row]]) -> None:
        """Install the provider of ``sys_resilience`` rows (governance
        aborts, degradations, worker failures and fault-injection counts)."""
        self._resilience_provider = provider

    # -- row sources -------------------------------------------------------------

    def rows(self, name: str, storage: Optional[object] = None) -> List[Row]:
        """Current raw-domain rows of catalog relation ``name``.

        Raises :class:`KeyError` for names outside the catalog.  ``storage``
        overrides the bound provider (used during materialization, when the
        session owning the storage is still under construction).
        """
        if name not in CATALOG_COLUMNS:
            raise KeyError(
                f"unknown system relation {name!r}; "
                f"available: {catalog_relation_names()}"
            )
        if storage is None and self._storage_provider is not None:
            storage = self._storage_provider()
        if name == "sys_relations":
            return self._relation_rows(storage)
        if name == "sys_queries":
            return [] if self.ring is None else query_summary_rows(
                self.ring.traces()
            )
        if name == "sys_spans":
            return self._span_rows()
        if name == "sys_span_attrs":
            return self._attr_rows()
        if name == "sys_metrics":
            return self.metrics.rows()
        if name == "sys_shards":
            return [] if self._shard_provider is None else list(
                self._shard_provider()
            )
        if name == "sys_connections":
            return [] if self._connection_provider is None else list(
                self._connection_provider()
            )
        if name == "sys_server":
            return [] if self._server_provider is None else list(
                self._server_provider()
            )
        if name == "sys_durability":
            return [] if self._durability_provider is None else list(
                self._durability_provider()
            )
        if name == "sys_resilience":
            return [] if self._resilience_provider is None else list(
                self._resilience_provider()
            )
        return self._symbol_rows(storage)  # sys_symbols

    def _relation_rows(self, storage: Optional[object]) -> List[Row]:
        if storage is None:
            return []
        rows: List[Row] = []
        for name in storage.relation_names():
            # Catalog relations are excluded from their own listing: their
            # cardinality/generation churns on every materialization, which
            # would make the digest (and with it every generation) unstable.
            if name.startswith(RESERVED_PREFIX):
                continue
            rows.append((
                name,
                storage.arity_of(name),
                storage.cardinality(name),
                storage.generation(name),
            ))
        return rows

    def _span_rows(self) -> List[Row]:
        if self.ring is None:
            return []
        rows: List[Row] = []
        for trace in self.ring.traces():
            rows.extend(trace.span_rows())
        return rows

    def _attr_rows(self) -> List[Row]:
        if self.ring is None:
            return []
        rows: List[Row] = []
        for trace in self.ring.traces():
            rows.extend(trace.attr_rows())
        return rows

    def _symbol_rows(self, storage: Optional[object]) -> List[Row]:
        if storage is None:
            return []
        symbols = storage.symbols
        if getattr(symbols, "identity", True):
            return [(0, 0)]
        bytes_estimate = sum(_sys.getsizeof(value) for value in symbols.values())
        return [(len(symbols), bytes_estimate)]

    # -- program integration -----------------------------------------------------

    def names_in(self, program) -> Tuple[str, ...]:
        """The catalog relations ``program`` references, sorted."""
        return tuple(sorted(
            name for name in program.relations
            if name.startswith(RESERVED_PREFIX)
        ))

    def validate_program(self, program) -> None:
        """Check every referenced ``sys_`` relation exists with the right arity."""
        for name in self.names_in(program):
            columns = CATALOG_COLUMNS.get(name)
            if columns is None:
                raise ValueError(
                    f"unknown system relation {name!r}; "
                    f"available: {catalog_relation_names()}"
                )
            declared = program.relations[name].arity
            if declared != len(columns):
                raise ValueError(
                    f"system relation {name!r} has arity {len(columns)} "
                    f"{columns}, but the program uses arity {declared}"
                )

    def install(self, storage, program) -> None:
        """Materialize every referenced catalog relation into ``storage``.

        Called by ``prepare_evaluation`` at session/engine setup.
        """
        self.validate_program(program)
        self.refresh(storage, self.names_in(program))

    def refresh(self, storage, names: Sequence[str]) -> bool:
        """Re-materialize ``names`` into ``storage``; whether any changed.

        Rows are interned through ``storage.symbols`` and inserted as base
        facts — the same path user facts take — so a recompute from base
        rows preserves them.  Unchanged relations (by content digest) are
        left untouched, keeping their generations stable.
        """
        changed = False
        for name in names:
            raw = self.rows(name, storage=storage)
            digest = _digest_rows(raw)
            if self._digests.get(name) == digest:
                continue
            encoded = set(storage.symbols.intern_rows(raw))
            stale = set(storage.base_rows(name)) - encoded
            if stale:
                for row in stale:
                    storage.forget_base_row(name, row)
                storage.retract_rows(name, stale)
            for row in encoded:
                storage.insert_base(name, row)
            self._digests[name] = digest
            changed = True
        return changed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        bound = "bound" if self._storage_provider is not None else "unbound"
        ring = "off" if self.ring is None else "on"
        return f"SystemCatalog(storage={bound}, ring={ring})"
