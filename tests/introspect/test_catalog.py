"""System-catalog acceptance: ``sys_`` relations vs the telemetry oracles.

The differential criteria of the introspection subsystem:

* ``conn.query("sys_spans")`` / ``sys_span_attrs`` / ``sys_queries`` agree
  row-for-row with ``QueryResult.trace()`` and the ring-buffer contents —
  across pushdown/vectorized executors and shards ∈ {1, 4};
* a Datalog rule over ``sys_queries`` selects precisely the queries the
  :class:`SlowQueryLog` logged;
* catalog relations never pollute user result sets, and a memoised read
  never serves a catalog-dependent answer computed against different
  engine state.
"""

import io

import pytest

from repro import Database, EngineConfig, Program
from repro.introspect import CATALOG_COLUMNS, catalog_relation_names
from repro.telemetry import (
    RingBufferSink,
    SlowQueryLog,
    TelemetryConfig,
    query_summary_rows,
    tracing,
)

TC_SOURCE = """
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
"""


def tc_program(n=24):
    source = TC_SOURCE + "\n".join(f"edge({i}, {i + 1})." for i in range(n))
    return source


def config_for(executor, shards, telemetry):
    if shards > 1:
        base = EngineConfig.parallel(shards=shards, pool="thread")
    else:
        base = EngineConfig()
    return base.with_(executor=executor, telemetry=telemetry)


class TestCatalogMatchesTelemetryOracles:
    @pytest.mark.parametrize("executor", ["pushdown", "vectorized"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_sys_tables_agree_with_ring_row_for_row(self, executor, shards):
        telemetry = tracing(ring=32)
        config = config_for(executor, shards, telemetry)
        with Database(tc_program(), config) as db, db.connect() as conn:
            result = conn.query("path")
            assert result.trace() is not None

            ring_traces = telemetry.ring.traces()
            expected_spans = {
                row for trace in ring_traces for row in trace.span_rows()
            }
            expected_attrs = {
                row for trace in ring_traces for row in trace.attr_rows()
            }
            assert set(conn.query("sys_spans")) == expected_spans
            assert set(conn.query("sys_span_attrs")) == expected_attrs
            assert set(conn.query("sys_queries")) == set(
                query_summary_rows(ring_traces)
            )

    def test_sharded_vectorized_catalog_reproduces_exact_span_tree(self):
        """shards=4 + vectorized: sys_spans rows for the query's trace are
        bit-for-bit the (id, parent, name, timing) tuples of ``trace()``."""
        telemetry = tracing(ring=32)
        config = config_for("vectorized", 4, telemetry)
        with Database(tc_program(), config) as db, db.connect() as conn:
            result = conn.query("path")
            trace = result.trace()
            assert trace is not None and len(trace) > 3

            rows = [
                row for row in conn.query("sys_spans")
                if row[2] == trace.trace_id
            ]
            expected = [
                (
                    span.span_id,
                    -1 if span.parent_id is None else span.parent_id,
                    trace.trace_id,
                    span.name,
                    span.start_ns,
                    span.duration_ns,
                )
                for span in trace.spans
            ]
            assert sorted(rows) == sorted(expected)

            # Joining sys_span_attrs back onto those ids recovers every
            # attribute of every span in the tree.
            attrs = {
                (row[0], row[1]): row[2]
                for row in conn.query("sys_span_attrs")
                if any(row[0] == span.span_id for span in trace.spans)
            }
            for span in trace.spans:
                for key, value in span.attributes.items():
                    assert attrs[(span.span_id, key)] == str(value)

    def test_rule_over_sys_queries_selects_exactly_the_logged_queries(self):
        stream = io.StringIO()
        ring = RingBufferSink(capacity=64)
        log = SlowQueryLog(0.0, stream=stream)  # logs every query trace
        telemetry = TelemetryConfig(sinks=(ring, log))
        config = EngineConfig().with_(telemetry=telemetry)

        with Database(tc_program(), config) as db, db.connect() as conn:
            conn.query("path")
            # A mutation trace lands in the ring but is neither logged by
            # the SlowQueryLog nor summarized into sys_queries.
            conn.insert_facts("edge", [(98, 99)])
            conn.query("path")

        # The monitor shares the ring (its catalog's trace source) but runs
        # untraced, so observing the log does not itself get logged.
        monitor = Database(
            "logged(T) :- sys_queries(T, F, R, L, Rows, C), L >= 0.",
            EngineConfig().with_(
                telemetry=TelemetryConfig(enabled=False, sinks=(ring,))
            ),
        )
        with monitor.connect() as mconn:
            selected = {row[0] for row in mconn.query("logged")}

        logged = {
            line.split()[1].split("=", 1)[1]
            for line in stream.getvalue().splitlines()
        }
        assert log.emitted == 2
        assert selected == logged


class TestCatalogHygiene:
    def test_catalog_relations_never_pollute_user_result_sets(self):
        telemetry = tracing()
        config = EngineConfig().with_(telemetry=telemetry)
        source = TC_SOURCE + "edge(1, 2). edge(2, 3).\n" + (
            "busy(R) :- sys_queries(T, F, R, L, Rows, C), L >= 0."
        )
        with Database(source, config) as db, db.connect() as conn:
            results = conn.query()
            assert all(not name.startswith("sys_") for name in results)
            listed = {row[0] for row in conn.query("sys_relations")}
            assert not any(name.startswith("sys_") for name in listed)
            assert {"edge", "path", "busy"} <= listed

    def test_result_cache_never_serves_stale_catalog_state(self):
        telemetry = tracing()
        config = EngineConfig().with_(telemetry=telemetry)
        workload = Database(tc_program(8), config)
        wconn = workload.connect()
        wconn.query("path")

        # Untraced monitor over the same ring: the only ring growth between
        # its two reads is the workload's second query.
        monitor = Database(
            "seen(T) :- sys_queries(T, F, R, L, Rows, C), L >= 0.",
            EngineConfig().with_(
                telemetry=TelemetryConfig(
                    enabled=False, sinks=tuple(telemetry.sinks)
                )
            ),
        )
        with monitor.connect() as mconn:
            first = set(mconn.query("seen"))
            wconn.query("path")  # adds one more query trace to the ring
            second = set(mconn.query("seen"))
            assert len(second) == len(first) + 1
            assert first < second
            # A sibling connection must compute against current catalog
            # state, not against the older ring contents.
            with monitor.connect() as mconn2:
                assert set(mconn2.query("seen")) == second
        wconn.close()

    def test_direct_catalog_reads_are_untraced_but_counted(self):
        telemetry = tracing()
        config = EngineConfig().with_(telemetry=telemetry)
        with Database(tc_program(8), config) as db, db.connect() as conn:
            conn.query("path")
            before = len(telemetry.ring)
            conn.query("sys_spans")
            conn.query("sys_queries")
            assert len(telemetry.ring) == before
            snapshot = db.metrics()
            assert snapshot["catalog_queries_total{relation=sys_spans}"] == 1
            assert snapshot["catalog_queries_total{relation=sys_queries}"] == 1

    def test_catalog_reads_force_recompute_strategy(self):
        config = EngineConfig().with_(telemetry=tracing())
        source = TC_SOURCE + "edge(1, 2).\n" + (
            "seen(T) :- sys_queries(T, F, R, L, Rows, C), L >= 0."
        )
        with Database(source, config) as db, db.connect() as conn:
            assert not conn.session.incremental_capable
            report = conn.insert_facts("edge", [(2, 3)])
            assert report.strategy == "recompute"
            conn.self_check()

    def test_self_check_passes_while_the_ring_keeps_growing(self):
        """self_check compares one catalog snapshot on both sides, even
        though the traced queries it follows have themselves grown the
        ring since the snapshot that answered them (drift ≠ divergence)."""
        config = EngineConfig().with_(telemetry=tracing())
        source = tc_program(8) + (
            "\nseen(T, R) :- sys_queries(T, F, R, L, Rows, C), L >= 0."
        )
        with Database(source, config) as db, db.connect() as conn:
            conn.query("path")
            first = conn.query("seen").count()
            conn.insert_facts("edge", [(97, 98)])
            conn.query("path")
            second = conn.query("seen").count()
            assert second > first
            conn.self_check()
            conn.self_check()  # the freeze is released: check is repeatable
            conn.query("path")  # and the catalog still refreshes afterwards
            assert conn.query("seen").count() > second


class TestCatalogContents:
    def test_sys_relations_reflects_storage(self):
        with Database(tc_program(6)) as db, db.connect() as conn:
            rows = {row[0]: row for row in conn.query("sys_relations")}
            assert rows["edge"][1] == 2           # arity
            assert rows["edge"][2] == 6           # cardinality
            assert rows["path"][2] == conn.query("path").count()
            # explain() counts catalog rows the way query() serves them.
            for relation in ("path", "sys_relations"):
                count = conn.query(relation).count()
                assert f"({count} rows)" in conn.explain(relation)

    def test_sys_symbols_tracks_interning(self):
        with Database(
            'name(1, "alpha"). name(2, "beta").'
        ) as db, db.connect() as conn:
            conn.query("name")
            ((count, bytes_estimate),) = conn.query("sys_symbols")
            assert count >= 2
            assert bytes_estimate > 0

    def test_sys_shards_reports_topology(self):
        config = EngineConfig.parallel(shards=4, pool="thread")
        with Database(tc_program(8), config) as db, db.connect() as conn:
            rows = sorted(conn.query("sys_shards"))
            assert [row[0] for row in rows] == [0, 1, 2, 3]
            assert all(row[1] == "thread" for row in rows)
        with Database(tc_program(8)) as db, db.connect() as conn:
            assert conn.query("sys_shards").count() == 0

    def test_sys_metrics_exposes_histogram_quantiles(self):
        config = EngineConfig().with_(telemetry=tracing())
        with Database(tc_program(8), config) as db, db.connect() as conn:
            conn.query("path")
            rows = set(conn.query("sys_metrics"))
            names = {row[0] for row in rows}
            assert "queries_total" in names
            series = {(row[0], row[2]) for row in rows}
            assert ("query_seconds", "histogram_p50") in series
            assert ("query_seconds", "histogram_p95") in series
            assert ("query_seconds", "histogram_p99") in series
            kinds = {row[2] for row in rows}
            assert "counter" in kinds

    def test_one_shot_database_query_serves_trace_backed_tables(self):
        telemetry = tracing()
        config = EngineConfig().with_(telemetry=telemetry)
        db = Database(tc_program(8), config)
        db.query("path")
        queries = db.query("sys_queries")
        assert queries.count() == 1
        assert db.query("sys_relations").count() == 0  # no session state
        db.close()


class TestReservedNamespace:
    def test_rule_head_in_sys_namespace_is_rejected(self):
        with pytest.raises(ValueError, match="rule bodies"):
            Database("sys_mine(x) :- edge(x, y).\nedge(1, 2).").query()

    def test_fact_in_sys_namespace_is_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            Database("sys_queries(1, 2, 3, 4, 5, 6).").query()

    def test_unknown_sys_relation_is_rejected(self):
        with pytest.raises(ValueError, match="unknown system relation"):
            Database("out(x) :- sys_not_a_table(x).").connect()

    def test_sys_relation_arity_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="arity"):
            Database("out(x) :- sys_queries(x).").connect()

    def test_direct_read_of_unknown_sys_relation_raises(self):
        with Database(tc_program(4)) as db, db.connect() as conn:
            with pytest.raises(KeyError, match="unknown system relation"):
                conn.query("sys_not_a_table")

    def test_explain_of_unknown_sys_relation_raises(self):
        with Database(tc_program(4)) as db, db.connect() as conn:
            with pytest.raises(KeyError, match="unknown system relation"):
                conn.explain("sys_not_a_table")

    def test_every_catalog_relation_has_a_consistent_schema(self):
        assert catalog_relation_names() == tuple(sorted(CATALOG_COLUMNS))
        for name, columns in CATALOG_COLUMNS.items():
            assert name.startswith("sys_")
            assert len(columns) == len(set(columns))
