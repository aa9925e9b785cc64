"""End-to-end telemetry acceptance: traced engines, metrics agreement, layering.

The acceptance criteria of the telemetry subsystem:

* a sharded (``shards=4``) vectorized run produces ONE connected trace with
  root → stratum → iteration → operator levels, worker spans reparented
  across the pool boundary;
* ``Database.metrics()`` totals agree bit-for-bit with the differential
  oracle (query counts, result-cache probes, rows derived);
* ``explain()`` renders the most recent trace;
* engine-core modules never import :mod:`repro.telemetry.sinks` (the sinks
  do I/O; the engine layers may only see spans/metrics/config).
"""

import pathlib

import pytest

from repro import Database, EngineConfig, Program
from repro.analyses.micro import build_transitive_closure_program
from repro.core.config import ExecutionMode
from repro.engine.engine import ExecutionEngine
from repro.telemetry import TelemetryConfig, tracing
from repro.workloads.graphs import random_edges

EDGES = random_edges(60, 80, seed=7)


def tc_program():
    return build_transitive_closure_program(EDGES)


def chain_program(n=30):
    program = Program("chain")
    edge, path = program.relations("edge", "path", arity=2)
    x, y, z = program.variables("x", "y", "z")
    path(x, y) <= edge(x, y)
    path(x, z) <= path(x, y) & edge(y, z)
    edge.add_facts([(i, i + 1) for i in range(n)])
    return program


def sharded_traced_config(telemetry):
    return EngineConfig.parallel(shards=4, pool="thread").with_(
        executor="vectorized", interning=True, telemetry=telemetry,
    )


class TestConnectedShardedTrace:
    def test_query_trace_has_all_four_levels_with_one_trace_id(self):
        telemetry = tracing(ring=16)
        with Database(chain_program(), sharded_traced_config(telemetry)) as db:
            with db.connect() as conn:
                result = conn.query("path")
                trace = result.trace()

        assert trace is not None
        assert len({span.trace_id for span in trace}) == 1, "trace disconnected"
        root = trace.root
        assert root.name == "query"
        assert root.attributes["relation"] == "path"
        assert root.attributes["rows"] == result.count()

        strata = trace.find("stratum")
        assert strata, "no stratum spans"
        assert all(s.parent_id == root.span_id for s in strata)

        iterations = trace.find("iteration")
        stratum_ids = {s.span_id for s in strata}
        assert iterations, "no iteration spans"
        assert all(s.parent_id in stratum_ids for s in iterations)
        # Worker spans carry their shard id and were recorded in-shard.
        shards = {s.attributes.get("shard") for s in iterations}
        assert shards and shards <= {0, 1, 2, 3}

        operators = [s for s in trace if s.name.startswith("op:")]
        assert operators, "no operator spans"
        iteration_ids = stratum_ids | {s.span_id for s in iterations}
        assert all(s.parent_id in iteration_ids for s in operators)
        assert all(
            "rows_in" in s.attributes and "rows_out" in s.attributes
            for s in operators
        )

    def test_worker_spans_reparent_across_the_process_pool(self):
        telemetry = tracing(ring=16)
        config = EngineConfig.parallel(shards=2, pool="process").with_(
            executor="vectorized", telemetry=telemetry,
        )
        with Database(chain_program(12), config) as db, db.connect() as conn:
            trace = conn.query("path").trace()
        assert trace is not None
        by_id = {span.span_id: span for span in trace}
        # Connected: every span's parent chain reaches the root.
        for span in trace:
            assert trace.depth_of(span) == 0 or span.parent_id in by_id

    def test_mutation_trace_covers_dred_phases(self):
        telemetry = tracing(ring=16)
        config = EngineConfig.interpreted().with_(
            executor="vectorized", telemetry=telemetry,
        )
        with Database(chain_program(), config) as db, db.connect() as conn:
            conn.query("path")
            conn.retract_facts("edge", [(3, 4)])
            trace = conn.session.last_trace
        assert trace.root.name == "mutation"
        assert trace.root.attributes["retracted"] == 1
        names = {span.name for span in trace}
        assert "dred:over-delete" in names
        assert "dred:rederive" in names


class TestMetricsAgreement:
    def test_totals_agree_with_the_differential_oracle(self):
        program = tc_program()
        oracle = ExecutionEngine(
            build_transitive_closure_program(EDGES), EngineConfig.interpreted()
        )
        oracle_rows = oracle.evaluate()["path"].to_set()
        oracle_derived = sum(
            record.promoted for record in oracle.profile.iterations
        )

        telemetry = tracing(ring=16)
        with Database(program, sharded_traced_config(telemetry)) as db:
            with db.connect() as conn:
                queries = 0
                first = conn.query("path")
                queries += 1
                assert first.to_set() == oracle_rows
                for _ in range(3):
                    conn.query("path")
                    queries += 1
            snapshot = db.metrics()

        assert snapshot["queries_total"] == queries
        assert snapshot["rows_derived_total"] == oracle_derived
        # No mutation ran: the first read freezes path, every repeat read
        # is served from the frozen-rows memo.
        assert snapshot["result_cache_total{result=miss}"] == 1
        assert snapshot["result_cache_total{result=hit}"] == queries - 1
        assert snapshot["relation_rows{relation=path}"] == len(oracle_rows)

    def test_one_shot_queries_also_feed_the_database_registry(self):
        with Database(chain_program(), EngineConfig.interpreted()) as db:
            db.query("path")
            db.query("path")
            snapshot = db.metrics()
        assert snapshot["queries_total"] == 2
        assert snapshot["rows_derived_total"] > 0
        assert snapshot["query_seconds"]["count"] == 2

    def test_shared_registry_is_not_double_counted_for_one_shot(self):
        telemetry = tracing(ring=4)
        config = EngineConfig.interpreted().with_(telemetry=telemetry)
        with Database(chain_program(12), config) as db:
            db.query("path")
            derived = db.metrics()["rows_derived_total"]
            oracle = ExecutionEngine(
                chain_program(12).datalog, EngineConfig.interpreted()
            )
            oracle.evaluate()
            expected = sum(r.promoted for r in oracle.profile.iterations)
        assert derived == expected

    def test_exporters_on_database(self):
        with Database(chain_program(12), EngineConfig.interpreted()) as db:
            db.query("path")
            prometheus = db.metrics_prometheus()
            json_text = db.metrics_json()
        assert "# TYPE repro_queries_total counter" in prometheus
        assert "repro_queries_total 1" in prometheus
        import json

        assert json.loads(json_text)["queries_total"] == 1


class TestSurfaces:
    def test_untraced_results_have_no_trace(self):
        with Database(chain_program(12), EngineConfig.interpreted()) as db:
            with db.connect() as conn:
                assert conn.query("path").trace() is None
            assert db.query("path").trace() is None

    def test_noop_telemetry_still_counts_metrics(self):
        config = EngineConfig.interpreted().with_(
            telemetry=TelemetryConfig(enabled=False)
        )
        with Database(chain_program(12), config) as db, db.connect() as conn:
            assert conn.query("path").trace() is None
            assert db.metrics()["queries_total"] == 1

    def test_explain_renders_the_most_recent_trace(self):
        telemetry = tracing(ring=8)
        config = EngineConfig.interpreted().with_(
            executor="vectorized", telemetry=telemetry,
        )
        with Database(chain_program(12), config) as db, db.connect() as conn:
            conn.query("path")
            text = conn.explain("path")
        assert "trace (most recent):" in text
        assert "query (" in text
        assert "stratum (" in text

    def test_resultset_trace_matches_queryresult_trace(self):
        telemetry = tracing(ring=8)
        config = EngineConfig.interpreted().with_(telemetry=telemetry)
        with Database(chain_program(12), config) as db, db.connect() as conn:
            results = conn.query()
            assert results.trace() is not None
            assert results.trace().root.attributes["relation"] == "*"


ENGINE_CORE_PACKAGES = (
    "core", "engine", "incremental", "parallel", "relational", "ir",
    "datalog", "api",
)


def test_engine_core_never_imports_sink_modules():
    """The layering rule the CI grep guard enforces, pinned as a test."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
    offenders = []
    for package in ENGINE_CORE_PACKAGES:
        for path in (src / package).rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            if "telemetry.sinks" in text or "telemetry import sinks" in text:
                offenders.append(str(path))
    assert not offenders, f"engine-core imports telemetry.sinks: {offenders}"
