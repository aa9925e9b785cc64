"""Acceptance property: the Database API equals a bare session, every mode.

For randomized fact bases and insert batches, one round trip through the
surface — ``Database(...).connect()`` → ``insert_facts`` → ``query("path")``
— must return a :class:`QueryResult` whose ``rows()`` / ``count()`` /
``explain()`` agree bit-for-bit with a hand-driven ``IncrementalSession``
and with a from-scratch evaluation of the DSL program over the final fact
base, for interpreted, JIT, AOT and ``parallel(shards ∈ {1, 2, 4})``
configurations alike.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, EngineConfig, Program
from repro.analyses.micro import build_transitive_closure_program
from repro.incremental import IncrementalSession


def build_tc_dsl(edges) -> Program:
    """The same transitive closure, written through the embedded DSL."""
    program = Program("tc")
    edge, path = program.relations("edge", "path", arity=2)
    x, y, z = program.variables("x", "y", "z")
    path(x, y) <= edge(x, y)
    path(x, z) <= path(x, y) & edge(y, z)
    edge.add_facts(edges)
    return program

MODE_CONFIGS = [
    EngineConfig.interpreted(),
    EngineConfig.jit("lambda"),
    EngineConfig.aot(),
    EngineConfig.parallel(shards=1),
    EngineConfig.parallel(shards=2),
    EngineConfig.parallel(shards=4),
]

edges_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)),
    min_size=1,
    max_size=14,
)
batch_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9)),
    max_size=6,
)


@pytest.mark.parametrize("config", MODE_CONFIGS, ids=lambda c: c.describe())
@settings(max_examples=5, deadline=None)
@given(edges=edges_strategy, batch=batch_strategy)
def test_database_roundtrip_matches_legacy_api(config, edges, batch):
    edges = sorted(set(edges))
    batch = sorted(set(batch))

    # -- the new surface: Database -> connect -> insert_facts -> query --------
    db = Database(build_transitive_closure_program(edges), config)
    with db.connect() as conn:
        if batch:
            conn.insert_facts("edge", batch)
        result = conn.query("path")

    # -- path 1: an IncrementalSession driven by hand ---------------------------
    with IncrementalSession(build_transitive_closure_program(edges), config) as session:
        if batch:
            session.insert_facts("edge", batch)
        legacy_session_rows = session.fetch("path")

    # -- path 2: from-scratch evaluation of the DSL program over the final facts
    final_edges = sorted(set(edges) | set(batch))
    scratch_rows = build_tc_dsl(final_edges).database(config).query("path").to_set()

    # bit-for-bit agreement across all three paths
    assert result.to_set() == set(legacy_session_rows) == scratch_rows

    # QueryResult invariants: count/rows/take agree with the row set and with
    # the canonical deterministic order.
    assert result.count() == len(scratch_rows)
    ordered = list(result.rows())
    assert ordered == sorted(scratch_rows)
    assert list(result) == ordered
    assert result.take(3) == ordered[:3]

    # explain() names the configuration that actually ran.
    assert config.describe() in result.explain()
