"""Property tests: catalog hygiene invariants over randomized programs.

Two invariants, each over random edge sets:

* **No pollution** — however the workload is shaped, ``sys_`` relations
  never appear in user result sets, in ``conn.query()``'s relation map,
  or in the ``sys_relations`` listing itself.
* **Cache divergence** — the validity token of a catalog reader's
  memoised results changes exactly when catalog state changes: a new trace
  in the shared ring advances the ``sys_queries`` storage generation (so a
  frozen answer computed against the older ring can never be served),
  while a read that leaves the ring untouched keeps the generation stable.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.database import Database
from repro.core.config import EngineConfig
from repro.telemetry import TelemetryConfig, tracing

TC_SOURCE = """
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
"""

edges_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=16,
)


def tc_source(edges):
    facts = "\n".join(f"edge({a}, {b})." for a, b in sorted(set(edges)))
    return TC_SOURCE + facts


def untraced_over(ring):
    """A config that reads ``ring`` through the catalog without being
    traced into it — observing must not perturb the observed."""
    return EngineConfig().with_(
        telemetry=TelemetryConfig(enabled=False, sinks=(ring,))
    )


@given(edges=edges_strategy)
@settings(max_examples=15, deadline=None)
def test_catalog_relations_never_pollute_user_results(edges):
    telemetry = tracing(ring=8)
    config = EngineConfig().with_(telemetry=telemetry)
    source = tc_source(edges) + (
        "\nbusy(R) :- sys_queries(T, F, R, L, Rows, C), L >= 0."
    )
    with Database(source, config) as db, db.connect() as conn:
        results = conn.query()
        assert all(not name.startswith("sys_") for name in results)
        for name, result in results.items():
            assert not name.startswith("sys_")
            assert result.schema.relation == name
        listed = {row[0] for row in conn.query("sys_relations")}
        assert not any(name.startswith("sys_") for name in listed)
        assert {"edge", "path", "busy"} <= listed


@given(edges=edges_strategy)
@settings(max_examples=15, deadline=None)
def test_cache_tokens_diverge_exactly_when_catalog_state_differs(edges):
    telemetry = tracing(ring=8)
    workload = Database(tc_source(edges), EngineConfig().with_(
        telemetry=telemetry,
    ))
    wconn = workload.connect()
    wconn.query("path")

    monitor = Database(
        "seen(T) :- sys_queries(T, F, R, L, Rows, C), L >= 0.",
        untraced_over(telemetry.ring),
    )
    with monitor.connect() as mconn:
        first = set(mconn.query("seen"))
        before = mconn.session.storage.generation("sys_queries")

        # Re-reading without touching the ring keeps the token stable …
        assert set(mconn.query("seen")) == first
        assert mconn.session.storage.generation("sys_queries") == before

        # … while one more workload trace must flip it, and the fresh
        # answer must include exactly the new trace.
        wconn.query("path")
        second = set(mconn.query("seen"))
        after = mconn.session.storage.generation("sys_queries")
        assert after != before
        assert len(second) == len(first) + 1
        assert first < second
    wconn.close()
    workload.close()
