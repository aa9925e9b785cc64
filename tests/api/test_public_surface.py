"""Public-API snapshot: ``repro.__all__`` and the signatures behind it.

Any change to the exported names or to a public signature must be made
deliberately: update the snapshot here in the same commit.
``scripts/smoke.sh`` runs this file (and the examples) so silent API drift
fails the smoke workflow.
"""

import inspect

import repro
from repro import (
    Connection,
    Database,
    EngineConfig,
    ExecutionEngine,
    Program,
    QueryResult,
    ResultSchema,
    ResultSet,
)
from repro.incremental import IncrementalSession

EXPECTED_ALL = [
    "AOTSortMode",
    "CancellationToken",
    "Cancelled",
    "CompilationGranularity",
    "Connection",
    "Database",
    "DeadlineExceeded",
    "DurabilityConfig",
    "DurabilityError",
    "EngineConfig",
    "ExecutionEngine",
    "ExecutionMode",
    "IncrementalSession",
    "Program",
    "QueryLimits",
    "QueryResult",
    "RelationHandle",
    "ResilienceError",
    "ResourceExhausted",
    "ResultSchema",
    "ResultSet",
    "ShardingConfig",
    "Variable",
    "WorkerFailed",
    "compare",
    "let",
    "parse_program",
    "__version__",
]


def sig(owner, name: str) -> str:
    """Normalised signature text (string-annotation quoting stripped)."""
    signature = str(inspect.signature(getattr(owner, name)))
    return signature.replace("'", "").replace('"', "")


EXPECTED_SIGNATURES = {
    # Database -----------------------------------------------------------------
    "Database.__init__": "(self, program: ProgramLike, config: Optional[EngineConfig] = None, name: str = database, durability=None) -> None",
    "Connection.checkpoint": "(self) -> int",
    "Database.connect": "(self, config: Optional[EngineConfig] = None) -> Connection",
    "Database.query": "(self, relation: Optional[str] = None, config: Optional[EngineConfig] = None)",
    "Database.schema": "(self, relation: str) -> ResultSchema",
    "Database.close": "(self) -> None",
    # Connection ---------------------------------------------------------------
    "Connection.query": "(self, relation: Optional[str] = None, limits=None, token=None)",
    "Connection.insert_facts": "(self, relation: str, rows) -> UpdateReport",
    "Connection.retract_facts": "(self, relation: str, rows) -> UpdateReport",
    "Connection.apply": "(self, inserts=None, retracts=None) -> UpdateReport",
    "Connection.explain": "(self, relation: Optional[str] = None, analyze: bool = False) -> str",
    "Connection.close": "(self) -> None",
    # QueryResult --------------------------------------------------------------
    "QueryResult.rows": "(self, offset: int = 0, limit: Optional[int] = None) -> Iterator[Row]",
    "QueryResult.take": "(self, n: int) -> List[Row]",
    "QueryResult.count": "(self) -> int",
    "QueryResult.first": "(self) -> Optional[Row]",
    "QueryResult.to_columns": "(self) -> Dict[str, List[Any]]",
    "QueryResult.to_dicts": "(self) -> List[Dict[str, Any]]",
    "QueryResult.explain": "(self) -> str",
    # ResultSet ----------------------------------------------------------------
    "ResultSet.explain": "(self) -> str",
    "ResultSet.to_sets": "(self) -> Dict[str, set]",
    # Program ------------------------------------------------------------------
    "Program.session": "(self, config: Optional[EngineConfig] = None) -> IncrementalSession",
    "Program.database": "(self, config: Optional[EngineConfig] = None) -> Database",
    "Program.relation": "(self, name: str, arity: Optional[int] = None, columns: Optional[Sequence[str]] = None) -> RelationHandle",
    # ExecutionEngine ----------------------------------------------------------
    "ExecutionEngine.evaluate": "(self) -> ResultSet",
    "ExecutionEngine.result": "(self, name: str) -> QueryResult",
    # IncrementalSession -------------------------------------------------------
    "IncrementalSession.fetch": "(self, relation: str, limits=None, token=None) -> FrozenSet[Row]",
    "IncrementalSession.insert_facts": "(self, relation: str, rows: RowBatch) -> UpdateReport",
    "IncrementalSession.retract_facts": "(self, relation: str, rows: RowBatch) -> UpdateReport",
    # EngineConfig -------------------------------------------------------------
    "EngineConfig.parallel": "(shards: int = 2, base: Optional[EngineConfig] = None, pool: str = auto, shard_backend: str = auto, max_rounds: int = 1000000, **changes) -> EngineConfig",
    "EngineConfig.with_": "(self, **changes) -> EngineConfig",
    "EngineConfig.describe": "(self) -> str",
}

OWNERS = {
    "Database": Database,
    "Connection": Connection,
    "QueryResult": QueryResult,
    "ResultSet": ResultSet,
    "ResultSchema": ResultSchema,
    "Program": Program,
    "ExecutionEngine": ExecutionEngine,
    "IncrementalSession": IncrementalSession,
    "EngineConfig": EngineConfig,
}


def test_all_is_the_snapshot():
    assert repro.__all__ == EXPECTED_ALL


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_public_signatures_are_the_snapshot():
    drift = {}
    for key, expected in EXPECTED_SIGNATURES.items():
        owner_name, method = key.split(".", 1)
        actual = sig(OWNERS[owner_name], method)
        if actual != expected:
            drift[key] = actual
    assert not drift, f"public signatures drifted: {drift}"


def test_result_schema_is_frozen_value_type():
    schema = ResultSchema.of("edge", 2, ("src", "dst"))
    assert schema == ResultSchema("edge", 2, ("src", "dst"))
    try:
        schema.arity = 3
    except AttributeError:
        pass
    else:  # pragma: no cover - failure branch
        raise AssertionError("ResultSchema must be immutable")
