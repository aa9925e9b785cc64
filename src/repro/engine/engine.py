"""The execution engine façade."""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Set, Tuple

if TYPE_CHECKING:  # repro.api sits above this layer; import only for types
    from repro.api.result import QueryResult, ResultSet

from repro.core.aot import apply_aot_optimization
from repro.core.config import AOTSortMode, EngineConfig, ExecutionMode
from repro.core.executor import IRExecutor
from repro.core.join_order import JoinOrderOptimizer
from repro.core.profile import RuntimeProfile
from repro.datalog.program import DatalogProgram
from repro.ir.builder import build_naive_ir, build_program_ir
from repro.ir.encoding import encode_tree
from repro.ir.ops import ProgramOp
from repro.ir.printer import explain
from repro.relational.operators import EXECUTORS
from repro.relational.relation import Row
from repro.relational.storage import StorageManager
from repro.relational.symbols import SymbolTable
from repro.engine.indexing import select_indexes


def prepare_evaluation(
    program: DatalogProgram,
    config: EngineConfig,
    profile: Optional[RuntimeProfile] = None,
    catalog=None,
) -> Tuple[StorageManager, ProgramOp]:
    """Build the storage and IR tree for one evaluation of ``program``.

    Shared between the single-shot :class:`ExecutionEngine` and the
    long-lived :class:`repro.incremental.IncrementalSession`: declares every
    relation, loads the EDB facts (interning them into the storage's
    :class:`~repro.relational.symbols.SymbolTable` under the default
    ``config.interning``), registers the schema-selected indexes, lowers
    the program to IR, rewrites every plan constant into the symbol domain
    (:func:`repro.ir.encoding.encode_tree`) and (in AOT mode) applies the
    ahead-of-time join-order optimization to the tree in place.

    ``catalog`` is an optional system catalog (duck-typed — this layer
    never imports :mod:`repro.introspect`): when the program references
    ``sys_`` relations, ``catalog.install(storage, program)`` materializes
    their current rows as ordinary interned EDB facts, so catalog relations
    evaluate exactly like user relations.  Without a catalog, referenced
    ``sys_`` relations stay empty.
    """
    if config.executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {config.executor!r}; expected one of {EXECUTORS}"
        )
    if config.faults is not None:
        # Fault points are physical, process-wide sites, so activating a
        # configured schedule installs it process-wide (last install wins).
        from repro.resilience import faults as fault_registry

        fault_registry.install(config.faults)
    symbols = SymbolTable() if config.interning else None
    storage = StorageManager(program, symbols=symbols)
    if config.use_indexes:
        for relation, column in sorted(select_indexes(program)):
            storage.register_index(relation, column)
    if config.mode == ExecutionMode.NAIVE:
        tree = build_naive_ir(program)
    else:
        tree = build_program_ir(program)
    # After the IR build so safety errors (clearer messages for reserved-
    # namespace misuse) surface before catalog schema validation.
    if catalog is not None:
        catalog.install(storage, program)
    encode_tree(tree, storage.symbols)

    apply_aot_if_configured(tree, config, storage, profile)
    return storage, tree


def apply_aot_if_configured(
    tree: ProgramOp,
    config: EngineConfig,
    storage: StorageManager,
    profile: Optional[RuntimeProfile] = None,
) -> None:
    """Run the ahead-of-time join-order optimization when the config asks.

    Shared by :func:`prepare_evaluation` and the incremental session (which
    also optimizes its update tree once at construction).
    """
    if config.mode == ExecutionMode.AOT and config.aot_sort != AOTSortMode.NONE:
        apply_aot_optimization(
            tree,
            JoinOrderOptimizer(config.selectivity),
            storage,
            config.aot_sort,
            use_indexes=config.use_indexes,
            profile=profile,
        )


def sharding_active(config: EngineConfig) -> bool:
    """Whether this configuration evaluates through the parallel subsystem.

    ``shards=1`` is the standard single-shard engine by definition, and the
    NAIVE mode — a deliberately simple baseline — always bypasses sharding.
    """
    return (
        config.sharding is not None
        and config.sharding.shards > 1
        and config.mode != ExecutionMode.NAIVE
    )


class ExecutionEngine:
    """Evaluates one Datalog program under one configuration.

    The engine is single-shot: construct, :meth:`run`, read results.  This
    mirrors how the paper benchmarks Carac (each measurement is a fresh
    evaluation over freshly loaded facts) and keeps the storage lifecycle
    unambiguous.
    """

    def __init__(
        self,
        program: DatalogProgram,
        config: Optional[EngineConfig] = None,
        catalog=None,
    ) -> None:
        self.program = program
        self.config = config or EngineConfig()
        self.profile = RuntimeProfile()

        setup_start = time.perf_counter()
        self.storage, self.tree = prepare_evaluation(
            program, self.config, self.profile, catalog=catalog
        )
        self.setup_seconds = time.perf_counter() - setup_start
        self._ran = False
        #: Set by :meth:`evaluate` when the shard-parallel evaluator was used.
        self.parallel_report = None
        # Telemetry: the registry of the configured TelemetryConfig, else a
        # private one; the API layer folds the profile in after evaluation.
        from repro.telemetry.config import metrics_of

        self.metrics = metrics_of(self.config.telemetry)
        #: Thunk resolving to the trace of this evaluation (set by the API
        #: layer when it opens a root span around :meth:`evaluate`).
        self._trace_source = None

    # -- execution --------------------------------------------------------------

    def _execute_once(self) -> None:
        """Run the fixpoint computation (idempotent)."""
        if self._ran:
            return
        if sharding_active(self.config):
            # Lazy import: repro.parallel sits above the engine layer.
            from repro.parallel.executor import ParallelEvaluator

            evaluator = ParallelEvaluator(
                self.program, self.config, self.storage, self.tree, self.profile
            )
            self.parallel_report = evaluator.run()
        else:
            executor = IRExecutor(self.storage, self.config, self.profile)
            executor.execute(self.tree)
        self._ran = True
        self.metrics.absorb_profile(self.profile)

    def evaluate(self) -> "ResultSet":
        """Evaluate to fixpoint; every IDB relation as a :class:`QueryResult`.

        The canonical way to read a single-shot evaluation.  Idempotent: the
        fixpoint runs once, later calls return fresh views of the same state.
        """
        from repro.api.result import ResultSet

        self._execute_once()
        results = {
            relation: self.result(relation)
            for relation in self.program.idb_relations()
        }
        return ResultSet(
            results, explain=self._render_explain, trace=self._trace_source
        )

    def result(self, name: str) -> "QueryResult":
        """One relation (IDB or EDB) as a :class:`QueryResult`."""
        from repro.api.database import schema_for
        from repro.api.result import QueryResult

        self._execute_once()
        schema = schema_for(self.program, name)

        def explain() -> str:
            return self._render_explain(relation=name)

        # The engine is single-shot, so storage is stable after the fixpoint:
        # rows may be fetched lazily, on first access.  Rows stay in the
        # storage (symbol) domain; the result decodes at its boundary.
        return QueryResult(
            schema, lambda: self.storage.tuples(name), explain=explain,
            symbols=self.storage.symbols, trace=self._trace_source,
        )

    def relation(self, name: str) -> Set[Row]:
        """Tuples of one relation (IDB or EDB) after evaluation, decoded."""
        return self.storage.decoded_tuples(name)

    def _render_explain(self, relation: Optional[str] = None) -> str:
        from repro.api.explain import render_explain

        row_count = None
        if relation is not None and self._ran:
            row_count = self.storage.cardinality(relation)
        return render_explain(
            title=f"evaluation of {self.program.name!r}",
            config=self.config,
            tree=self.tree,
            profile=self.profile if self._ran else None,
            relation=relation,
            row_count=row_count,
            symbols=self.storage.symbols,
            trace=self._trace_source() if self._trace_source is not None else None,
        )

    def execution_seconds(self) -> float:
        """Wall-clock time of the :meth:`run` call (excludes engine setup)."""
        return self.profile.wall_seconds

    def explain(self) -> str:
        """The current IROp tree, including any plans rewritten by AOT/JIT."""
        return explain(self.tree)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ExecutionEngine({self.program.name!r}, config={self.config.describe()!r})"
        )
