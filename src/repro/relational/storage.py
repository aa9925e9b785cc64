"""The storage manager: Derived, Delta-Known and Delta-New databases.

Carac splits the database of each IDB relation three ways (§V-B1, §V-D):

* **Derived** — every fact discovered so far (plus the EDB facts).
* **Delta-Known** — read-only: facts discovered in the *previous* iteration.
* **Delta-New** — write-only: facts discovered in the *current* iteration.

At the end of each semi-naive iteration ``swap_and_clear`` promotes the new
facts into Derived, makes Delta-New the next iteration's Delta-Known and
clears the relation that will collect the next round of discoveries.  The
read/write split is what makes every IROp boundary a safe point for the JIT
and what allows asynchronous compilation to proceed while interpretation
continues.
"""

from __future__ import annotations

import enum
import threading
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.datalog.program import DatalogProgram
from repro.relational.relation import Relation, Row
from repro.relational.symbols import IDENTITY


class DatabaseKind(str, enum.Enum):
    """Which copy of a relation an operator reads."""

    DERIVED = "derived"
    DELTA_KNOWN = "delta"
    DELTA_NEW = "new"


class StorageManager:
    """Owns every relation instance used during one program evaluation.

    ``symbols`` is the manager's value codec (:mod:`repro.relational.symbols`):
    when a real :class:`~repro.relational.symbols.SymbolTable` is supplied
    (the engine does, under ``EngineConfig(interning=True)``), EDB facts are
    interned at load time and every relation copy holds dense integer
    tuples; decoding happens exactly once, at the result boundary.  The
    default is the identity codec, so direct storage use keeps raw-value
    semantics.  All mutation APIs other than :meth:`load_program` take rows
    already in the manager's value domain — callers that accept user rows
    (the incremental session) encode at their boundary.
    """

    def __init__(self, program: Optional[DatalogProgram] = None,
                 symbols=None) -> None:
        self.symbols = symbols if symbols is not None else IDENTITY
        self._arities: Dict[str, int] = {}
        self._derived: Dict[str, Relation] = {}
        self._delta_known: Dict[str, Relation] = {}
        self._delta_new: Dict[str, Relation] = {}
        self._indexed_columns: Dict[str, Set[int]] = {}
        # Incremental-evaluation bookkeeping: per-relation generation counters
        # (bumped on every observable change to the Derived database; the
        # validity token of frozen_rows) and the explicitly asserted "base"
        # rows of each relation (the support set delete-and-rederive may
        # retract from).
        self._generations: Dict[str, int] = {}
        self._base_rows: Dict[str, Set[Row]] = {}
        # Coarse change counter over the copies cardinality snapshots read
        # (Derived + Delta-Known): lets take_snapshot reuse unchanged maps
        # instead of re-copying every cardinality dict each round.
        self._mutation_version = 0
        # Counter bumps happen on writer threads while concurrent readers
        # probe generations for frozen-row validity and snapshot pinning;
        # `x += 1` on an attribute is not atomic in CPython (LOAD/ADD/STORE
        # can interleave), so every bump and every multi-relation read goes
        # through this lock.  Bumps are per *batch* (or per iteration), not
        # per row, so contention is negligible next to evaluation work.
        self._counter_lock = threading.Lock()
        # Copy-on-write frozen-row cache behind MVCC snapshots: per relation
        # the (generation, frozenset) of the last freeze, reused while the
        # generation stands still — so publishing a snapshot after a batch
        # pays only for the relations the batch actually changed.
        self._frozen_cache: Dict[str, Tuple[int, FrozenSet[Row]]] = {}
        if program is not None:
            self.load_program(program)

    # -- counter bumps (thread-safe; see _counter_lock above) --------------------

    def _bump_version(self) -> None:
        with self._counter_lock:
            self._mutation_version += 1

    def _bump_generation(self, name: str, with_version: bool = True) -> None:
        with self._counter_lock:
            self._generations[name] += 1
            if with_version:
                self._mutation_version += 1

    # -- setup -----------------------------------------------------------------

    def declare(self, name: str, arity: int) -> None:
        """Declare a relation; idempotent, rejects arity mismatches."""
        existing = self._arities.get(name)
        if existing is not None:
            if existing != arity:
                raise ValueError(
                    f"relation {name!r} declared with arity {arity}, previously {existing}"
                )
            return
        self._arities[name] = arity
        self._derived[name] = Relation(name, arity)
        self._delta_known[name] = Relation(f"{name}Δ", arity)
        self._delta_new[name] = Relation(f"{name}Δ'", arity)
        self._indexed_columns[name] = set()
        self._generations[name] = 0
        self._base_rows[name] = set()

    def load_program(self, program: DatalogProgram) -> None:
        """Declare every relation of ``program`` and load its EDB facts.

        Facts are loaded in one batch per relation (arity is already
        enforced by the program's own declarations), so a 10k-row EDB costs
        set arithmetic, not 10k insert calls.  This is the interning point:
        each fact row passes through :attr:`symbols` exactly once, so under
        dictionary encoding the storage retains int tuples (plus one copy
        of each distinct constant in the table) while the caller's raw fact
        objects become garbage.
        """
        for name, declaration in program.relations.items():
            self.declare(name, declaration.arity)
        symbols = self.symbols
        by_relation: Dict[str, Set[Row]] = {}
        if symbols.identity:
            for fact in program.facts:
                by_relation.setdefault(fact.relation, set()).add(tuple(fact.values))
        else:
            # Intern in strict fact order first — id allocation must match
            # the value-at-a-time walk exactly (the durability checkpoint
            # guard compares this deterministic prefix) — then encode.
            ids = symbols.intern_many(
                value for fact in program.facts for value in fact.values
            )
            values_by_relation: Dict[str, List[Tuple[Any, ...]]] = {}
            for fact in program.facts:
                values_by_relation.setdefault(fact.relation, []).append(fact.values)
            for name, rows in values_by_relation.items():
                # Encode per relation with direct id-map subscripts; the
                # binary case (edges — by far the dominant EDB shape) gets
                # an unpacking comprehension instead of a per-row genexpr.
                if self._arities[name] == 2:
                    by_relation[name] = {(ids[a], ids[b]) for a, b in rows}
                else:
                    by_relation[name] = {
                        tuple(ids[value] for value in row) for row in rows
                    }
            symbols.rows_encoded += sum(len(rows) for rows in by_relation.values())
        for name, rows in by_relation.items():
            inserted = self._derived[name].absorb_set(rows)
            if inserted:
                self._bump_generation(name)
            self._base_rows[name] |= rows

    def register_index(self, relation: str, column: int) -> None:
        """Request an index on ``relation[column]`` on all copies of the relation.

        The engine calls this as soon as the rule schema is known (ahead of
        execution when possible), matching the paper's "build one index per
        filter or join predicate" policy.
        """
        self._require(relation)
        self._indexed_columns[relation].add(column)
        # All copies register lazily: the index springs into existence on the
        # first probe that needs it (see Relation.build_index), so a copy no
        # plan shape ever probes — delta buffers under the vectorized
        # executor, join-side columns of schema-selected but unused indexes —
        # pays zero per-row maintenance.
        self._derived[relation].build_index(column, lazy=True)
        self._delta_known[relation].build_index(column, lazy=True)
        self._delta_new[relation].build_index(column, lazy=True)

    def registered_indexes(self, relation: str) -> Tuple[int, ...]:
        return tuple(sorted(self._indexed_columns.get(relation, ())))

    def drop_all_indexes(self) -> None:
        for name in self._arities:
            self._indexed_columns[name].clear()
            self._derived[name].drop_indexes()
            self._delta_known[name].drop_indexes()
            self._delta_new[name].drop_indexes()

    # -- access ----------------------------------------------------------------

    def _require(self, name: str) -> None:
        if name not in self._arities:
            raise KeyError(f"unknown relation {name!r}")

    def relation_names(self) -> List[str]:
        return list(self._arities)

    def arity_of(self, name: str) -> int:
        self._require(name)
        return self._arities[name]

    def relation(self, name: str, kind: DatabaseKind = DatabaseKind.DERIVED) -> Relation:
        """Fetch the requested copy of a relation."""
        self._require(name)
        if kind == DatabaseKind.DERIVED:
            return self._derived[name]
        if kind == DatabaseKind.DELTA_KNOWN:
            return self._delta_known[name]
        if kind == DatabaseKind.DELTA_NEW:
            return self._delta_new[name]
        raise ValueError(f"unknown database kind {kind!r}")

    def derived(self, name: str) -> Relation:
        return self.relation(name, DatabaseKind.DERIVED)

    def delta(self, name: str) -> Relation:
        return self.relation(name, DatabaseKind.DELTA_KNOWN)

    def new(self, name: str) -> Relation:
        return self.relation(name, DatabaseKind.DELTA_NEW)

    def cardinality(self, name: str, kind: DatabaseKind = DatabaseKind.DERIVED) -> int:
        return len(self.relation(name, kind))

    def cardinalities(self, kind: DatabaseKind = DatabaseKind.DERIVED) -> Dict[str, int]:
        return {name: self.cardinality(name, kind) for name in self._arities}

    def tuples(self, name: str, kind: DatabaseKind = DatabaseKind.DERIVED) -> Set[Row]:
        return set(self.relation(name, kind).rows())

    def decoded_tuples(self, name: str,
                       kind: DatabaseKind = DatabaseKind.DERIVED) -> Set[Row]:
        """The rows of ``name`` translated back into the raw value domain.

        The plain-set result boundary (``ExecutionEngine.relation``): one
        decode pass, no effect under the identity codec.
        """
        rows = self.relation(name, kind).rows()
        if self.symbols.identity:
            return set(rows)
        return set(self.symbols.resolve_rows(rows))

    def mutation_version(self) -> int:
        """Coarse counter over Derived/Delta-Known changes (snapshot reuse)."""
        with self._counter_lock:
            return self._mutation_version

    # -- mutation --------------------------------------------------------------

    def insert_derived(self, name: str, row: Sequence[Any]) -> bool:
        """Insert directly into the Derived database (used for EDB facts)."""
        self._require(name)
        inserted = self._derived[name].insert(row)
        if inserted:
            self._bump_generation(name)
        return inserted

    def insert_base(self, name: str, row: Sequence[Any]) -> bool:
        """Insert an explicitly asserted fact, recording it as a base row.

        Base rows are the retraction unit of the incremental subsystem: only
        facts that were explicitly asserted (program EDB facts or session
        ``insert_facts`` batches) can be retracted; everything else is derived
        and only disappears when its derivations do.
        """
        inserted = self.insert_derived(name, row)
        self._base_rows[name].add(tuple(row))
        return inserted

    def adopt_derived(self, name: str, relation: Relation) -> None:
        """Use ``relation`` as this manager's Derived copy of ``name``.

        The zero-copy sharing hook of the shard-parallel subsystem: a
        replicated *read-only* support relation can back any number of
        shard-local storages at once.  The adopting manager must never
        mutate the relation — the callers (see
        :meth:`repro.parallel.sharded_storage.ShardedStorage.share_derived`)
        only adopt relations their plans read, never write.
        """
        self._require(name)
        if relation.arity != self._arities[name]:
            raise ValueError(
                f"cannot adopt {relation!r} as {name!r}: arity mismatch"
            )
        self._derived[name] = relation
        # The adopted relation's contents may differ from the replaced copy.
        self._bump_generation(name)

    def base_rows(self, name: str) -> Set[Row]:
        """The explicitly asserted rows of ``name`` (a copy)."""
        self._require(name)
        return set(self._base_rows[name])

    def is_base_row(self, name: str, row: Sequence[Any]) -> bool:
        self._require(name)
        return tuple(row) in self._base_rows[name]

    def forget_base_row(self, name: str, row: Sequence[Any]) -> bool:
        """Drop a row from the base set without touching the databases."""
        self._require(name)
        before = len(self._base_rows[name])
        self._base_rows[name].discard(tuple(row))
        return len(self._base_rows[name]) != before

    def retract_rows(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Physically remove rows from every copy of ``name``, keeping indexes.

        Returns the number of rows removed from the Derived database.  Used
        by delete-and-rederive after the over-deletion cone is computed; the
        delta copies are scrubbed too so a retraction can never leak through
        a stale delta into the next fixpoint.
        """
        self._require(name)
        removed = 0
        for row in rows:
            row_tuple = tuple(row)
            if self._derived[name].discard(row_tuple):
                removed += 1
            self._delta_known[name].discard(row_tuple)
            self._delta_new[name].discard(row_tuple)
        if removed:
            self._bump_generation(name, with_version=False)
        self._bump_version()
        return removed

    # -- generation counters (frozen-row and snapshot validity) -------------------

    def generation(self, name: str) -> int:
        """Monotonic counter, bumped whenever Derived ``name`` changes."""
        self._require(name)
        with self._counter_lock:
            return self._generations[name]

    def generations(self, names: Optional[Iterable[str]] = None) -> Dict[str, int]:
        """Generation snapshot of ``names`` (default: every relation).

        Taken under the counter lock so a concurrent writer's bumps never
        produce a torn multi-relation view.
        """
        if names is not None:
            names = [name for name in names if self._require(name) is None]
        with self._counter_lock:
            if names is None:
                return dict(self._generations)
            return {name: self._generations[name] for name in names}

    def frozen_rows(self, name: str) -> FrozenSet[Row]:
        """The Derived rows of ``name`` as a frozenset, memoised per generation.

        The one result memo above the Derived database: the copy-on-write
        primitive behind MVCC snapshots (:mod:`repro.incremental.snapshots`)
        and the rows of every embedded session read.  While the relation's
        generation counter stands still the same frozenset object is
        returned, so consecutive snapshot publishes share row sets for
        every relation the intervening batches did not touch.  Must be
        called at a commit point by the thread that owns the storage.
        """
        self._require(name)
        generation = self.generation(name)
        cached = self._frozen_cache.get(name)
        if cached is not None and cached[0] == generation:
            return cached[1]
        rows = frozenset(self._derived[name].rows())
        self._frozen_cache[name] = (generation, rows)
        return rows

    def frozen_is_current(self, name: str) -> bool:
        """Whether :meth:`frozen_rows` would serve ``name`` from its memo."""
        cached = self._frozen_cache.get(name)
        return cached is not None and cached[0] == self.generation(name)

    def insert_new_batch(self, name: str, rows: "Set[Row] | frozenset") -> int:
        """Trusted :meth:`insert_new_many`: skip re-tupling and arity scans.

        The executor's per-iteration sink: evaluation batches are produced
        by head projection over validated plans, so every row is already a
        tuple of the declared arity — re-validating 10⁶ rows per fixpoint
        was pure overhead (it showed up as ~15-25%% of closure wall time in
        profiles).  Callers own that invariant; anything else must go
        through :meth:`insert_new_many`.
        """
        fresh = rows - self._derived[name].rows()
        if not fresh:
            return 0
        return self._delta_new[name].absorb_set(fresh)

    def seed_delta_batch(self, name: str, rows: "Set[Row] | frozenset") -> int:
        """Trusted :meth:`seed_delta` (see :meth:`insert_new_batch`)."""
        new = rows - self._derived[name].rows()
        if not new:
            return 0
        self._derived[name].absorb_set(new)
        self._delta_known[name].absorb_set(new)
        self._bump_generation(name)
        return len(new)

    def absorb_rows(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk-insert rows into the Derived database, one generation bump.

        The bulk path of the shard-parallel subsystem: scattering partitions
        to shards and merging shard results back both move tens of thousands
        of rows at once, and bumping the generation counter per batch (not
        per row) keeps the frozen-row memo meaningful.  Returns the number
        of rows that were new.
        """
        self._require(name)
        inserted = self._derived[name].absorb_set(
            rows if isinstance(rows, (set, frozenset)) else (tuple(row) for row in rows)
        )
        if inserted:
            self._bump_generation(name)
        return inserted

    def force_delta(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Insert rows into Delta-Known only, regardless of Derived membership.

        Used when seeding shard-local deltas: the rows are already present
        in the (local or replicated) Derived database, so :meth:`seed_delta`
        — which skips anything already derived — would drop them.  Returns
        the number of rows new to Delta-Known.
        """
        self._require(name)
        self._bump_version()
        return self._delta_known[name].insert_many(rows)

    def _normalise_batch(self, name: str, rows: Iterable[Sequence[Any]]) -> Set[Row]:
        """One batch as a validated set of tuples (shared by the bulk writers).

        A set/frozenset of plain tuples (the shape evaluation batches have)
        passes through as-is; anything else — including sets holding other
        hashable sequences like strings — is re-tupled row by row, exactly
        as the per-row insert path used to.
        """
        self._require(name)
        if isinstance(rows, (set, frozenset)) and all(
            type(row) is tuple for row in rows
        ):
            rows_set: Set[Row] = rows
        else:
            rows_set = {tuple(row) for row in rows}
        arity = self._arities[name]
        if any(len(row) != arity for row in rows_set):
            bad = next(row for row in rows_set if len(row) != arity)
            raise ValueError(
                f"relation {name!r} has arity {arity}, got row {bad!r}"
            )
        return rows_set

    def insert_new(self, name: str, row: Sequence[Any]) -> bool:
        """Insert into Delta-New if the fact is not already derived.

        Returns True when the fact is genuinely new; this is the single point
        where "did we discover anything this iteration" is decided.
        """
        self._require(name)
        if tuple(row) in self._derived[name]:
            return False
        return self._delta_new[name].insert(row)

    def insert_new_many(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Batch :meth:`insert_new`: one set difference instead of per-row calls.

        The hot sink of every semi-naive iteration — each loop pass pours a
        whole evaluation batch in here, so the derived-membership filter runs
        as a single C-level set difference (arity is still validated, in one
        C-level pass, like the per-row path used to).
        """
        rows_set = self._normalise_batch(name, rows)
        fresh = rows_set - self._derived[name].rows()
        if not fresh:
            return 0
        return self._delta_new[name].absorb_set(fresh)

    def seed_delta(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Initialise Delta-Known and Derived with the first-iteration facts.

        Batched like :meth:`insert_new_many`: the genuinely new rows are
        computed with one set difference and absorbed into both copies.
        """
        rows_set = self._normalise_batch(name, rows)
        new = rows_set - self._derived[name].rows()
        if not new:
            return 0
        self._derived[name].absorb_set(new)
        self._delta_known[name].absorb_set(new)
        self._bump_generation(name)
        return len(new)

    def restore_state(self, name: str, derived_rows: Iterable[Row],
                      base_rows: Iterable[Row]) -> None:
        """Install recovered state: replace Derived and the base ledger wholesale.

        The checkpoint-install primitive of the durability subsystem: rows
        arrive already in this manager's value domain (the recovery path
        aligns the symbol table first), deltas are cleared — a checkpoint
        is always taken at a fixpoint — and the generation bump invalidates
        any frozen rows over the replaced contents.
        """
        self._require(name)
        self._delta_known[name].clear()
        self._delta_new[name].clear()
        # A plain set argument is adopted wholesale (checkpoint loading
        # builds fresh sets and discards its reference); anything else is
        # copied first.  Either way the relation swaps one reference in
        # instead of diffing tens of thousands of recovered rows.
        rows = derived_rows if type(derived_rows) is set else {
            tuple(row) for row in derived_rows
        }
        self._derived[name].replace_rows(rows)
        self._base_rows[name] = (
            base_rows if type(base_rows) is set else set(base_rows)
        )
        self._frozen_cache.pop(name, None)
        self._bump_generation(name)

    # -- iteration management (SwapClearOp / DiffOp semantics) ------------------

    def new_fact_count(self, names: Iterable[str]) -> int:
        """Total number of facts written to Delta-New for ``names``."""
        return sum(len(self._delta_new[name]) for name in names)

    def swap_and_clear(self, names: Iterable[str]) -> int:
        """Promote Delta-New into Derived, rotate it to Delta-Known, clear.

        Returns the number of facts promoted.  Matches the SwapClearOp of the
        paper's IROp program (Fig. 4): executed once per DoWhile iteration.
        """
        promoted = 0
        self._bump_version()
        for name in names:
            self._require(name)
            new_relation = self._delta_new[name]
            absorbed = self._derived[name].absorb(new_relation)
            if absorbed:
                self._bump_generation(name, with_version=False)
            promoted += absorbed
            # Rotate: new becomes known; old known becomes the next new buffer.
            self._delta_known[name], self._delta_new[name] = (
                self._delta_new[name],
                self._delta_known[name],
            )
            self._delta_new[name].clear()
        return promoted

    def clear_deltas(self, names: Iterable[str]) -> None:
        self._bump_version()
        for name in names:
            self._require(name)
            self._delta_known[name].clear()
            self._delta_new[name].clear()

    def reset_idb(self, names: Iterable[str]) -> None:
        """Forget all derived facts of ``names`` (used between benchmark runs)."""
        self._bump_version()
        for name in names:
            self._require(name)
            if len(self._derived[name]):
                self._bump_generation(name, with_version=False)
            self._derived[name].clear()
            self._delta_known[name].clear()
            self._delta_new[name].clear()

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Cardinality snapshot of every database, for profiling/debugging."""
        return {
            name: {
                DatabaseKind.DERIVED.value: len(self._derived[name]),
                DatabaseKind.DELTA_KNOWN.value: len(self._delta_known[name]),
                DatabaseKind.DELTA_NEW.value: len(self._delta_new[name]),
            }
            for name in self._arities
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        total = sum(len(r) for r in self._derived.values())
        return f"StorageManager(relations={len(self._arities)}, derived_rows={total})"
