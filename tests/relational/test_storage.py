"""Unit tests for the storage manager (Derived / Delta-Known / Delta-New)."""

import pytest

from repro.datalog.literals import Atom
from repro.datalog.program import DatalogProgram
from repro.datalog.terms import Variable
from repro.relational.relation import Relation
from repro.relational.storage import DatabaseKind, StorageManager

x, y = Variable("x"), Variable("y")


def make_storage() -> StorageManager:
    storage = StorageManager()
    storage.declare("edge", 2)
    storage.declare("path", 2)
    return storage


class TestDeclaration:
    def test_declare_idempotent(self):
        storage = make_storage()
        storage.declare("edge", 2)
        assert storage.arity_of("edge") == 2

    def test_declare_conflicting_arity(self):
        storage = make_storage()
        with pytest.raises(ValueError):
            storage.declare("edge", 3)

    def test_unknown_relation_rejected(self):
        storage = make_storage()
        with pytest.raises(KeyError):
            storage.relation("unknown")

    def test_load_program_loads_facts(self):
        program = DatalogProgram()
        program.add_facts("edge", [(1, 2), (2, 3)])
        program.add_rule(Atom("path", (x, y)), [Atom("edge", (x, y))])
        storage = StorageManager(program)
        assert storage.cardinality("edge") == 2
        assert storage.cardinality("path") == 0


class TestDeltaLifecycle:
    def test_seed_delta_populates_derived_and_known(self):
        storage = make_storage()
        added = storage.seed_delta("path", [(1, 2), (1, 2), (2, 3)])
        assert added == 2
        assert storage.cardinality("path", DatabaseKind.DERIVED) == 2
        assert storage.cardinality("path", DatabaseKind.DELTA_KNOWN) == 2

    def test_insert_new_dedups_against_derived(self):
        storage = make_storage()
        storage.seed_delta("path", [(1, 2)])
        assert storage.insert_new("path", (1, 2)) is False
        assert storage.insert_new("path", (2, 3)) is True
        assert storage.cardinality("path", DatabaseKind.DELTA_NEW) == 1

    def test_swap_and_clear_promotes_and_rotates(self):
        storage = make_storage()
        storage.seed_delta("path", [(1, 2)])
        storage.insert_new("path", (2, 3))
        promoted = storage.swap_and_clear(["path"])
        assert promoted == 1
        assert storage.cardinality("path", DatabaseKind.DERIVED) == 2
        assert storage.tuples("path", DatabaseKind.DELTA_KNOWN) == {(2, 3)}
        assert storage.cardinality("path", DatabaseKind.DELTA_NEW) == 0

    def test_swap_with_no_new_facts_returns_zero(self):
        storage = make_storage()
        storage.seed_delta("path", [(1, 2)])
        storage.swap_and_clear(["path"])
        assert storage.swap_and_clear(["path"]) == 0

    def test_new_fact_count(self):
        storage = make_storage()
        storage.insert_new_many("path", [(1, 2), (2, 3)])
        assert storage.new_fact_count(["path"]) == 2

    def test_reset_idb(self):
        storage = make_storage()
        storage.seed_delta("path", [(1, 2)])
        storage.reset_idb(["path"])
        assert storage.cardinality("path") == 0

    def test_clear_deltas(self):
        storage = make_storage()
        storage.seed_delta("path", [(1, 2)])
        storage.clear_deltas(["path"])
        assert storage.cardinality("path", DatabaseKind.DELTA_KNOWN) == 0
        assert storage.cardinality("path", DatabaseKind.DERIVED) == 1


class TestIndexes:
    def test_register_index_applies_to_all_copies(self):
        storage = make_storage()
        storage.register_index("path", 0)
        assert storage.registered_indexes("path") == (0,)
        for kind in DatabaseKind:
            assert storage.relation("path", kind).has_index(0)

    def test_indexes_survive_swap(self):
        storage = make_storage()
        storage.register_index("path", 1)
        storage.seed_delta("path", [(1, 2)])
        storage.insert_new("path", (2, 3))
        storage.swap_and_clear(["path"])
        delta = storage.relation("path", DatabaseKind.DELTA_KNOWN)
        assert list(delta.lookup(1, 3)) == [(2, 3)]

    def test_drop_all_indexes(self):
        storage = make_storage()
        storage.register_index("path", 0)
        storage.drop_all_indexes()
        assert storage.registered_indexes("path") == ()


class TestSnapshots:
    def test_cardinalities_and_snapshot(self):
        storage = make_storage()
        storage.insert_derived("edge", (1, 2))
        storage.seed_delta("path", [(1, 2), (2, 3)])
        cards = storage.cardinalities()
        assert cards == {"edge": 1, "path": 2}
        snapshot = storage.snapshot()
        assert snapshot["path"]["delta"] == 2
        assert snapshot["edge"]["derived"] == 1


class TestBatchWriterNormalisation:
    def test_batch_writers_reject_wrong_arity(self):
        storage = make_storage()
        for method in ("seed_delta", "insert_new_many"):
            with pytest.raises(ValueError, match="arity"):
                getattr(storage, method)("path", [(1, 2, 3)])

    def test_sets_of_non_tuple_sequences_are_tupled(self):
        storage = make_storage()
        storage.seed_delta("path", {"ab"})  # a set of 2-char strings
        assert ("a", "b") in storage.derived("path")
        storage.insert_new_many("path", {"cd"})
        assert ("c", "d") in storage.new("path")


class TestTrustedBatchSinks:
    """insert_new_batch / seed_delta_batch: the executor's validated sinks."""

    def _storage(self):
        storage = StorageManager()
        storage.declare("edge", 2)
        return storage

    def test_insert_new_batch_matches_insert_new_many(self):
        a, b = self._storage(), self._storage()
        a.insert_derived("edge", (1, 2))
        b.insert_derived("edge", (1, 2))
        batch = {(1, 2), (3, 4), (5, 6)}
        assert a.insert_new_batch("edge", batch) == b.insert_new_many("edge", batch) == 2
        assert a.tuples("edge", DatabaseKind.DELTA_NEW) == b.tuples(
            "edge", DatabaseKind.DELTA_NEW
        )

    def test_seed_delta_batch_matches_seed_delta(self):
        a, b = self._storage(), self._storage()
        batch = {(1, 2), (3, 4)}
        assert a.seed_delta_batch("edge", batch) == b.seed_delta("edge", batch) == 2
        assert a.tuples("edge") == b.tuples("edge")
        assert a.tuples("edge", DatabaseKind.DELTA_KNOWN) == b.tuples(
            "edge", DatabaseKind.DELTA_KNOWN
        )

    def test_mutation_version_moves_with_visible_changes(self):
        storage = self._storage()
        before = storage.mutation_version()
        storage.seed_delta_batch("edge", {(1, 2)})
        assert storage.mutation_version() > before
        version = storage.mutation_version()
        # Delta-New writes are invisible to cardinality snapshots.
        storage.insert_new_batch("edge", {(7, 8)})
        assert storage.mutation_version() == version
        storage.swap_and_clear(["edge"])
        assert storage.mutation_version() > version


def _adopt(storage):
    replacement = Relation("path", 2)
    replacement.insert((9, 9))
    storage.adopt_derived("path", replacement)


def _load_more_facts(storage):
    program = DatalogProgram()
    program.add_facts("path", [(3, 4)])
    storage.load_program(program)


def _promote(storage):
    storage.insert_new_batch("path", {(3, 4)})
    storage.swap_and_clear(["path"])


SEEDED = {(1, 2), (2, 3)}
GROWN = SEEDED | {(3, 4)}

#: Every primitive that changes the Derived copy of ``path``, and the rows
#: it leaves there.
CHANGING_MUTATIONS = [
    pytest.param(lambda s: s.insert_derived("path", (3, 4)), GROWN,
                 id="insert_derived"),
    pytest.param(lambda s: s.insert_base("path", (3, 4)), GROWN,
                 id="insert_base"),
    pytest.param(lambda s: s.seed_delta("path", [(3, 4)]), GROWN,
                 id="seed_delta"),
    pytest.param(lambda s: s.seed_delta_batch("path", {(3, 4)}), GROWN,
                 id="seed_delta_batch"),
    pytest.param(lambda s: s.absorb_rows("path", [(3, 4)]), GROWN,
                 id="absorb_rows"),
    pytest.param(_promote, GROWN, id="swap_and_clear"),
    pytest.param(lambda s: s.retract_rows("path", [(1, 2)]), {(2, 3)},
                 id="retract_rows"),
    pytest.param(lambda s: s.reset_idb(["path"]), set(), id="reset_idb"),
    pytest.param(lambda s: s.restore_state("path", {(7, 8)}, set()),
                 {(7, 8)}, id="restore_state"),
    pytest.param(_adopt, {(9, 9)}, id="adopt_derived"),
    pytest.param(_load_more_facts, GROWN, id="load_program"),
]

#: Primitives that leave the Derived copy of ``path`` as it was: deltas
#: only, rows already present or absent, or another relation.
KEEPING_MUTATIONS = [
    pytest.param(lambda s: s.insert_new_batch("path", {(3, 4)}),
                 id="insert_new_batch"),
    pytest.param(lambda s: s.insert_new_many("path", [(3, 4)]),
                 id="insert_new_many"),
    pytest.param(lambda s: s.insert_new("path", (3, 4)), id="insert_new"),
    pytest.param(lambda s: s.force_delta("path", [(5, 6)]), id="force_delta"),
    pytest.param(lambda s: s.clear_deltas(["path"]), id="clear_deltas"),
    pytest.param(lambda s: s.swap_and_clear(["path"]),
                 id="swap_and_clear_empty_delta"),
    pytest.param(lambda s: s.insert_derived("path", (1, 2)),
                 id="insert_derived_present_row"),
    pytest.param(lambda s: s.seed_delta("path", [(1, 2)]),
                 id="seed_delta_present_row"),
    pytest.param(lambda s: s.absorb_rows("path", [(2, 3)]),
                 id="absorb_rows_present_row"),
    pytest.param(lambda s: s.retract_rows("path", [(8, 8)]),
                 id="retract_rows_absent_row"),
    pytest.param(lambda s: s.absorb_rows("edge", [(3, 4)]),
                 id="other_relation_absorb_rows"),
    pytest.param(lambda s: s.reset_idb(["edge"]),
                 id="other_relation_reset_idb"),
]


class TestFrozenRows:
    """frozen_rows is memoised per generation: the generation counter is
    the only validity token of embedded reads and MVCC snapshots, so every
    write to Derived must bump it and nothing else may."""

    def _frozen(self):
        storage = make_storage()
        storage.seed_delta("path", SEEDED)
        return storage, storage.frozen_rows("path")

    def test_repeat_freeze_returns_the_memoised_object(self):
        storage = make_storage()
        assert not storage.frozen_is_current("path")
        storage.seed_delta("path", SEEDED)
        first = storage.frozen_rows("path")
        assert first == frozenset(SEEDED)
        assert storage.frozen_is_current("path")
        assert storage.frozen_rows("path") is first

    @pytest.mark.parametrize("mutate,expected", CHANGING_MUTATIONS)
    def test_derived_writes_give_a_new_object(self, mutate, expected):
        storage, before = self._frozen()
        generation = storage.generation("path")
        mutate(storage)
        assert storage.generation("path") > generation
        assert not storage.frozen_is_current("path")
        after = storage.frozen_rows("path")
        assert after is not before
        assert after == frozenset(expected) == frozenset(storage.derived("path"))
        # A reader holding the old object keeps the old rows.
        assert before == frozenset(SEEDED)
        assert storage.frozen_rows("path") is after

    @pytest.mark.parametrize("mutate", KEEPING_MUTATIONS)
    def test_writes_that_leave_derived_alone_keep_the_object(self, mutate):
        storage, before = self._frozen()
        mutate(storage)
        assert storage.frozen_is_current("path")
        assert storage.frozen_rows("path") is before
        assert before == frozenset(storage.derived("path"))
