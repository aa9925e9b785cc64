"""Concurrency stress tests for storage counters.

The serving layer reads storage counters (``generations``/
``mutation_version``) from reader threads while a single writer mutates —
these tests hammer exactly those paths.  Row mutation itself stays
single-writer by design; what must be thread-safe is the counter
bookkeeping.
"""

import threading

from repro.relational.storage import StorageManager

WRITER_BATCHES = 400
READER_ITERATIONS = 2_000
THREADS = 4


def two_relation_storage():
    storage = StorageManager()
    storage.declare("a", 2)
    storage.declare("b", 2)
    return storage


class TestStorageCounters:
    def test_concurrent_version_bumps_never_lose_an_increment(self):
        # force_delta bumps the mutation version once per call; with the
        # counter unlocked, racing += would drop increments.
        storage = two_relation_storage()
        start = storage.mutation_version()

        def hammer(thread_id, name):
            for i in range(WRITER_BATCHES):
                storage.force_delta(name, [(thread_id, i)])

        threads = [
            threading.Thread(target=hammer, args=(t, "a" if t % 2 else "b"))
            for t in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert storage.mutation_version() == start + THREADS * WRITER_BATCHES

    def test_counter_snapshots_are_never_torn_across_relations(self):
        # One writer bumps a then b in lockstep, so any consistent snapshot
        # satisfies 0 <= gen(a) - gen(b) <= 1; a torn multi-relation read
        # could observe b ahead of a.
        storage = two_relation_storage()
        base_a = storage.generation("a")
        base_b = storage.generation("b")
        stop = threading.Event()
        violations = []

        def writer():
            for i in range(WRITER_BATCHES):
                storage.absorb_rows("a", [(i, i)])
                storage.absorb_rows("b", [(i, i)])
            stop.set()

        def reader():
            while not stop.is_set():
                snapshot = storage.generations(["a", "b"])
                ahead = (snapshot["a"] - base_a) - (snapshot["b"] - base_b)
                if not 0 <= ahead <= 1:
                    violations.append(snapshot)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not violations, f"torn generation snapshots: {violations[:3]}"
        assert storage.generation("a") == base_a + WRITER_BATCHES
        assert storage.generation("b") == base_b + WRITER_BATCHES

    def test_monotonic_mutation_version_under_concurrent_reads(self):
        storage = two_relation_storage()
        stop = threading.Event()
        regressions = []

        def writer():
            for i in range(WRITER_BATCHES):
                storage.absorb_rows("a", [(i, -i)])
            stop.set()

        def reader():
            last = storage.mutation_version()
            while not stop.is_set():
                current = storage.mutation_version()
                if current < last:
                    regressions.append((last, current))
                last = current

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not regressions
