"""Incremental evaluation: long-lived sessions over a changing fact base.

The single-shot :class:`~repro.engine.engine.ExecutionEngine` mirrors how the
paper benchmarks Carac: load facts, run to fixpoint, read results, throw the
engine away.  A production deployment looks different — the same program is
queried over and over while facts arrive and expire.  This package provides
that service shape:

* :class:`IncrementalSession` — owns one :class:`~repro.relational.storage.StorageManager`
  across many fixpoints; ``insert_facts`` / ``retract_facts`` mutate the fact
  base in batches and repair the fixpoint incrementally instead of
  recomputing it.
* Insertions propagate by semi-naive **delta propagation** seeded from the
  new rows (reusing the Delta-Known/Delta-New machinery of §V-B1/§V-D).
* Retractions use **delete-and-rederive** (DRed): over-delete the entire
  derivation cone of the retracted rows, then re-derive every over-deleted
  fact that still has a derivation from the surviving database.
* Reads serve the storage's frozen rows, memoised per relation generation
  (:meth:`~repro.relational.storage.StorageManager.frozen_rows`): a repeat
  read of an unchanged relation returns the same frozenset, and any
  mutation of the relation bumps its generation.  The query server reads
  published MVCC snapshots instead (:mod:`repro.incremental.snapshots`).

Programs with negation or aggregation fall back to transparent full
recomputation inside the same session API (incremental maintenance under
stratified negation needs support counts we do not track); every positive
program — including all of the paper's macro benchmarks — takes the true
incremental path in every :class:`~repro.core.config.ExecutionMode`.
"""

from repro.incremental.dred import DeletionCone, over_delete, rederivation_seeds
from repro.incremental.session import IncrementalSession, UpdateReport

__all__ = [
    "DeletionCone",
    "IncrementalSession",
    "UpdateReport",
    "over_delete",
    "rederivation_seeds",
]
