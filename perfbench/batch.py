"""The ``cspa`` and ``tc`` workloads: one-shot evaluations through the API.

Each evaluation builds the ``Program`` from the generated facts, opens a
fresh ``Database`` under the paper's adaptive configuration (JIT with the
lambda backend, vectorized executor) and evaluates the target relation
once with ``Database.query``.  The loop repeats evaluations for the run's
measured seconds and reports medians; every result is compared with an
independent reference.
"""

from __future__ import annotations

import gc
import json
import time
import traceback
from typing import Callable, Dict, List, Tuple

import catalog
import layers
from common import (
    closure, host_speed, log, median, peak_rss_mb, trace_path, use_source_tree,
)
from reference import cached_cspa_reference, cspa_inputs, tc_edges

#: Set-ups timed per evaluation (their median is ``setup_s``).
SETUPS_PER_EVALUATION = 3


def _workload(name: str, seed: int) -> Tuple[Callable, str, frozenset]:
    """(program builder, target relation, reference rows) for ``name``."""
    use_source_tree()
    if name == "cspa":
        from repro.analyses.cspa import build_cspa_program
        from repro.workloads.program_facts import CSPADataset

        assign, derefr = cspa_inputs(seed)
        reference = cached_cspa_reference(seed)
        dataset = CSPADataset(assign=assign, dereference=derefr)
        return (lambda: build_cspa_program(dataset)), "VAlias", reference
    if name == "tc":
        from repro.analyses.micro import build_transitive_closure_program

        edges = tc_edges(seed)
        reference = frozenset(closure(edges))
        return (lambda: build_transitive_closure_program(edges)), "path", reference
    raise ValueError(f"not a batch workload: {name!r}")


class Evaluations:
    """Timed set-up + evaluation + check, repeated."""

    def __init__(self, name: str, seed: int) -> None:
        from repro import Database, EngineConfig

        self.build, self.relation, self.reference = _workload(name, seed)
        self.config = EngineConfig.jit("lambda").with_(executor="vectorized")
        self.database_class = Database
        self.setups: List[float] = []
        self.evals: List[float] = []
        self.speeds: List[float] = []   # host speed next to each evaluation
        self.snapshots: List[Dict[str, object]] = []
        self.attempted = 0
        self.failed = 0
        self.rows = 0

    def one(self, timed: bool = True) -> None:
        if timed:
            self.speeds.append(host_speed())
        for _ in range(SETUPS_PER_EVALUATION):
            started = time.perf_counter()
            database = self.database_class(self.build(), self.config)
            setup = time.perf_counter() - started
            if timed:
                self.setups.append(setup)
        self.attempted += 1
        # Start every evaluation from the same collector state, so cyclic
        # garbage collection lands at the same points of each evaluation.
        gc.collect()
        try:
            started = time.perf_counter()
            result = database.query(self.relation)
            count = result.count()
            rows = result.to_frozenset()
            elapsed = time.perf_counter() - started
        except Exception:  # counted and reported; the run goes on
            self.failed += 1
            log(f"evaluation failed:\n{traceback.format_exc()}")
            return
        self.rows = count
        if count != len(self.reference) or rows != self.reference:
            self.failed += 1
            log(f"wrong {self.relation}: {count} rows, "
                f"reference has {len(self.reference)}")
            return
        if timed:
            self.evals.append(elapsed)
            self.snapshots.append(database.metrics())

    def run_for(self, seconds: float, minimum: int = 3) -> None:
        deadline = time.perf_counter() + seconds
        while len(self.evals) < minimum or time.perf_counter() < deadline:
            self.one()
            if self.failed and not self.evals:
                return


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the report (metrics, attempted, failed, extras)."""
    bench = Evaluations(name, seed)
    bench.one(timed=False)  # warm-up: imports, lazy set-up, first JIT
    if not trace:
        bench.run_for(seconds)
        if not bench.evals:
            raise RuntimeError(f"{name}: no evaluation succeeded")
        evals, speed = bench.evals, median(bench.speeds)
        values = {  # at the reference host speed (common.host_speed)
            "setup_s": median(bench.setups) / speed,
            "eval_s": median(evals) / speed,
            "ops_per_s": len(evals) / sum(evals) * speed,
            "peak_rss_mb": peak_rss_mb(),
            "success_ratio": 1.0 - bench.failed / bench.attempted,
        }
        log(f"{name}: {bench.rows} {bench.relation} rows; {len(evals)} "
            f"evaluations; wall eval_s median {median(evals):.4f}, setup_s "
            f"{median(bench.setups):.5f}; host speed {speed:.3f}")
        return _report(bench, catalog.with_units(values, catalog.E2E),
                       {"rows": bench.rows})

    # Traced run: half the time untraced (the overhead baseline), then the
    # same evaluations with every layer wrapper installed.
    bench.run_for(seconds / 2)
    untraced = median(bench.evals)
    recorder = layers.Recorder()
    bench.evals, bench.snapshots = [], []
    restore = layers.install(recorder)
    try:
        bench.run_for(seconds / 2)
    finally:
        restore()
    with open(trace_path(name, seed), "w") as handle:
        json.dump(recorder.dump(), handle)
    spans = recorder.spans
    values = catalog.per_layer(
        layers.self_times(spans), layers.span_counts(spans), recorder.counts,
        catalog.merge(bench.snapshots), per=len(bench.evals),
        extra={"trace.overhead": median(bench.evals) / untraced},
    )
    return _report(bench, catalog.with_units(values, catalog.PER_LAYER),
                   {"rows": bench.rows, "eval_s": median(bench.evals)})


def _report(bench: Evaluations, metrics: dict, extra: dict) -> dict:
    return {"attempted": bench.attempted, "failed": bench.failed,
            "metrics": metrics, **extra}
