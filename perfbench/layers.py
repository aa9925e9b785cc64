"""Per-layer spans recorded from outside the program.

Each layer is timed by wrapping coarse public entry points of the
program's modules (never a per-row function).  A wrapper records one span
— layer, start, end, thread, parent — in memory; :func:`self_times`
turns the spans into each layer's self time: a span's duration minus the
part of it covered by its child spans.  Spans nest per thread (the
server's writer and reader threads each keep their own stack).

The same wrappers carry the self-test's doctored slowdown: with
``slow=(layer, factor)`` the wrapped call busy-waits ``factor - 1`` times
its own duration before returning, so that layer alone takes ``factor``
times as long.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

perf_counter = time.perf_counter

#: (layer, "module:Owner.attr" or "module:function", extra names that
#: import the same function by name, observer).  Observers turn a call's
#: arguments and result into counts: (name, amount) pairs.
Observer = Callable[[tuple, object], Sequence[Tuple[str, float]]]


def _rows_in_out(args, result):
    return (("rows_derived", len(args[2])), ("rows_accepted", result))


def _rows_out(args, result):
    return (("rows", len(result)),)


LAYERS: List[Tuple[str, str, Tuple[str, ...], Optional[Observer]]] = [
    ("api.query", "repro.api.database:Database.query", (), None),
    ("engine.prepare", "repro.engine.engine:prepare_evaluation",
     ("repro.incremental.session",), None),
    ("relational.load",
     "repro.relational.storage:StorageManager.load_program", (), None),
    ("relational.join",
     "repro.relational.operators:VectorizedSubqueryEvaluator.evaluate", (),
     None),
    ("relational.insert",
     "repro.relational.storage:StorageManager.insert_new_batch", (),
     _rows_in_out),
    ("relational.insert",
     "repro.relational.storage:StorageManager.swap_and_clear", (), None),
    ("core.reorder",
     "repro.core.join_order:JoinOrderOptimizer.optimize_plan", (), None),
    ("core.compile",
     "repro.core.compilation:CompilationManager.compile_now", (), None),
    # Generated join code: a JIT artifact runs the compiled sub-queries.
    ("core.compiled_run",
     "repro.core.backends.base:CompiledArtifact.__call__", (), None),
    ("incremental.apply",
     "repro.incremental.session:IncrementalSession.apply", (), None),
    ("incremental.publish",
     "repro.incremental.snapshots:SnapshotManager.publish", (), None),
    ("api.order_decode", "repro.api.result:QueryResult.rows", (), _rows_out),
    ("server.encode", "repro.server.protocol:jsonify_rows",
     ("repro.server.server",), None),
    ("server.encode", "repro.server.protocol:encode_frame",
     ("repro.server.server",), None),
    ("durability.wal_append",
     "repro.durability.wal:WriteAheadLog.append", (), None),
    ("durability.wal_sync", "repro.durability.wal:WriteAheadLog.sync", (),
     None),
    ("durability.checkpoint_load",
     "repro.durability.checkpoint:load_checkpoint", (), None),
    ("durability.replay", "repro.durability.recover:recover",
     ("repro.durability.manager",), None),
]

LAYER_NAMES = sorted({layer for layer, *_ in LAYERS})


class Recorder:
    """Spans kept in memory: (layer, start, end, thread, parent index)."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def open(self) -> Tuple[int, float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)  # placeholder, filled on close
        stack.append(index)
        return parent, perf_counter()

    def close(self, layer: str, parent: int, start: float) -> None:
        end = perf_counter()
        stack = self._local.stack
        index = stack.pop()
        self.spans[index] = (layer, start, end, threading.get_ident(), parent)

    def dump(self) -> dict:
        return {"spans": list(self.spans), "counts": dict(self.counts)}


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Per layer: Σ span duration minus the time its direct children cover.

    Children of one span run on the parent's thread and are properly nested
    (wrappers open and close in stack order), so their intervals are
    disjoint and the covered part is the sum of their durations.  Spans
    still open when the dump was taken (``None``) are skipped.
    """
    covered = defaultdict(float)
    for span in spans:
        if span is not None and span[4] >= 0:
            covered[span[4]] += span[2] - span[1]
    totals: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        if span is not None:
            totals[span[0]] += (span[2] - span[1]) - covered.get(index, 0.0)
    return dict(totals)


def span_counts(spans: Sequence[Sequence]) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span is not None:
            counts[span[0]] += 1
    return dict(counts)


def _busy_wait(seconds: float) -> None:
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        pass


def _make_wrapper(original, layer: str, recorder: Optional[Recorder],
                  observer: Optional[Observer], factor: float):
    def wrapper(*args, **kwargs):
        if recorder is not None:
            parent, start = recorder.open()
        began = perf_counter()
        try:
            result = original(*args, **kwargs)
            if layer == "api.order_decode":
                # Page rows decode lazily; materialise so the decode is
                # timed inside this layer instead of in its caller.
                result = list(result)
            if factor > 1.0:
                _busy_wait((factor - 1.0) * (perf_counter() - began))
        finally:
            if recorder is not None:
                recorder.close(layer, parent, start)
        if recorder is not None and observer is not None:
            for name, amount in observer(args, result):
                recorder.counts[f"{layer}.{name}"] += amount
        return iter(result) if layer == "api.order_decode" else result

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", layer)
    wrapper.__doc__ = getattr(original, "__doc__", None)
    return wrapper


def install(recorder: Optional[Recorder],
            slow: Optional[Tuple[str, float]] = None) -> Callable[[], None]:
    """Wrap every layer's entry points; returns a function that undoes it.

    ``recorder=None`` installs only the doctored slowdown of ``slow``'s
    layer (the untraced self-test measurement).
    """
    undo: List[Callable[[], None]] = []
    for layer, target, aliases, observer in LAYERS:
        factor = slow[1] if slow is not None and slow[0] == layer else 1.0
        if recorder is None and factor == 1.0:
            continue
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr]
        wrapper = _make_wrapper(original, layer, recorder, observer, factor)
        setattr(owner, attr, wrapper)
        undo.append(lambda o=owner, a=attr, f=original: setattr(o, a, f))
        for alias in aliases:
            alias_module = importlib.import_module(alias)
            if getattr(alias_module, attr, None) is original:
                setattr(alias_module, attr, wrapper)
                undo.append(
                    lambda m=alias_module, a=attr, f=original: setattr(m, a, f)
                )

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore
