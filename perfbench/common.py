"""Shared helpers: checkout paths, seeded inputs, statistics, result lines."""

from __future__ import annotations

import functools
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from typing import Dict, Iterable, List, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Everything the benchmark writes (reference caches, crash images, span
#: dumps) lives here, inside the checkout; the root .gitignore lists it.
WORK = os.path.join(ROOT, ".perfbench")

#: The generator seed of the fixed input structures.  The figures quoted in
#: README.md (18,006 VAlias rows; 62,842 TC paths) are this instance.  Across
#: generator seeds the CSPA evaluation time spans 0.5-28 s (see README.md),
#: so the benchmark's own --seed relabels and reorders this structure
#: instead of drawing a new one: every seed hands the program different
#: values in a different order, at the same amount of work.
STRUCTURE_SEED = 2024
#: Relabelled node ids are drawn from this range.
ID_SPACE = 1_000_000

Pair = Tuple[int, int]


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src`` (exit 2 when absent)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def work_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def trace_path(workload: str, seed: int) -> str:
    """Where a traced run writes its spans and counts when it ends."""
    return os.path.join(work_dir("traces"), f"{workload}-{seed}.json")


def relabelling(nodes: Sequence[int], rng: random.Random) -> Dict[int, int]:
    """A seeded injection of ``nodes`` into ``range(ID_SPACE)``."""
    return dict(zip(nodes, rng.sample(range(ID_SPACE), len(nodes))))


def relabel(groups: Sequence[Sequence[Pair]], seed: int) -> List[List[Pair]]:
    """Map every node id through one seeded injection into ``ID_SPACE``
    and shuffle each pair list; the structure is unchanged."""
    rng = random.Random(seed)
    nodes = sorted({node for pairs in groups for pair in pairs for node in pair})
    mapping = relabelling(nodes, rng)
    out = []
    for pairs in groups:
        mapped = [(mapping[a], mapping[b]) for a, b in pairs]
        rng.shuffle(mapped)
        out.append(mapped)
    return out


def closure(edges: Iterable[Pair]) -> set:
    """Transitive closure by a breadth-first search from every source."""
    successors: Dict[int, List[int]] = {}
    for a, b in edges:
        successors.setdefault(a, []).append(b)
    paths = set()
    for source in successors:
        seen = set()
        frontier = [source]
        while frontier:
            following = []
            for node in frontier:
                for target in successors.get(node, ()):
                    if target not in seen:
                        seen.add(target)
                        following.append(target)
            frontier = following
        paths.update((source, target) for target in seen)
    return paths


# -- statistics ---------------------------------------------------------------

def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def tail_fraction(count: int) -> float:
    """The highest of p99/p95/p90/p75/p50 with ten samples beyond it."""
    for fraction in (0.99, 0.95, 0.90, 0.75):
        if count * (1.0 - fraction) >= 10:
            return fraction
    return 0.5


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


#: Seconds the calibration workload takes at the reference host speed.
REFERENCE_S = 0.05
#: The calibration graph: seeded random edges over these many nodes.  Its
#: closure has about 13.6k pairs; three of them take ``REFERENCE_S``.
CALIBRATION_NODES, CALIBRATION_EDGES = 3_000, 2_500


@functools.lru_cache(maxsize=1)
def _calibration_graph() -> Tuple[Pair, ...]:
    rng = random.Random(0)
    return tuple((rng.randrange(CALIBRATION_NODES),
                  rng.randrange(CALIBRATION_NODES))
                 for _ in range(CALIBRATION_EDGES))


def host_speed() -> float:
    """How slowly the host runs right now: > 1 is slower than reference.

    The host's speed drifts by tens of percent over minutes on a shared
    machine (README.md, "Steadiness").  The batch workloads report their
    times at the reference speed: divided by the median of these samples,
    taken in the measuring process before each evaluation.  The workload
    is fixed benchmark code — the breadth-first closure of a fixed graph,
    joins over sets and dicts of int tuples like the engine's — so no
    change to the program can change it.
    """
    edges = _calibration_graph()
    gc.collect()
    started = time.perf_counter()
    for _ in range(3):
        closure(edges)
    return (time.perf_counter() - started) / REFERENCE_S


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- result line ----------------------------------------------------------------

def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Tuple[float, str]]) -> None:
    """Print the one-line JSON result a runner parses (last stdout line)."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)


def log(message: str) -> None:
    sys.stderr.write(message + "\n")
    sys.stderr.flush()
