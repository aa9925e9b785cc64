"""Independent output references, and the seeded inputs they check.

No reference comes from the engine under test: ``tc`` and ``serve`` are
checked against a breadth-first closure (``common.closure``) and ``cspa``
against the fact-at-a-time semi-naive evaluation below.  CSPA references
are cached under ``.perfbench/cache``, keyed on the seed and a digest of
the code that produces them, and computed in a child process
(``python3 perfbench/reference.py cspa SEED PATH``), so the measuring
process's peak RSS never includes them.
"""

from __future__ import annotations

import glob
import hashlib
import os
import pickle
import subprocess
import sys
from collections import defaultdict
from typing import Dict, List, Set, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    BENCH_DIR, SRC, STRUCTURE_SEED, Pair, relabel, use_source_tree, work_dir,
)

CSPA_TUPLES = 600
TC_NODES, TC_EDGES = 12_000, 10_000
#: The serve workload's 2k-edge closure (about 11k ``path`` rows).
SERVE_NODES, SERVE_EDGES = 2_400, 2_000


def cspa_inputs(seed: int) -> Tuple[List[Pair], List[Pair]]:
    """(Assign, Derefr) of the paper-scale httpd-like CSPA graph."""
    use_source_tree()
    from repro.workloads import HttpdLikeGenerator

    dataset = HttpdLikeGenerator(STRUCTURE_SEED).cspa(tuples=CSPA_TUPLES)
    assign, derefr = relabel([dataset.assign, dataset.dereference], seed)
    return assign, derefr


def tc_edges(seed: int) -> List[Pair]:
    use_source_tree()
    from repro.workloads import random_edges

    return relabel([random_edges(TC_NODES, TC_EDGES, STRUCTURE_SEED)], seed)[0]


def cspa_valias(assign: List[Pair], derefr: List[Pair]) -> Set[Pair]:
    """VAlias of Graspan CSPA (the rules of ``repro.analyses.cspa``).

    Fact-at-a-time semi-naive: a fact enters its relation and indexes when
    first derived, and is later joined once against the current state for
    every body position it can occupy — each rule instance is found when its
    last body fact is processed.
    """
    vf, ma, va = set(), set(), set()
    vf_by_src: Dict[int, Set[int]] = defaultdict(set)
    vf_by_dst: Dict[int, Set[int]] = defaultdict(set)
    ma_by_src: Dict[int, Set[int]] = defaultdict(set)
    ma_by_dst: Dict[int, Set[int]] = defaultdict(set)
    assign_by_rhs: Dict[int, Set[int]] = defaultdict(set)
    deref: Dict[int, Set[int]] = defaultdict(set)
    for lhs, rhs in assign:
        assign_by_rhs[rhs].add(lhs)
    for pointer, target in derefr:
        deref[pointer].add(target)
    work: List[Tuple[str, int, int]] = []

    def add_vf(a: int, b: int) -> None:
        if (a, b) not in vf:
            vf.add((a, b))
            vf_by_src[a].add(b)
            vf_by_dst[b].add(a)
            work.append(("vf", a, b))

    def add_ma(a: int, b: int) -> None:
        if (a, b) not in ma:
            ma.add((a, b))
            ma_by_src[a].add(b)
            ma_by_dst[b].add(a)
            work.append(("ma", a, b))

    def add_va(a: int, b: int) -> None:
        if (a, b) not in va:
            va.add((a, b))
            work.append(("va", a, b))

    for lhs, rhs in assign:
        add_vf(lhs, rhs)
        add_vf(lhs, lhs)
        add_vf(rhs, rhs)
        add_ma(rhs, rhs)
        add_ma(lhs, lhs)
    while work:
        kind, a, b = work.pop()
        if kind == "vf":
            # VaFlow(v1,v2) :- VaFlow(v3,v2), VaFlow(v1,v3)
            for v1 in list(vf_by_dst[a]):
                add_vf(v1, b)
            for v2 in list(vf_by_src[b]):
                add_vf(a, v2)
            # VAlias(v1,v2) :- VaFlow(v3,v2), VaFlow(v3,v1)
            for other in list(vf_by_src[a]):
                add_va(other, b)
                add_va(b, other)
            # VAlias(v1,v2) :- VaFlow(v0,v2), VaFlow(v3,v1), MAlias(v3,v0)
            for v3 in list(ma_by_dst[a]):
                for v1 in list(vf_by_src[v3]):
                    add_va(v1, b)
            for v0 in list(ma_by_src[a]):
                for v2 in list(vf_by_src[v0]):
                    add_va(b, v2)
        elif kind == "ma":
            # VaFlow(v1,v2) :- MAlias(v3,v2), Assign(v1,v3)
            for v1 in assign_by_rhs[a]:
                add_vf(v1, b)
            for v1 in list(vf_by_src[a]):
                for v2 in list(vf_by_src[b]):
                    add_va(v1, v2)
        else:
            # MAlias(v1,v0) :- VAlias(v2,v3), Derefr(v3,v0), Derefr(v2,v1)
            for v1 in deref[a]:
                for v0 in deref[b]:
                    add_ma(v1, v0)
    return va


def _inputs_digest() -> str:
    """Digest of the code that produces the CSPA inputs and reference: the
    program's input generators and this benchmark's own helpers.  A cached
    reference is reused only by a checkout whose code is the same."""
    digest = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(SRC, "repro", "workloads", "*.py")))
    files += [os.path.join(BENCH_DIR, "common.py"), os.path.abspath(__file__)]
    for path in files:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def cached_cspa_reference(seed: int) -> Set[Pair]:
    """The VAlias reference for ``seed``, computed in a child on a miss."""
    path = os.path.join(
        work_dir("cache"),
        f"cspa-{STRUCTURE_SEED}-{seed}-{_inputs_digest()}.pickle")
    if not os.path.exists(path):
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "cspa", str(seed), path],
            check=True,
        )
    with open(path, "rb") as handle:
        return pickle.load(handle)


def main(argv: List[str]) -> int:
    kind, seed, path = argv[0], int(argv[1]), argv[2]
    if kind != "cspa":
        raise SystemExit(f"unknown reference {kind!r}")
    rows = cspa_valias(*cspa_inputs(seed))
    temporary = path + ".tmp"
    with open(temporary, "wb") as handle:
        pickle.dump(frozenset(rows), handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(temporary, path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
