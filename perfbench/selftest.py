"""``--self-test``: a doctored 2x slowdown must be found where predicted.

For each case, one layer's wrapped entry point is made to take twice as
long (inside the benchmark only; see ``layers.py``).  Clean and doctored
evaluations alternate one at a time, in ABBA order, so that the host's
drift moves the two sides of a round alike and a steady drift favours
neither side.  A case passes when

1. the traced run of the predicted workload blames that layer: of all
   layers with at least ``MIN_SELF_S`` of self time per evaluation, its
   self time grows by the largest share.  The busy-wait runs inside the
   layer's own span, so this checks the self-time arithmetic: a parent
   layer whose children were not subtracted would grow as well;
2. ``eval_s`` grows on the predicted workload: the doctored evaluation is
   the slower one in significantly more rounds than chance gives (a
   one-sided sign test at ``ALPHA``), and the median per-round growth is
   at least half the share the layer's clean self time has of an
   evaluation.  When the rounds cannot separate the two sides, the check
   is reported unresolved, not passed;
3. ``eval_s`` moves by less than ``CONTROL_LIMIT`` (median per-round
   change) on the control workload, whose path spends almost nothing in
   that layer.

Exit code: 0 when every check passed, 1 when one failed, 3 when none
failed but one was unresolved.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Tuple

import layers
from batch import Evaluations
from common import log, median

#: (doctored layer, workload it should slow, control workload).
CASES: Tuple[Tuple[str, str, str], ...] = (
    ("core.reorder", "cspa", "tc"),
    ("relational.load", "tc", "cspa"),
)
FACTOR = 2.0
#: Each measurement takes at least this many clean/doctored rounds.
MIN_ROUNDS = 12
#: Layers with less self time than this per evaluation are too small for
#: their relative growth to mean anything.
MIN_SELF_S = 0.0005
#: The control's eval_s must move less than this share; the doctored layer
#: takes under 2% of the control's time.
CONTROL_LIMIT = 0.05
#: Significance of the sign test that separates doctored from clean.
ALPHA = 0.05

PASSED, FAILED, UNRESOLVED = "passed", "failed", "unresolved"


def _rounds(bench: Evaluations, layer: str, seconds: float,
            traced: bool) -> Dict[float, dict]:
    """Alternating one-evaluation blocks: per factor, the evaluation time
    of each round and the summed self times."""
    out = {factor: {"evals": [], "selfs": {}} for factor in (1.0, FACTOR)}
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_ROUNDS or time.perf_counter() < deadline:
        order = (1.0, FACTOR) if index % 2 == 0 else (FACTOR, 1.0)
        for factor in order:
            held = out[factor]
            recorder = layers.Recorder() if traced else None
            restore = layers.install(recorder, slow=(layer, factor))
            bench.evals = []
            try:
                bench.one()
            finally:
                restore()
            if not bench.evals:
                raise RuntimeError(f"{layer}: an evaluation failed")
            held["evals"].append(bench.evals[0])
            if recorder is not None:
                for name, value in layers.self_times(recorder.spans).items():
                    held["selfs"][name] = held["selfs"].get(name, 0.0) + value
        index += 1
    return out


def _paired(rounds: Dict[float, dict]) -> Tuple[List[float], float]:
    """(per-round growth of the doctored side, one-sided sign-test p)."""
    changes = [doctored / clean - 1.0 for clean, doctored in
               zip(rounds[1.0]["evals"], rounds[FACTOR]["evals"])]
    wins, n = sum(change > 0 for change in changes), len(changes)
    p = sum(math.comb(n, k) for k in range(wins, n + 1)) / 2 ** n
    return changes, p


def _record(verdicts: List[Tuple[str, str]], verdict: str,
            message: str) -> None:
    log(f"{verdict.upper()}: {message}")
    verdicts.append((verdict, message))


def check(layer: str, moves: str, control: str, seed: int,
          seconds: float) -> List[Tuple[str, str]]:
    """(verdict, message) of each of the case's three checks."""
    verdicts = []
    target = Evaluations(moves, seed)
    target.one(timed=False)
    traced = _rounds(target, layer, seconds, traced=True)
    per_eval = {
        factor: {name: held["selfs"].get(name, 0.0) / len(held["evals"])
                 for name in layers.LAYER_NAMES}
        for factor, held in traced.items()
    }
    clean = per_eval[1.0]
    growth = {
        name: per_eval[FACTOR][name] / clean[name] - 1.0
        for name in layers.LAYER_NAMES if clean[name] >= MIN_SELF_S
    }
    blamed = max(growth, key=growth.get)
    others = ", ".join(f"{name} {100 * value:+.0f}%" for name, value in sorted(
        growth.items(), key=lambda item: -item[1])[1:4])
    _record(verdicts, PASSED if blamed == layer else FAILED,
            f"{layer} doctored on {moves}: the report blamed {blamed} "
            f"({100 * growth[blamed]:+.0f}%); next {others}")
    share = clean[layer] / median(traced[1.0]["evals"])

    for workload, bench in ((moves, target), (control, None)):
        if bench is None:
            bench = Evaluations(workload, seed)
            bench.one(timed=False)
        changes, p = _paired(_rounds(bench, layer, seconds, traced=False))
        change = median(changes)
        wins = sum(c > 0 for c in changes)
        summary = (f"{layer} doctored: {workload} eval_s {100 * change:+.1f}% "
                   f"(median of {len(changes)} rounds, doctored slower in "
                   f"{wins}, sign-test p {p:.3f})")
        if workload == moves:
            summary += f"; expected about {100 * share:+.1f}%"
            if p >= ALPHA:
                verdict = UNRESOLVED
            else:
                verdict = PASSED if change >= 0.5 * share else FAILED
        else:
            summary += f"; control limit {100 * CONTROL_LIMIT:.0f}%"
            verdict = PASSED if abs(change) < CONTROL_LIMIT else FAILED
        _record(verdicts, verdict, summary)
    return verdicts


def main(seed: int, seconds: float) -> int:
    verdicts = []
    for layer, moves, control in CASES:
        verdicts += check(layer, moves, control, seed, seconds)
    outcome = {verdict for verdict, _ in verdicts}
    if FAILED in outcome:
        log("self-test FAILED")
        return 1
    if UNRESOLVED in outcome:
        log("self-test UNRESOLVED: a doctored slowdown could not be told "
            "apart from the host's noise")
        return 3
    log("self-test passed: every doctored layer was blamed and moved "
        "eval_s only on its predicted workload")
    return 0
