"""Repository benchmark: ``python3 perfbench/run.py --workload NAME ...``.

Run from the root of a checkout.  One run measures one workload for
``--seconds`` and prints, as its last stdout line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Progress and diagnostics go to stderr.  See README.md in this directory.

Other modes:

* ``--all``: run every workload once and print one row per workload with
  every end-to-end metric (including the serve latencies) and its unit.
* ``--self-test``: doctor a 2x slowdown into one layer and check that the
  traced report blames that layer and that ``eval_s`` moves only on the
  workload the prediction table names.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import emit, log, use_source_tree  # noqa: E402

WORKLOADS = ("cspa", "tc", "serve")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    use_source_tree()
    if name == "serve":
        import serve

        return serve.run(seed, seconds, trace)
    import batch

    return batch.run(name, seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload once, one table row each")
    parser.add_argument("--self-test", action="store_true",
                        help="doctored-slowdown attribution check")
    args = parser.parse_args(argv)
    use_source_tree()
    # Unwind on SIGTERM too, so every started server is stopped and awaited.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if args.self_test:
        import selftest

        return selftest.main(args.seed, args.seconds)
    if args.all:
        import table

        return table.main(WORKLOADS, args.seed, args.seconds, run_workload)
    if args.workload is None:
        parser.error("--workload is required")

    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    correct = report["failed"] == 0
    emit(correct, report["attempted"], report["failed"], report["metrics"])
    if not correct:
        log(f"{args.workload}: {report['failed']} of {report['attempted']} "
            "operations failed")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
