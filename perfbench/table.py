"""``--all``: every workload once, one row each, every end-to-end metric."""

from __future__ import annotations

from common import log

COLUMNS = (
    ("setup_s", "s"), ("eval_s", "s"), ("ops_per_s", "ops/s"),
    ("read_p50_ms", "ms"), ("read_tail_ms", "ms"),
    ("write_p50_ms", "ms"), ("write_tail_ms", "ms"),
    ("peak_rss_mb", "MB"), ("error_rate", "ratio"), ("rows", "count"),
)


def _row(report: dict) -> dict:
    row = {name: value for name, (value, _unit) in report["metrics"].items()}
    row["error_rate"] = report["failed"] / report["attempted"]
    row["rows"] = report["rows"]
    latencies = report.get("latencies")
    if latencies is not None:  # serve only: the batch workloads have none
        for kind in ("read", "write"):
            row[f"{kind}_p50_ms"] = latencies[f"{kind}_p50_ms"]
            label, value = latencies[f"{kind}_tail"]
            row[f"{kind}_tail_ms"] = f"{value:.4g} ({label})"
    return row


def main(workloads, seed: int, seconds: float, run_workload) -> int:
    rows, failed = {}, False
    for name in workloads:
        report = run_workload(name, seed, seconds, False)
        rows[name] = _row(report)
        failed |= report["failed"] > 0
    header = ["workload"] + [f"{name} [{unit}]" for name, unit in COLUMNS]
    table = [header] + [
        [name] + [
            "-" if row.get(column) is None
            else row[column] if isinstance(row[column], str)
            else f"{row[column]:.6g}"
            for column, _unit in COLUMNS
        ]
        for name, row in rows.items()
    ]
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    for line in table:
        print("  ".join(cell.rjust(width) for cell, width in zip(line, widths)))
    if failed:
        log("some operations failed or returned wrong output")
    return 1 if failed else 0
