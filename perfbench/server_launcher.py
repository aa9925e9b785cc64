"""Start ``repro.server`` with the benchmark's layer wrappers installed.

``python3 perfbench/server_launcher.py DUMP.json SERVER-ARGS...`` installs
every layer wrapper and a tracer sink that sums the engine's own
``dred:*`` spans (through the public ``TelemetryConfig``), then runs
``repro.server.__main__.main``.  When the server has stopped on SIGINT,
the recorded spans and counts are written to ``DUMP.json``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
from common import use_source_tree  # noqa: E402


class DredSink:
    """Tracer sink: total duration of the ``dred:*`` spans it is handed."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def export(self, trace) -> None:
        self.seconds += sum(
            span.duration_seconds for span in trace
            if span.name.startswith("dred:")
        )


def main(argv) -> int:
    dump, server_args = argv[0], argv[1:]
    use_source_tree()
    import repro.server.__main__ as server_main
    from repro.api.database import Database
    from repro.telemetry import TelemetryConfig

    sink = DredSink()
    telemetry = TelemetryConfig(sinks=(sink,))

    def traced_database(source, config, durability=None):
        return Database(source, config.with_(telemetry=telemetry),
                        durability=durability)

    server_main.Database = traced_database
    recorder = layers.Recorder()
    layers.install(recorder)
    try:
        return server_main.main(server_args)
    finally:
        out = recorder.dump()
        out["dred_s"] = sink.seconds
        with open(dump + ".tmp", "w") as handle:
            json.dump(out, handle)
        os.replace(dump + ".tmp", dump)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
