"""The ``serve`` workload: a durable query server under mixed load.

Set-up is a warm restart from a crash image — a checkpoint of the base
fixpoint of a 2k-edge transitive closure plus a WAL tail of
``TAIL_RECORDS`` single-edge mutations, written in every run by the
program's own durability code and copied fresh before every start.
``setup_s`` is the time from spawning ``python -m repro.server
--durability DIR --fsync batch`` to its first correct full read of
``path`` (checkpoint install plus WAL replay).

One server takes the load, in ``SEGMENTS`` segments.  Before every
segment after the first, another server is started from the image, timed
and stopped, so that the run's starts and its load are spread over the
whole run.  Load comes from this process over ``CONNECTIONS`` connections;
each segment runs three phases (``PHASES``): an open loop at
``OFFERED_RATE`` requests per second, each request timed from its due
time; a closed loop; and a probe that times full reads of ``path`` right
after single writes on an otherwise idle server.  The mix of both loops
is 75% paged reads of ``path`` at random offsets, 5% full reads, 10%
single-edge inserts between existing nodes and 10% retracts of edges
inserted earlier.  The tail plus the run's writes cross the server's
1024-record checkpoint trigger, so every run pays one checkpoint.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

import catalog
import layers
from common import (
    BENCH_DIR, SRC, STRUCTURE_SEED, Pair, closure, log, median, percentile,
    relabelling, tail_fraction, trace_path, work_dir,
)
from reference import SERVE_EDGES, SERVE_NODES

RULES = "path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).\n"
TAIL_RECORDS = 880
OFFERED_RATE = 50.0
CONNECTIONS = 2
#: Load segments per run, and server starts: one before each segment.
SEGMENTS = 5
PAGE = 100
#: Shares of a segment's seconds: open loop, closed loop, answer probe.
PHASES = (0.5, 0.4, 0.1)
#: The probes of a run take at least this many write-then-full-read samples.
MIN_PROBES = 15
MIX = (("page", 0.75), ("full", 0.05), ("insert", 0.10), ("retract", 0.10))
#: Requests are dealt from shuffled decks of this many, each holding the
#: mix's shares exactly: a closed-loop segment of a few hundred requests
#: then has the same share of costly full reads and writes as any other.
DECK = 20
REQUEST_TIMEOUT = 10.0
#: An open-loop run whose generator ran this late, or that completed
#: less than this share of the offered rate, is invalid.
MAX_LATE_MS = 50.0
MIN_ACHIEVED = 0.97


# -- inputs -------------------------------------------------------------------

class EdgeModel:
    """The acknowledged edge set, and seeded choices of the next write."""

    def __init__(self, edges, seed: int, nodes: Sequence[int]) -> None:
        self.present: Set[Pair] = set(edges)
        self.nodes = list(nodes)  # choices index this list
        self.inserted: List[Pair] = []   # acknowledged inserts, retractable
        self.pending: Set[Pair] = set()
        self.rng = random.Random(seed)
        self.deck: List[str] = []

    def kind(self) -> str:
        if not self.deck:
            self.deck = [kind for kind, share in MIX
                         for _ in range(round(share * DECK))]
            self.rng.shuffle(self.deck)
        return self.deck.pop()

    def next_write(self, kind: str) -> Tuple[str, Pair]:
        candidates = [e for e in self.inserted if e not in self.pending]
        if kind == "retract" and candidates:
            edge = self.rng.choice(candidates)
            self.inserted.remove(edge)
        else:
            kind = "insert"
            while True:
                edge = (self.rng.choice(self.nodes), self.rng.choice(self.nodes))
                if edge[0] != edge[1] and edge not in self.present \
                        and edge not in self.pending:
                    break
        self.pending.add(edge)
        return kind, edge

    def acknowledge(self, kind: str, edge: Pair, ok: bool) -> None:
        self.pending.discard(edge)
        if not ok:
            return
        if kind == "insert":
            self.present.add(edge)
            self.inserted.append(edge)
        else:
            self.present.discard(edge)


def program_source(edges) -> str:
    facts = "".join(f"edge({a}, {b}).\n" for a, b in edges)
    return facts + RULES


def serve_inputs(seed: int):
    """(base edges, WAL tail, nodes) of the crash image for ``seed``.

    Like the other workloads, the structure — the base graph and the
    tail's alternating inserts and retracts — is fixed, and ``seed``
    relabels it and shuffles the facts, so replay costs the same for every
    seed.  ``nodes`` lists the relabelled nodes in structure order: a load
    whose choices index it writes the same structural edges for every seed.
    """
    from repro.workloads import random_edges

    structure = random_edges(SERVE_NODES, SERVE_EDGES, STRUCTURE_SEED)
    order = sorted({node for edge in structure for node in edge})
    model = EdgeModel(structure, STRUCTURE_SEED + 1, order)
    tail = []
    for index in range(TAIL_RECORDS):
        kind, edge = model.next_write("retract" if index % 2 else "insert")
        model.acknowledge(kind, edge, True)
        tail.append((kind, edge))
    rng = random.Random(seed)
    mapping = relabelling(order, rng)
    base = [(mapping[a], mapping[b]) for a, b in structure]
    rng.shuffle(base)
    tail = [(kind, (mapping[a], mapping[b])) for kind, (a, b) in tail]
    return base, tail, [mapping[node] for node in order]


def crash_image(seed: int, root: str) -> Tuple[str, str, Set[Pair], List[int]]:
    """(image dir, program path, edge set, nodes), built under ``root``.

    The image is what a server leaves behind when it dies without a clean
    shutdown: a checkpoint of the base fixpoint and a WAL tail.  It is
    written by the checked-out program's own durability code in every run,
    so a start always recovers from an image in the program's own format.
    """
    from repro.api.database import Database
    from repro.core.config import EngineConfig
    from repro.durability import DurabilityConfig

    program = os.path.join(root, "tc.dl")
    image = os.path.join(root, "image")
    base, tail, nodes = serve_inputs(seed)
    with open(program, "w") as handle:
        handle.write(program_source(base))
    with open(program) as handle:
        source = handle.read()
    database = Database(source, EngineConfig(), durability=DurabilityConfig(
        dir=image, fsync="off", checkpoint_on_close=False))
    try:
        connection = database.connect()
        connection.checkpoint()
        edges = set(base)
        for kind, edge in tail:
            if kind == "insert":
                connection.insert_facts("edge", [edge])
                edges.add(edge)
            else:
                connection.retract_facts("edge", [edge])
                edges.discard(edge)
    finally:
        database.close()
    return image, program, edges, nodes


# -- the server process -----------------------------------------------------------

class Server:
    """One server process on a fresh copy of the crash image."""

    def __init__(self, image: str, program: str, directory: str,
                 dump: Optional[str] = None) -> None:
        self.dir = directory
        shutil.copytree(image, self.dir)
        args = ["--program", program, "--port", "0",
                "--durability", self.dir, "--fsync", "batch"]
        if dump is None:
            command = [sys.executable, "-m", "repro.server", *args]
        else:
            command = [sys.executable,
                       os.path.join(BENCH_DIR, "server_launcher.py"), dump, *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stderr=subprocess.PIPE, stdout=subprocess.DEVNULL,
            text=True, env=env,
        )
        try:
            self.port = self._await_listening()
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()

    def _await_listening(self) -> int:
        seen = []
        while True:
            line = self.process.stderr.readline()
            seen.append(line)
            if not line:
                raise RuntimeError(
                    "server exited before listening:\n" + "".join(seen[-20:]))
            if "listening on" in line:
                return int(line.rsplit(":", 1)[1])

    def _drain_stderr(self) -> None:
        for line in self.process.stderr:
            if "Traceback" in line or "ERROR" in line:
                log(f"server: {line.rstrip()}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, graceful: bool = True) -> None:
        if self.process.poll() is None:
            if graceful:
                self.process.send_signal(signal.SIGINT)
            else:
                self.process.kill()
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._drain.join(timeout=5)
        shutil.rmtree(self.dir, ignore_errors=True)


# -- load ---------------------------------------------------------------------------

class Load:
    """Request accounting shared by every phase."""

    def __init__(self, model: EdgeModel, rows: int) -> None:
        self.model = model
        self.rows = rows            # last seen path size, for page offsets
        self.latency: Dict[str, List[float]] = {
            "read": [], "write": [], "full": [], "sent": []}
        self.attempted = 0
        self.failed = 0

    def message(self) -> Tuple[str, dict, Optional[Tuple[str, Pair]]]:
        kind = self.model.kind()
        if kind == "page":
            offset = self.model.rng.randrange(max(1, self.rows - PAGE))
            return "read", {"op": "query", "relation": "path",
                            "offset": offset, "limit": PAGE}, None
        if kind == "full":
            return "full", {"op": "query", "relation": "path"}, None
        write, edge = self.model.next_write(kind)
        return "write", {"op": write, "relation": "edge",
                         "rows": [list(edge)]}, (write, edge)

    async def send(self, client, kind: str, message: dict, write,
                   timed_from: float, bucket: Optional[str]) -> float:
        """One request; a success's latency from ``timed_from`` goes to
        ``bucket``, its latency from sending to ``sent``."""
        from repro.server.client import ServerError

        self.attempted += 1
        sent = time.perf_counter()
        ok = False
        try:
            response = await asyncio.wait_for(
                client.request(message), REQUEST_TIMEOUT)
            ok = bool(response.get("ok"))
            if ok and kind == "full":
                self.rows = len(response["rows"])
                ok = self.rows == response["count"]
        except (ServerError, asyncio.TimeoutError, OSError,
                asyncio.IncompleteReadError) as error:
            log(f"{message['op']} failed: {error!r}")
        done = time.perf_counter()
        if write is not None:
            self.model.acknowledge(write[0], write[1], ok)
        if not ok:
            self.failed += 1
            return done
        if bucket is not None:
            self.latency[bucket].append(done - timed_from)
        self.latency["sent"].append(done - sent)
        return done


async def _open_loop(load: Load, clients, seconds: float) -> dict:
    """Requests released on a fixed schedule; each timed from its due time."""
    queue: asyncio.Queue = asyncio.Queue()
    late: List[float] = []
    completed = []
    start = time.perf_counter()
    count = int(seconds * OFFERED_RATE)

    async def generator() -> None:
        for index in range(count):
            due = start + index / OFFERED_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(time.perf_counter() - due)
            queue.put_nowait((due, *load.message()))
        for _ in clients:
            queue.put_nowait(None)

    async def worker(client) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            due, kind, message, write = item
            bucket = "write" if kind == "write" else "read"
            completed.append(
                await load.send(client, kind, message, write, due, bucket))

    await asyncio.gather(generator(), *(worker(c) for c in clients))
    within = sum(1 for done in completed if done <= start + seconds + 0.5)
    return {"late": late, "offered": count, "within": within}


async def _closed_loop(load: Load, clients, seconds: float) -> float:
    """Each connection sends its next request when the previous completes."""
    deadline = time.perf_counter() + seconds
    completed = [0]

    async def worker(client) -> None:
        while time.perf_counter() < deadline:
            kind, message, write = load.message()
            before = load.failed
            await load.send(client, kind, message, write, time.perf_counter(),
                            None)
            completed[0] += load.failed == before

    started = time.perf_counter()
    await asyncio.gather(*(worker(c) for c in clients))
    return completed[0] / (time.perf_counter() - started)


async def _probe(load: Load, port: int, seconds: float, minimum: int) -> None:
    """Time to a complete answer, on a fresh connection with nothing else
    in flight: alternately insert or retract an edge, then read all of
    ``path`` (the first read of each new version orders and decodes it).

    A read is timed until its last response byte arrives; decoding the
    JSON and checking it follow outside the timer, so the time is the
    server's answer path plus the socket.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)

    async def request(message: dict) -> Tuple[float, dict]:
        payload = json.dumps(message).encode("utf-8")
        started = time.perf_counter()
        writer.write(len(payload).to_bytes(4, "big") + payload)
        await writer.drain()
        size = int.from_bytes(await reader.readexactly(4), "big")
        body = await reader.readexactly(size)
        return time.perf_counter() - started, json.loads(body)

    deadline = time.perf_counter() + seconds
    index = 0
    try:
        while index < minimum or time.perf_counter() < deadline:
            kind, edge = load.model.next_write(
                "retract" if index % 2 else "insert")
            load.attempted += 2
            _, response = await asyncio.wait_for(request(
                {"op": kind, "relation": "edge", "rows": [list(edge)]}
            ), REQUEST_TIMEOUT)
            load.model.acknowledge(kind, edge, bool(response.get("ok")))
            load.failed += not response.get("ok")
            elapsed, response = await asyncio.wait_for(
                request({"op": "query", "relation": "path"}), REQUEST_TIMEOUT)
            if response.get("ok") and len(response["rows"]) == response["count"]:
                load.latency["full"].append(elapsed)
            else:
                load.failed += 1
            index += 1
    except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError) as error:
        load.failed += 1
        log(f"probe failed: {error!r}")
    finally:
        writer.close()
        await writer.wait_closed()


async def _segment(port: int, load: Load, seconds: float) -> dict:
    """One load segment: the three phases in turn, ``seconds`` in all."""
    from repro.server.client import AsyncClient

    clients = [await AsyncClient.connect("127.0.0.1", port)
               for _ in range(CONNECTIONS)]
    try:
        open_share, closed_share, probe_share = PHASES
        open_stats = await _open_loop(load, clients, seconds * open_share)
        closed_rate = await _closed_loop(load, clients, seconds * closed_share)
    finally:
        for client in clients:
            await client.close()
    await _probe(load, port, seconds * probe_share,
                 -(-MIN_PROBES // SEGMENTS))
    return {**open_stats, "ops_per_s": closed_rate,
            "seconds": seconds * open_share}


async def _finish(port: int) -> Tuple[Set[Pair], dict]:
    """The final ``path`` and the server's metrics."""
    from repro.server.client import AsyncClient

    client = await AsyncClient.connect("127.0.0.1", port)
    try:
        final = await client.request({"op": "query", "relation": "path"})
        metrics = (await client.request({"op": "metrics"}))["metrics"]
    finally:
        await client.close()
    return {tuple(row) for row in final["rows"]}, metrics


def _first_read(server: Server, expected: Set[Pair]) -> Tuple[float, bool]:
    """Seconds from spawn to the first full read, and whether it was right."""
    from repro.server.client import BlockingClient

    with BlockingClient("127.0.0.1", server.port) as client:
        rows = client.query("path")
        elapsed = time.perf_counter() - server.started
    return elapsed, set(rows) == expected


def tail_ms(samples: List[float]) -> Tuple[str, float]:
    """(label, ms) of the highest percentile with ten samples beyond it."""
    fraction = tail_fraction(len(samples))
    return f"p{100 * fraction:g}", 1000.0 * percentile(samples, fraction)


def _read_dump(path: str) -> Optional[dict]:
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def run(seed: int, seconds: float, trace: bool) -> dict:
    """One run: ``SEGMENTS`` load segments on one server, with a timed
    restart of another server from the crash image before every segment
    after the first, so that each metric's median draws on samples from
    the whole run instead of from one stretch of it."""
    scratch = work_dir("serve", "run", str(os.getpid()))
    shutil.rmtree(scratch)  # a fresh directory: no image of an earlier run
    os.makedirs(scratch)
    dump = trace_path("serve", seed) if trace else None
    if dump is not None and os.path.exists(dump):
        os.remove(dump)  # never read a stale dump from an earlier run
    attempted = failed = 0
    setups: List[float] = []
    server = None

    def start(slot: str, traced: Optional[str]) -> Server:
        nonlocal attempted, failed
        started = Server(image, program, os.path.join(scratch, slot),
                         dump=traced)
        setup, ok = _first_read(started, expected)
        attempted += 1
        failed += not ok
        setups.append(setup)
        return started

    try:
        image, program, image_edges, nodes = crash_image(seed, scratch)
        expected = closure(image_edges)
        # The server under load is the only traced one; the other starts
        # are the untraced base of trace.overhead.
        server = start("main", dump)
        load = Load(EdgeModel(image_edges, STRUCTURE_SEED + 2, nodes),
                    len(expected))
        segments = []
        for index in range(SEGMENTS):
            if index:
                start(f"start-{index}", None).stop(graceful=False)
            segments.append(asyncio.run(
                _segment(server.port, load, seconds / SEGMENTS)))
        final, snapshot = asyncio.run(_finish(server.port))
        peak = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        recorded = _read_dump(dump) if dump is not None else None
        shutil.rmtree(scratch, ignore_errors=True)
    attempted += load.attempted + 1
    failed += load.failed
    if final != closure(load.model.present):
        failed += 1
        log("final path differs from the closure of the acknowledged edges")
    late_p99_ms = 1000.0 * percentile(
        [late for segment in segments for late in segment["late"]], 0.99)
    offered = sum(segment["offered"] for segment in segments)
    open_seconds = sum(segment["seconds"] for segment in segments)
    achieved_rate = sum(segment["within"] for segment in segments) / open_seconds
    if achieved_rate < MIN_ACHIEVED * offered / open_seconds \
            or late_p99_ms > MAX_LATE_MS:
        raise RuntimeError(
            f"open loop invalid: achieved {achieved_rate:.1f}/s of "
            f"{offered / open_seconds:.1f}/s offered, generator late p99 "
            f"{late_p99_ms:.1f} ms")
    if catalog.counter(snapshot, "checkpoints_total") < 1:
        log("warning: no checkpoint fired during the run")
    ops_per_s = median([segment["ops_per_s"] for segment in segments])
    latency = load.latency
    latencies = {
        "read_p50_ms": 1000.0 * median(latency["read"]),
        "read_tail": tail_ms(latency["read"]),
        "write_p50_ms": 1000.0 * median(latency["write"]),
        "write_tail": tail_ms(latency["write"]),
    }
    log(f"serve: {len(latency['read'])} open-loop reads, "
        f"{len(latency['write'])} writes; read p50 "
        f"{latencies['read_p50_ms']:.2f} ms, {latencies['read_tail'][0]} "
        f"{latencies['read_tail'][1]:.2f} ms; write p50 "
        f"{latencies['write_p50_ms']:.2f} ms, {latencies['write_tail'][0]} "
        f"{latencies['write_tail'][1]:.2f} ms; generator late p99 "
        f"{late_p99_ms:.2f} ms; achieved {achieved_rate:.1f}/s; closed loop "
        f"{ops_per_s:.1f} ops/s (segments "
        + " ".join(f"{segment['ops_per_s']:.0f}" for segment in segments)
        + "), setups " + " ".join(f"{setup:.2f}" for setup in setups)
        + f" s, probe full read {1000 * median(latency['full']):.1f} ms; "
        f"{len(load.model.present)} edges at the end")
    report = {"attempted": attempted, "failed": failed, "rows": len(expected),
              "latencies": latencies}
    if not trace:
        values = {
            # Wall-clock: the server's work runs in another process, whose
            # speed a sample taken here does not track (README.md).
            "setup_s": median(setups),
            "eval_s": median(latency["full"]),
            "ops_per_s": ops_per_s,
            "peak_rss_mb": peak,
            "success_ratio": 1.0 - failed / attempted,
        }
        report["metrics"] = catalog.with_units(values, catalog.E2E)
        return report
    if recorded is None:
        raise RuntimeError("the traced server wrote no span dump")
    spans = recorded["spans"]
    requests, request_sum = catalog.histogram(snapshot, "server_request_seconds")
    request_ms = 1000.0 * catalog.ratio(request_sum, requests)
    selfs = layers.self_times(spans)
    # The engine's dred:* spans run inside IncrementalSession.apply.
    selfs["incremental.apply"] = selfs.get("incremental.apply", 0.0) \
        - recorded["dred_s"]
    values = catalog.per_layer(
        selfs, layers.span_counts(spans),
        recorded["counts"], snapshot, per=1.0,
        extra={
            "incremental.dred_s": recorded["dred_s"],
            "server.request_ms": request_ms,
            "server.client_gap_ms":
                1000.0 * sum(latency["sent"]) / len(latency["sent"]) - request_ms,
            "loadgen.late_p99_ms": late_p99_ms,
            "loadgen.achieved_rate": achieved_rate,
            "trace.overhead": setups[0] / median(setups[1:]),
        },
    )
    report["metrics"] = catalog.with_units(values, catalog.PER_LAYER)
    return report
