"""``serve-read`` and ``serve-mixed``: the clustering service under load.

Both workloads start the real service as a child process (``python -m
repro serve``; when tracing, :mod:`perfbench.launcher`, which wraps the
layers and then starts the service the same way) on a graph the
benchmark generated, and drive it from this one process over
``CONNECTIONS`` keep-alive connections.  Set-up starts and warms the
service several times (see :func:`_set_up`); ``setup_s`` is the median
and the load runs on the last start.  A run is a row of 1-second
cycles; see :class:`_Load` for why the load pauses between them.

serve-read
    The twitter stand-in, no WAL.  Each cycle sends a seeded Poisson
    stream at ``READ_RATE`` requests/s (about a ninth of capacity),
    timed from each request's due time, then sends the light reads
    closed loop on every connection and counts them against the
    service's CPU time (capacity per service core).  The mix is 75% warm
    ``/cluster`` over six working-set points, 15% ``/vertex``, 7%
    ``include=labels`` and 3% cold points at a fresh (eps, mu).  At the
    end the labels of every working-set point are compared bit for bit
    with ``repro.api.cluster``.

serve-mixed
    The twitter stand-in at quarter scale, with ``--wal-dir``.  One
    closed-loop writer posts seeded 16-edit batches while one reader
    sends an open-loop stream of warm ``/cluster`` and ``include=labels``
    reads.  Cold ``/cluster`` points and ``/vertex`` are left out on
    purpose: they run on the service's executor next to
    ``apply_updates``, and that read-versus-update race on
    ``GraphHandle`` fails a few requests in every run (500s such as "Set
    changed size during iteration", 400s naming a bare edge), while the
    same calls interleaved sequentially never fail.  A reader that gets
    a 404 for a fingerprint the writer has just superseded retries
    against the writer's newest acknowledged fingerprint; that is one
    read with its full latency, not a failure.  After the last
    acknowledgement the labels are compared with a fresh ``GSIndex``
    built over the benchmark's own replay of the edit script.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import queue
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from .common import (
    ROOT,
    geomean,
    host_speed,
    log,
    median,
    percentile,
    program_env,
    vm_hwm_mb,
    work_dir,
)
from .spans import layer_metrics

HERE = Path(__file__).resolve().parent
GRAPH = "twitter"
READ_SCALE = 1.0
MIXED_SCALE = 0.25
#: The working set: six (eps, mu) points every warm read draws from.
POINTS = ((0.25, 3), (0.3, 3), (0.35, 3), (0.4, 3), (0.3, 5), (0.5, 2))
#: One load-generating process with this many connections (= nproc on
#: the 2-core hosts the bounds were set on).
CONNECTIONS = 2
READ_MIX = (("warm", 0.75), ("vertex", 0.15), ("labels", 0.07), ("cold", 0.03))
MIXED_MIX = (("warm", 0.85), ("labels", 0.15))
READ_RATE = 200.0  # requests/s in serve-read's open-loop slices
#: Reads/s beside serve-mixed's writer.  A read waits ~5 ms for the GIL
#: while a batch applies, so one reader connection saturates near
#: 200/s; past that, one slow read starts a backlog that never drains.
MIXED_RATE = 50.0
OPEN_SHARE = 0.5  # share of each serve-read cycle spent open-loop
CYCLE_SECONDS = 1.0
#: Service starts per untraced run; ``setup_s`` is their median.  A
#: serve-read start builds the twitter index (~8 s), so it gets two.
READ_SETUPS = 2
MIXED_SETUPS = 3
P99_CHUNK = 250  # reads per p99 sample
BATCH_SIZE = 16
SCRIPT_BATCHES = 400
STARTUP_SECONDS = 150.0


# -- the service process -------------------------------------------------


class Service:
    """One ``repro serve`` child process on an ephemeral port."""

    def __init__(self, graph_path: Path, work: Path, *, trace: bool, wal: bool):
        work.mkdir()
        self.flags = ["--port", "0", "--graph", str(graph_path)]
        if wal:
            self.flags += ["--wal-dir", str(work / "wal")]
        self.span_path = work / "spans.json"
        if trace:
            cmd = [sys.executable, "-u", str(HERE / "launcher.py"), str(self.span_path)]
        else:
            cmd = [sys.executable, "-u", "-m", "repro", "serve"]
        self.proc = subprocess.Popen(
            cmd + self.flags,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=ROOT,
            env=program_env(),
        )
        self.output: list[str] = []
        # A thread drains the child's output, so neither a full pipe nor
        # lines buffered on our side can stall start-up.
        self._lines: queue.Queue = queue.Queue()
        self._pump = threading.Thread(target=self._read_output, daemon=True)
        self._pump.start()
        self.port = self._await_port()

    def _read_output(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self) -> int:
        deadline = time.monotonic() + STARTUP_SECONDS
        while (remaining := deadline - time.monotonic()) > 0:
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                break
            if line is None:
                break
            found = re.search(r"serving on http://[\d.]+:(\d+)", line)
            if found:
                return int(found.group(1))
        problems = self.stop()
        raise RuntimeError(
            "service did not start: "
            + "; ".join(problems)
            + "\n"
            + "".join(self.output[-20:])
        )

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def cpu_seconds(self) -> float:
        """User plus system CPU time the service has used, all threads."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> list[str]:
        """SIGINT (the service drains and exits 0); problems, if any."""
        problems = []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            problems.append("service did not stop on SIGINT")
        self._pump.join(timeout=10)
        self.proc.stdout.close()
        text = "".join(self.output)
        if self.proc.returncode != 0:
            problems.append(f"service exited {self.proc.returncode}")
        if "Traceback" in text:
            problems.append("service printed a traceback:\n" + text[-2000:])
        return problems

    def spans(self) -> dict:
        return json.loads(self.span_path.read_text())


# -- a minimal keep-alive HTTP/1.1 client --------------------------------


class Connection:
    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, method: str, target: str, body: bytes = b""):
        head = (
            f"{method} {target} HTTP/1.1\r\nHost: perfbench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("service closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload

    async def json(self, method: str, target: str, body=None):
        raw = json.dumps(body).encode() if body is not None else b""
        status, payload = await self.request(method, target, raw)
        return status, json.loads(payload) if payload else None

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


# -- shared pieces -------------------------------------------------------


def _make_graph(work: Path, scale: float):
    from repro.graph.generators import real_world_standin
    from repro.graph.io import load_graph, write_edge_list

    t0 = time.perf_counter()
    graph = real_world_standin(GRAPH, scale=scale)
    generate_s = time.perf_counter() - t0
    path = work / f"{GRAPH}.txt"
    write_edge_list(graph, path)
    # The reference answers use the graph exactly as the service reads it.
    return path, load_graph(path), generate_s


def _set_up(prep_s, graph_path, work, *, trace, wal, warm, starts):
    """Start the service ``starts`` times, each warmed up by ``warm(port)``.

    A start's set-up time is ``prep_s`` (making the graph, shared by all
    starts) plus its own spawn, parse, index build and warm-up.  Every
    service but the last is stopped again; the load runs on the last.
    Returns that service, what its warm-up returned, the set-up times
    and the problems the stopped services showed.
    """
    times: list[float] = []
    problems: list[str] = []
    for start in range(starts):
        t0 = time.perf_counter()
        service = Service(graph_path, work / f"start{start}", trace=trace, wal=wal)
        try:
            warmed = asyncio.run(warm(service.port))
        except BaseException:
            service.stop()
            raise
        times.append(prep_s + time.perf_counter() - t0)
        if start < starts - 1:
            problems += service.stop()
    return service, warmed, times, problems


def _point_query(eps: float, mu: int, *, labels: bool = False) -> str:
    query = f"eps={eps!r}&mu={mu}"
    return query + "&include=labels" if labels else query


def _same_labels(payload: dict, result) -> bool:
    return (
        payload["roles"] == result.roles.tolist()
        and payload["core_labels"] == result.core_labels.tolist()
        and payload["noncore_pairs"]
        == [[int(a), int(b)] for a, b in result.noncore_pairs]
    )


def _poisson(rng: random.Random, rate: float, seconds: float) -> list[float]:
    due, t = [], rng.expovariate(rate)
    while t < seconds:
        due.append(t)
        t += rng.expovariate(rate)
    return due


def _pick(rng: random.Random, mix) -> str:
    x = rng.random()
    for kind, share in mix:
        x -= share
        if x < 0:
            return kind
    return mix[-1][0]


async def _open_loop(conns, due_times, make_request, on_done) -> float:
    """Send each request at its due time over ``conns``; ``on_done``
    times it from the due time, so a stall also delays the requests
    queued behind it.  Returns how late the generator ran at worst."""
    queue: asyncio.Queue = asyncio.Queue()
    lateness = 0.0

    async def worker(conn):
        while (item := await queue.get()) is not None:
            await on_done(conn, *item)

    workers = [asyncio.create_task(worker(conn)) for conn in conns]
    start = time.perf_counter()
    for i, offset in enumerate(due_times):
        due_at = start + offset
        delay = due_at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness = max(lateness, time.perf_counter() - due_at)
        queue.put_nowait((due_at, make_request(i)))
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return lateness


# -- load bookkeeping shared by both workloads ---------------------------


class _Load:
    """What the client saw during the run.

    The run is a row of ``CYCLE_SECONDS`` cycles.  Between cycles the
    load pauses while :func:`host_speed` is measured.  A cycle's
    slowness is the geometric mean of the measurements on either side of
    it, and the work timed in that cycle is divided by it: heavy
    operations by the wall-clock slowness, the service's CPU time by the
    CPU-clock slowness.  The host's speed moves from one cycle to the
    next, so per-cycle scaling beats scaling by the run's median
    (perfbench/NOTES.md).  Set-up comes before the cycles and is scaled
    by the run's median.
    """

    def __init__(self) -> None:
        self.slowness: list[float] = []  # at each cycle boundary, wall clock
        self.cpu_slowness: list[float] = []  # the same, by the CPU clock
        self.reads: list[tuple[str, float]] = []  # kind, latency
        self.heavy: list[float] = []  # latencies
        self.heavy_marks: list[int] = [0]  # len(heavy) at each cycle boundary
        self.closed: list[tuple[int, float]] = []  # per cycle: done, wall
        self.closed_cpu: list[float] = []  # per cycle: service CPU seconds
        self.busy: list[float] = []  # send -> receive, every request
        self.failures: list[str] = []
        self.attempted = 0

    async def run(self, seconds: float, run_cycle) -> tuple[float, float]:
        cycles = max(1, round(seconds / CYCLE_SECONDS))
        self._probe()
        window_open = time.perf_counter()
        for _ in range(cycles):
            await run_cycle(seconds / cycles)
            self._probe()
            self.heavy_marks.append(len(self.heavy))
        return window_open, time.perf_counter()

    def _probe(self) -> None:
        wall, cpu = host_speed()
        self.slowness.append(wall)
        self.cpu_slowness.append(cpu)

    def _cycle_slowness(self, scaled: bool, edges=None) -> list[float]:
        """Per cycle, what the work timed in it is divided by (by default
        the wall-clock slowness)."""
        if not scaled:
            return [1.0] * len(self.closed)
        edges = self.slowness if edges is None else edges
        return [math.sqrt(a * b) for a, b in zip(edges, edges[1:])]

    def scaled_heavy(self, scaled: bool) -> list[float]:
        marks = self.heavy_marks
        return [
            latency / slow
            for i, slow in enumerate(self._cycle_slowness(scaled))
            for latency in self.heavy[marks[i] : marks[i + 1]]
        ]

    def metrics(self, setup_s: float, rss_mb: float, *, scaled: bool = True) -> dict:
        """End-to-end metrics.  Work (set-up, heavy operations, capacity)
        is scaled by the host's slowness.  Light-read latencies are not:
        at a few milliseconds they are mostly waits for the GIL, the
        loopback and the scheduler, which the reference kernels do not
        track (scaling widened their spread from 5% to 20%).

        ``ops_per_s`` is operations per second of the service's CPU time
        (capacity per service core), each cycle's CPU time divided by
        that cycle's CPU-clock slowness.  Operations per wall second
        measure how much of the two cores the host lends the client and
        the service: with two busy processes beside a run, serve-read's
        closed-loop reads per wall second fell by a third, and this rate
        moved under 1%."""
        setup_slow = median(self.slowness) if scaled else 1.0
        reads = [latency for kind, latency in self.reads if kind != "cold"]
        # p99 per run of P99_CHUNK consecutive reads, then the median: a
        # stall of the host delays every read in flight at once, enough
        # to fill the top 1% of a whole run, but only of one chunk.
        chunks = [
            reads[i : i + P99_CHUNK]
            for i in range(0, max(1, len(reads) - P99_CHUNK + 1), P99_CHUNK)
        ]
        cpu_slowness = self._cycle_slowness(scaled, self.cpu_slowness)
        cpu = sum(seconds / slow for seconds, slow in zip(self.closed_cpu, cpu_slowness))
        return {
            "setup_s": setup_s / setup_slow,
            "peak_rss_mb": rss_mb,
            "p50_ms": median(reads) * 1e3,
            "p99_ms": median([percentile(chunk, 99) for chunk in chunks]) * 1e3,
            "heavy_ms": geomean(self.scaled_heavy(scaled)) * 1e3,
            "ops_per_s": sum(done for done, _ in self.closed) / cpu if cpu else 0.0,
        }

    def warm_reads(self) -> list[float]:
        return [latency for kind, latency in self.reads if kind == "warm"]


# -- serve-read ----------------------------------------------------------


class _ReadLoad(_Load):
    def __init__(self) -> None:
        super().__init__()
        self.clusters: dict[tuple, set] = {}


async def _read_request(conn, fingerprint, load, kind, point, vertex):
    """One read; returns when it completed, or None when it failed."""
    if kind == "vertex":
        target = f"/graphs/{fingerprint}/vertex/{vertex}?{_point_query(*point)}"
    else:
        target = f"/graphs/{fingerprint}/cluster?" + _point_query(
            *point, labels=kind == "labels"
        )
    sent = time.perf_counter()
    status, payload = await conn.request("GET", target)
    done = time.perf_counter()
    load.busy.append(done - sent)
    load.attempted += 1
    if status != 200:
        load.failures.append(f"{kind} {target}: HTTP {status} {payload[:200]!r}")
        return None
    if kind == "warm":
        load.clusters.setdefault(point, set()).add(
            json.loads(payload)["num_clusters"]
        )
    return done


def _closed_plan(seed: int, num_vertices: int):
    """The closed loop's seeded request sequence: (kind, point, vertex).

    Capacity is measured on the light reads only, dealt from a shuffled
    deck that holds every (kind, point) pair in the mix's exact
    proportions.  Cold points are ``heavy_ms``, from the open loop: at
    about 10 ms each, with a cost that depends on the point drawn, they
    took a fifth of the closed loop's time.
    """
    rng = random.Random(f"{seed}-closed")
    cards = [
        (kind, point)
        for kind, share in READ_MIX
        if kind != "cold"
        for _ in range(round(share * 100))
        for point in POINTS
    ]
    deck: list = []

    def request():
        if not deck:
            deck.extend(cards)
            rng.shuffle(deck)
        kind, point = deck.pop()
        return kind, point, rng.randrange(num_vertices)

    return request


def _read_plan(seed: int, num_vertices: int):
    """The open loop's seeded request sequence: (kind, point, vertex).

    Cold requests draw fresh (eps, mu) points from one fixed pool near
    the working set, in seeded order: a fresh point's cost depends on
    how many cores it has, and a narrow pool keeps that cost from
    swinging with the seed.
    """
    rng = random.Random(seed)
    used = set(POINTS)
    fresh = [
        (k / 1000, mu)
        for k in range(330, 420)
        for mu in range(2, 12)
        if (k / 1000, mu) not in used
    ]
    rng.shuffle(fresh)

    def request(_index):
        kind = _pick(rng, READ_MIX)
        if kind == "cold" and not fresh:
            kind = "warm"  # pool used up: only in runs far longer than usual
        point = fresh.pop() if kind == "cold" else POINTS[rng.randrange(len(POINTS))]
        return kind, point, rng.randrange(num_vertices)

    return request


async def _warm_read(port, fingerprint) -> None:
    """Set-up's warm-up: memoize every working-set point and its
    per-vertex classification."""
    conn = await Connection.open(port)
    try:
        for eps, mu in POINTS:
            for target in (
                f"/graphs/{fingerprint}/cluster?{_point_query(eps, mu)}",
                f"/graphs/{fingerprint}/vertex/0?{_point_query(eps, mu)}",
            ):
                status, _ = await conn.request("GET", target)
                if status != 200:
                    raise RuntimeError(f"warm-up {target}: HTTP {status}")
    finally:
        await conn.close()


async def _drive_read(service, fingerprint, graph, seed, seconds, load):
    conns = [await Connection.open(service.port) for _ in range(CONNECTIONS)]
    try:
        _, before = await conns[0].json("GET", "/stats")
        make = _read_plan(seed, graph.num_vertices)
        make_closed = _closed_plan(seed, graph.num_vertices)
        schedule = random.Random(seed)
        lateness = 0.0

        async def on_done(conn, due_at, request):
            done = await _read_request(conn, fingerprint, load, *request)
            if done is not None:
                load.reads.append((request[0], done - due_at))
                if request[0] == "cold":
                    load.heavy.append(done - due_at)

        async def closed(conn, end_at):
            completed = 0
            while time.perf_counter() < end_at:
                done = await _read_request(conn, fingerprint, load, *make_closed())
                completed += done is not None
            return completed

        async def cycle(span):
            # An open-loop slice, then a closed-loop slice for capacity.
            nonlocal lateness
            due = _poisson(schedule, READ_RATE, span * OPEN_SHARE)
            lateness = max(lateness, await _open_loop(conns, due, make, on_done))
            cpu = service.cpu_seconds()
            started = time.perf_counter()
            end_at = started + span * (1 - OPEN_SHARE)
            done = await asyncio.gather(*(closed(conn, end_at) for conn in conns))
            load.closed.append((sum(done), time.perf_counter() - started))
            load.closed_cpu.append(service.cpu_seconds() - cpu)

        window = await load.run(seconds, cycle)
        _, after = await conns[0].json("GET", "/stats")

        # Answers, outside the timed region.
        labels = {}
        for eps, mu in POINTS:
            status, payload = await conns[0].json(
                "GET",
                f"/graphs/{fingerprint}/cluster?{_point_query(eps, mu, labels=True)}",
            )
            labels[(eps, mu)] = payload if status == 200 else None
    finally:
        for conn in conns:
            await conn.close()
    return {
        "window": window,
        "lateness": lateness,
        "stats": (before, after),
        "labels": labels,
    }


def _check_labels(labels, reference) -> list[str]:
    problems = []
    for point, payload in labels.items():
        if payload is None:
            problems.append(f"labels for {point}: request failed")
        elif not _same_labels(payload, reference[point]):
            problems.append(f"labels for {point} differ from the reference")
    return problems


def _reference(graph):
    from repro import api
    from repro.options import ExecMode, ExecutionOptions
    from repro.types import ScanParams

    options = ExecutionOptions(exec_mode=ExecMode.BATCHED)
    return {
        (eps, mu): api.cluster(graph, ScanParams(eps, mu), options=options)
        for eps, mu in POINTS
    }


def _read_pass(seed: int, seconds: float, trace: bool) -> dict:
    from repro.cache import graph_fingerprint

    with work_dir() as work:
        t0 = time.perf_counter()
        path, graph, generate_s = _make_graph(work, READ_SCALE)
        fingerprint = graph_fingerprint(graph)
        service, _, setups, problems = _set_up(
            time.perf_counter() - t0,
            path,
            work,
            trace=trace,
            wal=False,
            warm=lambda port: _warm_read(port, fingerprint),
            starts=1 if trace else READ_SETUPS,
        )
        try:
            load = _ReadLoad()
            run = asyncio.run(
                _drive_read(service, fingerprint, graph, seed, seconds, load)
            )
            rss_mb = service.peak_rss_mb()
        finally:
            problems += service.stop()
        reference = _reference(graph)
        problems += _check_labels(run["labels"], reference)
        for point, seen in load.clusters.items():
            if seen != {reference[point].num_clusters}:
                problems.append(f"warm {point} answered {sorted(seen)} clusters")
        spans = service.spans() if trace else None
    return {
        "load": load,
        "setup": (median(setups), rss_mb),
        "setups": setups,
        "run": run,
        "problems": problems + load.failures,
        "spans": spans,
        "generate_s": generate_s,
        "flags": service.flags,
        "client": {},
    }


# -- serve-mixed ---------------------------------------------------------


class _MixedLoad(_Load):
    def __init__(self, fingerprint: str) -> None:
        super().__init__()
        self.fingerprint = fingerprint
        self.acked = asyncio.Event()
        self.writing = True
        self.reports: list[dict] = []
        self.retries = 0

    def metrics(self, setup_s: float, rss_mb: float, *, scaled: bool = True) -> dict:
        """As for every serve run, but ``p50_ms`` is the update's: the
        read median under writes moved between about 7 ms and 30 ms from
        one spell of runs to the next, with the same seeds, so reads
        under writes are per-layer metrics (``client.read_p50_ms``)."""
        out = super().metrics(setup_s, rss_mb, scaled=scaled)
        out["p50_ms"] = median(self.scaled_heavy(scaled)) * 1e3
        return out


async def _write_until(conn, load, batches, end_at) -> None:
    """Closed-loop writer for one cycle: post batches until ``end_at``."""
    started = time.perf_counter()
    last, edits = started, 0
    while time.perf_counter() < end_at:
        batch = next(batches, None)
        if batch is None:
            break  # script used up: only in runs far longer than usual
        sent = time.perf_counter()
        target = f"/graphs/{load.fingerprint}/updates"
        status, payload = await conn.json("POST", target, {"edits": batch})
        last = time.perf_counter()
        load.busy.append(last - sent)
        load.attempted += 1
        if status != 200:
            load.failures.append(f"update: HTTP {status} {payload}")
            break
        load.heavy.append(last - sent)
        load.reports.append(payload)
        edits += payload["inserted"] + payload["removed"]
        load.fingerprint = payload["fingerprint"]
        load.acked.set()
        load.acked = asyncio.Event()
    load.closed.append((edits, last - started))


async def _mixed_read(conn, load, due_at, request) -> None:
    kind, (eps, mu) = request
    query = _point_query(eps, mu, labels=kind == "labels")
    load.attempted += 1
    while True:
        fingerprint, acked = load.fingerprint, load.acked
        sent = time.perf_counter()
        status, payload = await conn.request(
            "GET", f"/graphs/{fingerprint}/cluster?{query}"
        )
        load.busy.append(time.perf_counter() - sent)
        if status == 200:
            load.reads.append((kind, time.perf_counter() - due_at))
            return
        if status == 404 and (fingerprint != load.fingerprint or load.writing):
            # The writer superseded this fingerprint, or the service
            # re-keyed before its acknowledgement reached the writer: retry
            # on the newest acknowledged one.  Still one read, timed from
            # its due time.
            load.retries += 1
            if fingerprint == load.fingerprint:
                await acked.wait()
            continue
        load.failures.append(
            f"read {kind} {eps},{mu}: HTTP {status} {payload[:200]!r}"
        )
        return


async def _warm_mixed(port, fingerprint, first_batch) -> dict:
    """Set-up's warm-up: memoize every working-set point with and
    without labels, then post the first batch, which builds the
    streaming engine.  Returns the first batch's report."""
    conn = await Connection.open(port)
    try:
        for eps, mu in POINTS:
            for labels in (False, True):
                target = f"/graphs/{fingerprint}/cluster?{_point_query(eps, mu, labels=labels)}"
                status, _ = await conn.request("GET", target)
                if status != 200:
                    raise RuntimeError(f"warm-up {target}: HTTP {status}")
        status, first = await conn.json(
            "POST", f"/graphs/{fingerprint}/updates", {"edits": first_batch}
        )
        if status != 200:
            raise RuntimeError(f"first batch: HTTP {status} {first}")
    finally:
        await conn.close()
    return first


async def _drive_mixed(service, first, script, seed, seconds, load):
    load.reports.append(first)
    load.fingerprint = first["fingerprint"]
    writer_conn, reader_conn = conns = [
        await Connection.open(service.port) for _ in range(CONNECTIONS)
    ]
    try:
        _, before = await writer_conn.json("GET", "/stats")
        rng = random.Random(seed)
        batches = iter(script[1:])
        lateness = 0.0

        async def on_done(conn, due_at, request):
            await _mixed_read(conn, load, due_at, request)

        async def cycle(span):
            nonlocal lateness
            due = _poisson(rng, MIXED_RATE, span)
            plan = [
                (_pick(rng, MIXED_MIX), POINTS[rng.randrange(len(POINTS))])
                for _ in due
            ]
            load.writing, load.acked = True, asyncio.Event()
            cpu = service.cpu_seconds()
            end_at = time.perf_counter() + span

            async def write():
                try:
                    await _write_until(writer_conn, load, batches, end_at)
                finally:
                    load.writing = False
                    load.acked.set()

            _, late = await asyncio.gather(
                write(), _open_loop([reader_conn], due, plan.__getitem__, on_done)
            )
            lateness = max(lateness, late)
            load.closed_cpu.append(service.cpu_seconds() - cpu)

        window = await load.run(seconds, cycle)
        _, after = await writer_conn.json("GET", "/stats")
        labels = {}
        for eps, mu in POINTS:
            status, payload = await writer_conn.json(
                "GET",
                f"/graphs/{load.fingerprint}/cluster?{_point_query(eps, mu, labels=True)}",
            )
            labels[(eps, mu)] = payload if status == 200 else None
    finally:
        for conn in conns:
            await conn.close()
    return {
        "window": window,
        "lateness": lateness,
        "stats": (before, after),
        "labels": labels,
    }


def _replay(graph, batches) -> tuple[object, list[tuple[int, int]]]:
    """The benchmark's own replay: an edge set, then a fresh CSR."""
    import numpy as np
    from repro.graph import from_edge_array

    edges = {tuple(pair) for pair in graph.edge_list().tolist()}
    counts = []
    for batch in batches:
        inserted = removed = 0
        for op, u, v in batch:
            pair = (min(u, v), max(u, v))
            if op == "+" and pair not in edges:
                edges.add(pair)
                inserted += 1
            elif op == "-" and pair in edges:
                edges.remove(pair)
                removed += 1
        counts.append((inserted, removed))
    array = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return from_edge_array(array, num_vertices=graph.num_vertices), counts


def _mixed_pass(seed: int, seconds: float, trace: bool) -> dict:
    from repro.cache import graph_fingerprint
    from repro.core import GSIndex
    from repro.streaming import random_edit_script
    from repro.types import ScanParams

    with work_dir() as work:
        t0 = time.perf_counter()
        path, graph, generate_s = _make_graph(work, MIXED_SCALE)
        fingerprint = graph_fingerprint(graph)
        script = [
            batch.as_triples()
            for batch in random_edit_script(
                graph, batches=SCRIPT_BATCHES, batch_size=BATCH_SIZE, seed=seed
            )
        ]
        service, first, setups, problems = _set_up(
            time.perf_counter() - t0,
            path,
            work,
            trace=trace,
            wal=True,
            warm=lambda port: _warm_mixed(port, fingerprint, script[0]),
            starts=1 if trace else MIXED_SETUPS,
        )
        try:
            load = _MixedLoad(fingerprint)
            run = asyncio.run(
                _drive_mixed(service, first, script, seed, seconds, load)
            )
            rss_mb = service.peak_rss_mb()
        finally:
            problems += service.stop()
        replayed, counts = _replay(graph, script[: len(load.reports)])
        if graph_fingerprint(replayed) != load.fingerprint:
            problems.append("final fingerprint differs from the replayed graph")
        for report, (inserted, removed) in zip(load.reports, counts):
            if (report["inserted"], report["removed"]) != (inserted, removed):
                problems.append(f"batch {report['batch']} applied a different edit count")
        index = GSIndex(replayed)
        reference = {point: index.query(ScanParams(*point)) for point in POINTS}
        problems += _check_labels(run["labels"], reference)
        spans = service.spans() if trace else None
    return {
        "load": load,
        "setup": (median(setups), rss_mb),
        "setups": setups,
        "run": run,
        "problems": problems + load.failures,
        "spans": spans,
        "generate_s": generate_s,
        "flags": service.flags,
        "client": {
            "client.rekey_retries": load.retries,
            "client.read_p50_ms": median([lat for _, lat in load.reads]) * 1e3,
        },
    }


# -- both workloads ------------------------------------------------------


def _run(workload: str, one_pass, seed: int, seconds: float, trace: bool, meta: dict) -> dict:
    """Measure untraced; when tracing, also measure traced and attribute."""
    res = one_pass(seed, seconds, False)
    load = res["load"]
    metrics = load.metrics(*res["setup"])
    log(f"{workload}: {len(load.reads)} open-loop reads, "
        f"{len(load.heavy)} heavy operations, setup {metrics['setup_s']:.2f}s")
    out = {
        "attempted": load.attempted,
        "failed": min(load.attempted, len(res["problems"])),
        "problems": res["problems"],
        "metrics": metrics,
        "meta": {
            **meta,
            "server_flags": [
                os.path.relpath(flag, ROOT) if os.path.isabs(flag) else flag
                for flag in res["flags"]
            ],
            "connections": CONNECTIONS,
            "generator_late_ms": res["run"]["lateness"] * 1e3,
            "host_slowness": median(load.slowness),
            "setups_s": res["setups"],
            "host_slowness_series": load.slowness,
            "cpu_slowness_series": load.cpu_slowness,
            "closed_per_s": [done / wall if wall else 0.0 for done, wall in load.closed],
            "closed_done": [done for done, _ in load.closed],
            "closed_service_cpu_s": load.closed_cpu,
            "unscaled": load.metrics(*res["setup"], scaled=False),
        },
    }
    p99_ms = metrics.pop("p99_ms")
    if trace:
        traced = one_pass(seed, seconds, True)
        out["layer"] = _serve_layers(traced, metrics["p50_ms"])
        out["layer"]["client.p99_ms"] = p99_ms
        out["problems"] += traced["problems"]
    return out


def run_read(seed: int, seconds: float, trace: bool) -> dict:
    meta = {"open_loop_rate": READ_RATE, "scale": READ_SCALE}
    return _run("serve-read", _read_pass, seed, seconds, trace, meta)


def run_mixed(seed: int, seconds: float, trace: bool) -> dict:
    meta = {"open_loop_rate": MIXED_RATE, "scale": MIXED_SCALE, "batch_size": BATCH_SIZE}
    return _run("serve-mixed", _mixed_pass, seed, seconds, trace, meta)


# -- per-layer metrics shared by both serve workloads ----------------------


def _serve_layers(res, plain_p50: float) -> dict:
    """Per-layer metrics of a traced pass; ``plain_p50`` is the untraced
    pass's p50, for the tracing overhead."""
    dump, run, load = res["spans"], res["run"], res["load"]
    out = layer_metrics(dump["spans"], dump["counts"], run["window"])
    before, after = run["stats"]
    delta = {k: after["counters"][k] - before["counters"][k] for k in after["counters"]}
    store = after.get("store") or {}
    lookups = store.get("hits", 0) + store.get("misses", 0)
    out.update({
        "graph.generate_s": res["generate_s"],
        "service.warm_hit_frac": delta["warm_hits"] / max(1, delta["queries"]),
        "service.coalesced": delta["coalesced"],
        "service.rejected": delta["rejected"],
        "cache.entries": dump["extra"]["cache_entries"],
        "cache.hit_frac": store.get("hits", 0) / max(1, lookups),
        "client.generator_late_ms": run["lateness"] * 1e3,
        **res["client"],
    })
    # The client's view of warm /cluster reads against the service's own.
    warm = load.warm_reads()
    if warm and out["service.server_p50_ms.cluster"]:
        out["service.transport_p50_ms"] = (
            median(warm) * 1e3 - out["service.server_p50_ms.cluster"]
        )
    # Requests overlap, so the traced wall is the summed time requests
    # were outstanding, as the client saw it.
    out["trace.wall_s"] = sum(load.busy)
    self_total = sum(v for k, v in out.items() if k.startswith("self_s."))
    out["unaccounted_s"] = out["trace.wall_s"] - self_total
    out["trace.overhead_p50_ms"] = load.metrics(*res["setup"])["p50_ms"] - plain_p50
    return out
