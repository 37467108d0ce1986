"""Service load benchmark: thousands of concurrent queries, warm vs cold.

Stands up a real :class:`~repro.service.ClusteringService` (TCP, HTTP,
the works), submits a powerlaw stand-in graph once, then fires
``N_QUERIES`` concurrent ``GET .../cluster`` requests drawn from a small
(ε, µ) working set through ``CONCURRENCY`` keep-alive client
connections.  The first touch of each point pays one index query; every
other request is served warm off the event loop or coalesced onto an
in-flight leader.

Asserted, not just reported:

* warm queries are at least ``MIN_WARM_SPEEDUP``× faster (p50) than
  cold full clustering via direct ``api.cluster`` on the same points
  (per point the median of ``COLD_ROUNDS`` interleaved calls);
* every service answer is **bit-identical** to ``api.cluster`` — roles,
  core labels and non-core pairs compared element for element;
* the coalescing path actually fired (hit rate > 0).

The latency distribution (p50/p95), throughput and coalescing rate land
in ``bench_results/service_load.json`` and one ``kind="bench"`` ledger
record (the shared writer in ``conftest.py``).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro import api  # noqa: E402 - path setup first
from repro.cache import graph_fingerprint  # noqa: E402
from repro.graph.generators import real_world_standin  # noqa: E402
from repro.service import ClusteringService  # noqa: E402
from repro.types import ScanParams  # noqa: E402

RESULTS_DIR = REPO_ROOT / "bench_results"
GRAPH_NAME = "twitter"
POINTS = [(0.3, 2), (0.4, 3), (0.5, 2), (0.5, 4), (0.6, 3), (0.7, 5)]
N_QUERIES = 2000
CONCURRENCY = 32
MIN_WARM_SPEEDUP = 10.0
#: Cold ``api.cluster`` calls per point; the reference is their median.
COLD_ROUNDS = 3


def _scale() -> float:
    return float(os.environ.get("REPRO_SCALE", 0.4))


class _Client:
    """One keep-alive HTTP/1.1 connection speaking JSON to the service."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def _connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )

    async def request(self, method: str, target: str, body=None):
        if self.writer is None:
            await self._connect()
        payload = b"" if body is None else json.dumps(body).encode()
        head = (
            f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        )
        self.writer.write(head.encode() + payload)
        await self.writer.drain()
        status_line = await self.reader.readline()
        status = int(status_line.split()[1])
        length = 0
        headers: dict[str, str] = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await self.reader.readexactly(length) if length else b""
        return status, json.loads(body) if body else None, headers

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def _percentile(sorted_values: list[float], q: float) -> float:
    rank = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values))))
    return sorted_values[rank]


async def _drive(service: ClusteringService, graph, n_queries: int) -> dict:
    await service.start()
    port = service.port
    submitter = _Client(port)
    edges = [[int(u), int(v)] for u, v in graph.edge_list()]
    status, info, _ = await submitter.request(
        "POST", "/graphs", {"edges": edges, "label": GRAPH_NAME}
    )
    assert status == 201, info
    fp = info["fingerprint"]
    assert fp == graph_fingerprint(graph), "service rebuilt a different CSR"
    index_build_seconds = info["index_build_seconds"]

    # The full query stream: n_queries requests round-robining the
    # working set, drained by CONCURRENCY persistent connections.
    work: asyncio.Queue = asyncio.Queue()
    for i in range(n_queries):
        work.put_nowait(POINTS[i % len(POINTS)])
    latencies: list[float] = []
    rejected_then_succeeded = 0
    t_load = time.perf_counter()

    async def worker(worker_id: int) -> None:
        nonlocal rejected_then_succeeded
        client = _Client(port)
        # Seeded per worker: the jitter is reproducible run to run.
        rng = random.Random(0xB0FF + worker_id)
        try:
            while True:
                try:
                    eps, mu = work.get_nowait()
                except asyncio.QueueEmpty:
                    return
                t0 = time.perf_counter()
                was_rejected = False
                while True:
                    status, payload, headers = await client.request(
                        "GET", f"/graphs/{fp}/cluster?eps={eps}&mu={mu}"
                    )
                    if status != 429:
                        break
                    # Honour the server's Retry-After hint, jittered so
                    # the rejected herd does not re-arrive in lockstep.
                    was_rejected = True
                    retry_after = float(headers.get("retry-after", 1))
                    await asyncio.sleep(
                        rng.uniform(0.05, max(retry_after, 0.05))
                    )
                assert status == 200, payload
                if was_rejected:
                    rejected_then_succeeded += 1
                latencies.append(time.perf_counter() - t0)
        finally:
            await client.close()

    await asyncio.gather(*(worker(i) for i in range(CONCURRENCY)))
    load_seconds = time.perf_counter() - t_load

    # Bit-identity: pull full labels for every point and compare with
    # the direct in-process API, element for element.
    for eps, mu in POINTS:
        status, payload, _ = await submitter.request(
            "GET",
            f"/graphs/{fp}/cluster?eps={eps}&mu={mu}&include=labels",
        )
        assert status == 200, payload
        reference = api.cluster(graph, ScanParams(eps, mu))
        assert payload["roles"] == reference.roles.tolist(), (eps, mu)
        assert payload["core_labels"] == reference.core_labels.tolist(), (
            eps,
            mu,
        )
        assert payload["noncore_pairs"] == [
            [int(a), int(b)] for a, b in reference.noncore_pairs
        ], (eps, mu)

    status, stats, _ = await submitter.request("GET", "/stats")
    assert status == 200
    await submitter.close()
    await service.stop()
    latencies.sort()
    return {
        "fingerprint": fp,
        "index_build_seconds": index_build_seconds,
        "latencies": latencies,
        "load_seconds": load_seconds,
        "rejected_then_succeeded": rejected_then_succeeded,
        "stats": stats,
    }


def run_bench(scale: float | None = None, n_queries: int = N_QUERIES) -> dict:
    scale = _scale() if scale is None else scale
    graph = real_world_standin(GRAPH_NAME, scale=scale, seed=11)

    # Cold reference: direct full clustering per point, no service, no
    # index — what every query would cost without the always-on path.
    # Each point's wall is the median of COLD_ROUNDS calls made in
    # interleaved rounds over the points, so one slow spell of the host
    # lands on one call of several points, not on a point's only call.
    cold_walls: dict = {point: [] for point in POINTS}
    for _ in range(COLD_ROUNDS):
        for eps, mu in POINTS:
            t0 = time.perf_counter()
            api.cluster(graph, ScanParams(eps, mu))
            cold_walls[eps, mu].append(time.perf_counter() - t0)
    cold_mean = statistics.mean(map(statistics.median, cold_walls.values()))

    service = ClusteringService(
        max_concurrent_queries=8,
        ledger_path=RESULTS_DIR / "ledger.jsonl",
    )
    outcome = asyncio.run(_drive(service, graph, n_queries))

    latencies = outcome["latencies"]
    counters = outcome["stats"]["counters"]
    queries = counters["queries"]
    warm_share = counters["warm_hits"] / queries if queries else 0.0
    # Warm p50 over the steady-state tail (the first touches are cold).
    p50 = _percentile(latencies, 0.50)
    p95 = _percentile(latencies, 0.95)
    data = {
        "graph": GRAPH_NAME,
        "scale": scale,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "points": POINTS,
        "n_queries": n_queries,
        "concurrency": CONCURRENCY,
        "index_build_seconds": outcome["index_build_seconds"],
        "cold_cluster_mean_seconds": cold_mean,
        "p50_seconds": p50,
        "p95_seconds": p95,
        "max_seconds": latencies[-1],
        "throughput_qps": len(latencies) / outcome["load_seconds"],
        "load_seconds": outcome["load_seconds"],
        "warm_speedup_p50": cold_mean / p50 if p50 else float("inf"),
        "warm_hit_rate": warm_share,
        "coalescing_hits": counters["coalesced"],
        "coalescing_hit_rate": counters["coalesced"] / queries
        if queries
        else 0.0,
        "rejected_429": counters["rejected"],
        "rejected_then_succeeded": outcome["rejected_then_succeeded"],
        "fingerprint": outcome["fingerprint"],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "service_load.json"
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    from conftest import append_bench_ledger

    append_bench_ledger("service_load", data)
    return data


def test_service_load():
    data = run_bench()
    print(
        f"{GRAPH_NAME} standin (scale {data['scale']}): "
        f"{data['n_queries']} queries over {len(POINTS)} points at "
        f"concurrency {data['concurrency']} — "
        f"p50 {data['p50_seconds'] * 1e3:.2f}ms, "
        f"p95 {data['p95_seconds'] * 1e3:.2f}ms, "
        f"{data['throughput_qps']:.0f} q/s, "
        f"warm speedup {data['warm_speedup_p50']:.0f}x over cold "
        f"{data['cold_cluster_mean_seconds'] * 1e3:.0f}ms, "
        f"coalescing rate {data['coalescing_hit_rate'] * 100:.1f}%, "
        f"{data['rejected_429']} rejected of which "
        f"{data['rejected_then_succeeded']} succeeded on backoff retry",
        file=sys.stderr,
    )
    assert data["warm_speedup_p50"] >= MIN_WARM_SPEEDUP, (
        f"warm p50 {data['p50_seconds'] * 1e3:.2f}ms is only "
        f"{data['warm_speedup_p50']:.1f}x faster than cold clustering "
        f"({MIN_WARM_SPEEDUP}x required); see bench_results/service_load.json"
    )
    assert data["coalescing_hits"] > 0, (
        "no request coalescing observed under a concurrent identical-"
        "query load; see bench_results/service_load.json"
    )
    assert data["warm_hit_rate"] > 0.9, (
        f"warm hit rate {data['warm_hit_rate']:.1%} — the memoized index "
        "path is not actually serving the steady state"
    )


if __name__ == "__main__":
    test_service_load()
    print(
        json.dumps(
            json.loads((RESULTS_DIR / "service_load.json").read_text()),
            indent=1,
        )
    )
