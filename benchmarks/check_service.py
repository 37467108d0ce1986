#!/usr/bin/env python
"""CI gate for the always-on clustering service.

Exercises the service exactly as an operator would — through the real
CLI — and verifies the serving invariants end to end:

1. ``repro-scan serve`` starts, pre-loads a graph, and answers
   ``/healthz`` and ``/stats``;
2. a concurrent burst of identical cold queries is **coalesced** (one
   leader computes, the rest share its future: coalescing hits > 0) and
   every response carries the same clustering summary;
3. queries for a fingerprint that is not loaded answer 404, malformed
   parameters answer 400 — structured errors, not dropped connections;
4. the service ledger receives at least one ``kind="service"`` batch
   record (flushed on shutdown at the latest);
5. cold reads beside updates: cold ``/cluster`` at fresh points and
   ``/vertex`` requests run while a stream of ``/updates`` batches
   re-keys the graph.  No response may be a 5xx, and every 200 must
   equal ``repro.api.cluster`` on the graph of the requested fingerprint
   or on the graph of the batch being applied to it (the gate replays
   the edit script to know both);
6. SIGINT produces a **clean shutdown**: exit code 0, no traceback.

Usage::

    PYTHONPATH=src python benchmarks/check_service.py

Exit status follows the shared gate contract (0 ok, 1 violation,
2 setup error).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

BURST = 48
N_POINTS = 2  # distinct (eps, mu) pairs in the burst
UPDATE_BATCHES = 12  # 16-edit /updates batches in the concurrent-read phase
READERS = 2  # concurrent reader connections in that phase
PHASE_DEADLINE_S = 60.0  # the writer must land every batch within this


async def _request(port: int, method: str, target: str, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = b"" if body is None else json.dumps(body).encode()
    head = f"{method} {target} HTTP/1.1\r\nHost: gate\r\nConnection: close\r\n"
    if body is not None:
        head += (
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
        )
    writer.write(head.encode() + b"\r\n" + data)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body) if body else None


async def _reads_beside_updates(
    port: int, fingerprint: str, graph_path: Path
) -> list[str]:
    """Phase 5: cold reads at fresh points while updates re-key the graph."""
    from repro import api
    from repro.cache import graph_fingerprint
    from repro.graph import DynamicGraph, load_graph
    from repro.streaming import random_edit_script
    from repro.types import ScanParams, role_name

    graph = load_graph(graph_path)
    script = list(
        random_edit_script(graph, seed=11, batches=UPDATE_BATCHES, batch_size=16)
    )
    # Replay the script: graphs[k] is the graph after k batches.
    dyn = DynamicGraph.from_csr(graph)
    graphs = [graph]
    for batch in script:
        for op in batch:
            (dyn.insert_edge if op.insert else dyn.remove_edge)(op.u, op.v)
        graphs.append(dyn.snapshot())
    position = {graph_fingerprint(g): k for k, g in enumerate(graphs)}
    if position.get(fingerprint) != 0:
        return [f"pre-loaded graph is not {fingerprint}"]

    problems: list[str] = []
    current = [fingerprint]
    writing = [True]
    answers: list[tuple] = []  # (fingerprint, kind, params, vertex, payload)

    deadline = time.monotonic() + PHASE_DEADLINE_S

    async def writer():
        try:
            for k, batch in enumerate(script):
                status = 429
                while status == 429:  # the readers hold the heavy slots
                    if time.monotonic() > deadline:
                        problems.append(
                            f"update {k} still answered 429 after "
                            f"{PHASE_DEADLINE_S:.0f} s: the readers starved "
                            "the writer"
                        )
                        return
                    status, payload = await _request(
                        port,
                        "POST",
                        f"/graphs/{current[0]}/updates",
                        {"edits": batch.as_triples()},
                    )
                    await asyncio.sleep(0.005)
                want = graph_fingerprint(graphs[k + 1])
                if status != 200 or payload.get("fingerprint") != want:
                    problems.append(
                        f"update {k} answered {status}: "
                        f"{str(payload)[:200]} (want fingerprint {want[:12]})"
                    )
                    return
                current[0] = want
        finally:
            writing[0] = False

    async def reader(r: int):
        i = 0
        while writing[0]:
            i += 1
            # A fresh point per request: every /cluster is cold.
            eps = round(0.2 + 0.5 * ((i * READERS + r) % 997) / 997, 6)
            fp = current[0]
            if i % 2:
                target = f"/graphs/{fp}/cluster?eps={eps}&mu=3&include=labels"
                kind, vertex = "cluster", None
            else:
                vertex = (i * 7919 + r) % graph.num_vertices
                target = f"/graphs/{fp}/vertex/{vertex}?eps={eps}&mu=3"
                kind = "vertex"
            status, payload = await _request(port, "GET", target)
            if status >= 500 or status not in (200, 404, 429):
                problems.append(
                    f"{kind} read answered {status}: {str(payload)[:200]}"
                )
            elif status == 200:
                answers.append((fp, kind, ScanParams(eps, 3), vertex, payload))
            else:
                await asyncio.sleep(0.005)

    try:
        # A request that never returns must fail the gate, not hang it.
        await asyncio.wait_for(
            asyncio.gather(writer(), *(reader(r) for r in range(READERS))),
            PHASE_DEADLINE_S + 30.0,
        )
    except asyncio.TimeoutError:
        return problems + ["reads beside updates did not finish in time"]

    expected: dict[tuple, tuple] = {}

    def reference(k: int, params: ScanParams):
        key = (k, params.eps_fraction)
        if key not in expected:
            result = api.cluster(graphs[k], params)
            expected[key] = (
                result,
                result.classify(graphs[k]),
                result.membership(),
            )
        return expected[key]

    def agrees(k: int, kind: str, params, vertex, payload) -> bool:
        result, classified, membership = reference(k, params)
        if kind == "vertex":
            return payload["role"] == role_name(
                int(classified[vertex])
            ).lower() and payload["clusters"] == sorted(membership[vertex])
        return (
            payload["roles"] == result.roles.tolist()
            and payload["core_labels"] == result.core_labels.tolist()
            and payload["noncore_pairs"]
            == [[int(a), int(b)] for a, b in result.noncore_pairs]
        )

    wrong = 0
    for fp, kind, params, vertex, payload in answers:
        k = position[fp]
        candidates = [k] if k + 1 == len(graphs) else [k, k + 1]
        if not any(agrees(c, kind, params, vertex, payload) for c in candidates):
            wrong += 1
    if wrong:
        problems.append(
            f"{wrong} of {len(answers)} reads beside updates matched no "
            "graph they could have been served from"
        )
    if not answers:
        problems.append("no read beside the updates was answered 200")
    print(
        f"reads beside {len(script)} update batches: {len(answers)} "
        f"answered 200, {wrong} wrong"
    )
    return problems


async def _drive(port: int, fingerprint: str, graph_path: Path) -> list[str]:
    problems: list[str] = []

    status, health = await _request(port, "GET", "/healthz")
    if status != 200 or health.get("status") != "ok":
        problems.append(f"/healthz answered {status}: {health}")

    # Concurrent identical burst on a cold point: one computation, the
    # rest coalesce.  Interleave a second point so the burst is not one
    # degenerate key.
    targets = [
        f"/graphs/{fingerprint}/cluster?eps={'0.42' if i % N_POINTS else '0.58'}&mu=3"
        for i in range(BURST)
    ]
    responses = await asyncio.gather(
        *(_request(port, "GET", t) for t in targets)
    )
    bad = [status for status, _ in responses if status not in (200, 429)]
    if bad:
        problems.append(f"burst statuses not in (200, 429): {sorted(set(bad))}")
    ok = [payload for status, payload in responses if status == 200]
    if not ok:
        problems.append("burst produced no 200 responses")
    else:
        by_eps: dict[float, set[int]] = {}
        for payload in ok:
            by_eps.setdefault(payload["eps"], set()).add(
                payload["num_clusters"]
            )
        for eps, counts in by_eps.items():
            if len(counts) != 1:
                problems.append(
                    f"burst answers disagree at eps={eps}: {sorted(counts)}"
                )

    status, stats = await _request(port, "GET", "/stats")
    if status != 200:
        problems.append(f"/stats answered {status}")
        return problems
    coalesced = stats["counters"]["coalesced"]
    print(
        f"burst of {BURST}: {len(ok)} served, "
        f"{coalesced} coalesced, "
        f"{stats['counters']['rejected']} rejected (429), "
        f"warm hit rate {stats['warm_hit_rate']:.1%}"
    )
    if coalesced <= 0:
        problems.append(
            "no coalescing under a concurrent identical-query burst"
        )

    status, _ = await _request(
        port, "GET", "/graphs/0000000000/cluster?eps=0.5&mu=2"
    )
    if status != 404:
        problems.append(f"unknown fingerprint answered {status}, want 404")
    status, _ = await _request(
        port, "GET", f"/graphs/{fingerprint}/cluster?eps=nope&mu=2"
    )
    if status != 400:
        problems.append(f"malformed eps answered {status}, want 400")
    # Last: the updates re-key the pre-loaded graph.
    problems += await _reads_beside_updates(port, fingerprint, graph_path)
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.08)
    parser.add_argument(
        "--ledger-out",
        default=None,
        metavar="PATH",
        help="also copy the service ledger here (CI artifact upload)",
    )
    args = parser.parse_args(argv)

    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    with tempfile.TemporaryDirectory(prefix="service-gate-") as tmp:
        work = Path(tmp)
        graph = work / "graph.txt"
        ledger = work / "service-ledger.jsonl"
        gen = subprocess.run(
            [
                sys.executable, "-m", "repro", "generate", "twitter",
                str(graph), "--scale", str(args.scale), "--seed", "3",
            ],
            capture_output=True, text=True, cwd=REPO_ROOT, env=env,
        )
        if gen.returncode != 0:
            print(gen.stdout)
            print(gen.stderr, file=sys.stderr)
            return 2
        match = re.search(r"fingerprint: ([0-9a-f]+)", gen.stdout)
        if not match:
            print("FAIL: generate did not report a fingerprint")
            return 1
        fingerprint = match.group(1)

        proc = subprocess.Popen(
            [
                # -u: the startup lines must cross the pipe unbuffered.
                sys.executable, "-u", "-m", "repro", "serve",
                "--port", "0", "--graph", str(graph),
                "--ledger", str(ledger),
                "--max-concurrent-queries", "2",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, cwd=REPO_ROOT, env=env,
        )
        port = None
        deadline = time.time() + 60
        startup: list[str] = []
        try:
            while time.time() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                startup.append(line)
                served = re.search(r"http://[\d.]+:(\d+)", line)
                if served:
                    port = int(served.group(1))
                    break
            if port is None:
                print("FAIL: service never reported its port")
                print("".join(startup))
                return 1
            print(f"service up on port {port} (pre-loaded {fingerprint})")
            problems = asyncio.run(_drive(port, fingerprint, graph))
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
            try:
                out, _ = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
                problems = problems + ["service did not stop on SIGINT"]

        if proc.returncode != 0:
            problems.append(
                f"service exited {proc.returncode} on SIGINT (want 0)"
            )
        if "Traceback" in (out or ""):
            problems.append("service shutdown printed a traceback")

        records = []
        if ledger.exists():
            for line in ledger.read_text().splitlines():
                try:
                    records.append(json.loads(line))
                except ValueError:
                    pass
        service_records = [
            r for r in records if r.get("kind") == "service"
        ]
        if not service_records:
            problems.append(
                f"no kind='service' ledger record in {ledger.name}"
            )
        else:
            metrics = service_records[-1].get("metrics") or {}
            print(
                f"ledger: {len(service_records)} service record(s), last "
                f"batch {metrics.get('service.batch_queries')} queries "
                f"(p50 {metrics.get('service.p50_ms', 0):.2f}ms)"
            )
        if args.ledger_out and ledger.exists():
            dest = Path(args.ledger_out)
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(ledger.read_bytes())
            print(f"copied service ledger to {dest}")

    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    print("service gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
