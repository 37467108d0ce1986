#!/usr/bin/env python
"""CI gate for service durability: kill -9 the real server, recover.

Drives ``repro-scan serve --wal-dir`` through its actual CLI and WAL,
arming a :class:`~repro.parallel.chaos.CrashPoint` at a ``wal:`` site
via ``REPRO_CRASH="wal:<point>:<n>"`` so the process dies with
``os._exit(137)`` at seeded WAL events, then restarts it against the
same directory and checks the recovered state **bit for bit** against
an in-process reference computed with :mod:`repro.api`.

The operation script is deterministic, so each WAL append has a known
lsn:

========  ====================================  ====
lsn       operation                             note
========  ====================================  ====
1         ``POST /graphs`` (base graph)         submit record
2         updates batch 1 (``Idempotency-Key:   update record
          batch-1``)
3         updates batch 2 (``batch-2``)         update record
========  ====================================  ====

Queries never append, so the crash matrix below lands exactly where it
says:

* ``mid-append:<lsn>`` — torn record: the mutation must be **absent**
  after recovery and a client retry must apply it cleanly;
* ``post-append:<lsn>`` — durable record, never acknowledged: the
  mutation must be present **exactly once**, and a duplicate
  ``Idempotency-Key`` retry must replay the original response without
  re-applying;
* ``mid-compact:1`` / ``post-compact:1`` — die inside snapshot
  compaction: either the old snapshot + full log or the new snapshot +
  stale log survives, and both must recover to the same final state.

A final leg SIGTERMs the server during a concurrent query burst and
requires a graceful drain: exit code 0, every in-flight request
answered (200 or a structured 503), a final snapshot on disk, and a
fresh start that replays **zero** WAL records.

Artifacts: ``bench_results/service_crash.json`` (per-case outcomes)
and ``bench_results/service_crash_recovery.json`` (the last recovery
manifest: WAL stats + replay counts), for CI upload.

Usage::

    PYTHONPATH=src python benchmarks/check_service_crash.py

Exit status follows the shared gate contract: 0 every case recovered
bit-identically, 1 a durability invariant was violated, 2 setup error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

RESULTS_DIR = REPO_ROOT / "bench_results"
CRASH_EXIT = 137  # CrashPoint contract

#: The (ε, µ) points diffed bit-for-bit on every recovered state.
POINTS = [(0.5, 2), (0.42, 3)]

#: Base graph: two triangle communities bridged at 2–3, plus a tail.
BASE_EDGES = [
    [0, 1], [0, 2], [1, 2], [2, 3], [3, 4], [3, 5], [4, 5], [5, 6],
    [6, 7], [7, 8], [6, 8], [8, 9],
]
BATCH_1 = {"insert": [[9, 0], [1, 4]]}
BATCH_2 = {"insert": [[2, 7]], "remove": [[8, 9]]}


def _request(port, method, target, body=None, headers=None, timeout=30.0):
    """One blocking HTTP exchange; (status, payload) or an OSError if
    the server died mid-request (exactly what a crash point causes)."""
    payload = b"" if body is None else json.dumps(body).encode()
    head = [f"{method} {target} HTTP/1.1", "Host: gate"]
    if payload:
        head += [
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
        ]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    head.append("Connection: close")
    raw = ("\r\n".join(head) + "\r\n\r\n").encode() + payload
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(raw)
        buf = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    if not buf:
        raise ConnectionError("server closed the connection unanswered")
    header, _, body = buf.partition(b"\r\n\r\n")
    return int(header.split()[1]), (json.loads(body) if body else None)


class Server:
    """One ``repro-scan serve`` subprocess bound to an ephemeral port."""

    def __init__(self, wal_dir: Path, crash: str | None = None, **flags):
        env = {
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PATH": "/usr/bin:/bin",
        }
        if crash:
            env["REPRO_CRASH"] = f"wal:{crash}"
        argv = [
            sys.executable, "-u", "-m", "repro", "serve",
            "--port", "0", "--wal-dir", str(wal_dir),
        ]
        for flag, value in flags.items():
            argv += [f"--{flag.replace('_', '-')}", str(value)]
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        self.port: int | None = None
        self.lines: list[str] = []
        deadline = time.time() + 90
        while time.time() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            self.lines.append(line)
            match = re.search(r"http://[\d.]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
                # Keep draining stdout so the pipe never blocks the server.
                threading.Thread(target=self._drain, daemon=True).start()
                return
        raise RuntimeError(
            "server never reported its port:\n" + "".join(self.lines)
        )

    def _drain(self):
        for line in self.proc.stdout:
            self.lines.append(line)

    def wait(self, timeout=60) -> int:
        return self.proc.wait(timeout=timeout)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


def _reference_states():
    """The in-process ground truth for every server state the script
    reaches: fingerprints + full label vectors per (ε, µ) point."""
    import numpy as np

    from repro import api
    from repro.cache import graph_fingerprint
    from repro.graph import from_edge_array
    from repro.streaming import EditBatch
    from repro.types import ScanParams

    session = api.Session()
    graph = from_edge_array(np.asarray(BASE_EDGES, dtype=np.int64))
    handle = session.open(graph, label="crash-gate")
    states = []
    for batch in (None, BATCH_1, BATCH_2):
        if batch is not None:
            handle.apply_updates(EditBatch.coerce(batch))
        labels = {}
        for eps, mu in POINTS:
            result = handle.cluster(ScanParams(eps, mu))
            labels[(eps, mu)] = {
                "roles": result.roles.tolist(),
                "core_labels": result.core_labels.tolist(),
                "noncore_pairs": [
                    [int(a), int(b)] for a, b in result.noncore_pairs
                ],
            }
        states.append({"fingerprint": handle.fingerprint, "labels": labels})
    return states  # [state0 (base), state1 (after batch 1), state2 (after 2)]


def _diff_state(port, expected, problems, context):
    """Bit-for-bit diff of one resident graph's points vs reference."""
    fp = expected["fingerprint"]
    for (eps, mu), want in expected["labels"].items():
        status, got = _request(
            port, "GET",
            f"/graphs/{fp}/cluster?eps={eps}&mu={mu}&include=labels",
        )
        if status != 200:
            problems.append(f"{context}: query ({eps},{mu}) -> {status}: {got}")
            continue
        for field in ("roles", "core_labels", "noncore_pairs"):
            if got[field] != want[field]:
                problems.append(
                    f"{context}: {field} diverged at ({eps},{mu}) on {fp[:12]}"
                )


def _drive_until_crash(server: Server, stop_after: str):
    """Run the deterministic op script against ``server``; each step may
    kill it (crash-armed runs).  Returns the step that severed the
    connection, or None if the whole script ran."""
    steps = [
        ("submit", lambda fp: _request(
            server.port, "POST", "/graphs",
            {"edges": BASE_EDGES, "label": "crash-gate"},
        )),
        ("query0", lambda fp: _request(
            server.port, "GET",
            f"/graphs/{fp[-1]}/cluster?eps=0.5&mu=2",
        )),
        ("update1", lambda fp: _request(
            server.port, "POST", f"/graphs/{fp[-1]}/updates",
            BATCH_1, {"Idempotency-Key": "batch-1"},
        )),
        ("update2", lambda fp: _request(
            server.port, "POST", f"/graphs/{fp[-1]}/updates",
            BATCH_2, {"Idempotency-Key": "batch-2"},
        )),
        ("compact", lambda fp: _request(
            server.port, "POST", "/admin/compact",
        )),
    ]
    fps: list[str] = []
    for name, step in steps:
        try:
            status, payload = step(fps)
        except (ConnectionError, OSError):
            return name
        if status not in (200, 201):
            raise RuntimeError(f"step {name} answered {status}: {payload}")
        if name == "submit":
            fps.append(payload["fingerprint"])
        elif name.startswith("update"):
            fps.append(payload["fingerprint"])
        if name == stop_after:
            return None
    return None


# Each case: the armed crash point, the op expected to die, the
# reference state index expected resident after recovery (None = empty),
# and the retry that must succeed against the recovered server.
CASES = [
    {
        "crash": "mid-append:1", "dies_at": "submit", "recovered_state": None,
        "retry": "submit",
    },
    {
        "crash": "post-append:1", "dies_at": "submit", "recovered_state": 0,
        "retry": "resubmit-dedup",
    },
    {
        "crash": "mid-append:2", "dies_at": "update1", "recovered_state": 0,
        "retry": "update1-fresh",
    },
    {
        "crash": "post-append:2", "dies_at": "update1", "recovered_state": 1,
        "retry": "update1-idempotent",
    },
    {
        "crash": "mid-append:3", "dies_at": "update2", "recovered_state": 1,
        "retry": "update2-fresh",
    },
    {
        "crash": "post-append:3", "dies_at": "update2", "recovered_state": 2,
        "retry": "update2-idempotent",
    },
    {
        "crash": "mid-compact:1", "dies_at": "compact", "recovered_state": 2,
        "retry": "compact",
    },
    {
        "crash": "post-compact:1", "dies_at": "compact", "recovered_state": 2,
        "retry": "compact",
    },
]


def _run_retry(port, retry, states, problems, context):
    if retry == "submit" or retry == "resubmit-dedup":
        status, payload = _request(
            port, "POST", "/graphs",
            {"edges": BASE_EDGES, "label": "crash-gate"},
        )
        want_dedup = retry == "resubmit-dedup"
        if want_dedup and not (status == 200 and payload.get("already_loaded")):
            problems.append(
                f"{context}: acknowledged-equivalent submit retry did not "
                f"dedup ({status}: {payload})"
            )
        if not want_dedup and status != 201:
            problems.append(
                f"{context}: submit retry after torn record -> {status}"
            )
    elif retry.startswith("update"):
        n = 1 if retry.startswith("update1") else 2
        batch = BATCH_1 if n == 1 else BATCH_2
        old_fp = states[n - 1]["fingerprint"]
        status, payload = _request(
            port, "POST", f"/graphs/{old_fp}/updates",
            batch, {"Idempotency-Key": f"batch-{n}"},
        )
        if retry.endswith("idempotent"):
            # The batch was durable pre-crash; the retry must be
            # answered from the idempotency map, not re-applied.
            if status != 200 or not payload.get("idempotent_replay"):
                problems.append(
                    f"{context}: durable batch retry was not an idempotent "
                    f"replay ({status}: {payload})"
                )
            if status == 200 and payload.get("fingerprint") != states[n]["fingerprint"]:
                problems.append(
                    f"{context}: idempotent replay returned fingerprint "
                    f"{payload.get('fingerprint')}, want "
                    f"{states[n]['fingerprint']}"
                )
        else:
            # The batch was torn away; the retry must apply fresh and
            # land on the same deterministic fingerprint.
            if status != 200 or payload.get("idempotent_replay"):
                problems.append(
                    f"{context}: torn batch retry did not apply fresh "
                    f"({status}: {payload})"
                )
            elif payload["fingerprint"] != states[n]["fingerprint"]:
                problems.append(
                    f"{context}: re-applied batch landed on "
                    f"{payload['fingerprint']}, want {states[n]['fingerprint']}"
                )
    elif retry == "compact":
        status, payload = _request(port, "POST", "/admin/compact")
        if status != 200 or payload["wal"]["pending_records"] != 0:
            problems.append(f"{context}: compact retry -> {status}: {payload}")


def _crash_case(case, states, work: Path, problems) -> dict:
    context = case["crash"]
    wal_dir = work / context.replace(":", "-")
    server = Server(wal_dir, crash=case["crash"], snapshot_every="1000")
    outcome = {"case": context}
    try:
        died_at = _drive_until_crash(server, stop_after="compact")
        code = server.wait()
        outcome["exit_code"] = code
        outcome["died_at"] = died_at
        if code != CRASH_EXIT:
            problems.append(
                f"{context}: armed server exited {code}, want {CRASH_EXIT}"
            )
        if died_at != case["dies_at"]:
            problems.append(
                f"{context}: died at step {died_at!r}, "
                f"want {case['dies_at']!r}"
            )
    finally:
        server.kill()

    # Restart disarmed against the same WAL directory.
    server = Server(wal_dir)
    try:
        status, stats = _request(server.port, "GET", "/stats")
        if status != 200:
            problems.append(f"{context}: /stats after restart -> {status}")
            return outcome
        resident = stats["registry"]["fingerprints"]
        recovery = stats.get("wal", {}).get("recovery", {})
        outcome["recovery"] = recovery
        state_index = case["recovered_state"]
        expected_fps = (
            [] if state_index is None
            else [states[state_index]["fingerprint"]]
        )
        if sorted(resident) != sorted(expected_fps):
            problems.append(
                f"{context}: recovered registry {resident}, "
                f"want {expected_fps}"
            )
        elif state_index is not None:
            _diff_state(server.port, states[state_index], problems, context)
        _run_retry(server.port, case["retry"], states, problems, context)
        server.proc.send_signal(signal.SIGTERM)
        code = server.wait()
        if code != 0:
            problems.append(
                f"{context}: recovered server exited {code} on SIGTERM"
            )
    finally:
        server.kill()
    return outcome


def _drain_case(states, work: Path, problems) -> dict:
    """SIGTERM under concurrent load must drain cleanly."""
    wal_dir = work / "drain"
    server = Server(wal_dir, snapshot_every="1000", max_concurrent_queries="2")
    outcome = {"case": "sigterm-drain"}
    statuses: list[int] = []
    lock = threading.Lock()
    try:
        status, payload = _request(
            server.port, "POST", "/graphs",
            {"edges": BASE_EDGES, "label": "crash-gate"},
        )
        if status != 201:
            raise RuntimeError(f"drain submit -> {status}: {payload}")
        fp = payload["fingerprint"]

        def burst(i):
            eps = POINTS[i % len(POINTS)][0]
            mu = POINTS[i % len(POINTS)][1]
            try:
                st, _ = _request(
                    server.port, "GET",
                    f"/graphs/{fp}/cluster?eps={eps}&mu={mu}",
                )
            except (ConnectionError, OSError):
                st = -1  # connection severed (acceptable only post-grace)
            with lock:
                statuses.append(st)

        threads = [
            threading.Thread(target=burst, args=(i,)) for i in range(24)
        ]
        for t in threads:
            t.start()
        time.sleep(0.05)  # let the burst be genuinely in flight
        server.proc.send_signal(signal.SIGTERM)
        for t in threads:
            t.join(timeout=60)
        code = server.wait()
        outcome["exit_code"] = code
        outcome["statuses"] = sorted(set(statuses))
        if code != 0:
            problems.append(f"drain: server exited {code} on SIGTERM, want 0")
        bad = [s for s in statuses if s not in (200, 429, 503, -1)]
        if bad:
            problems.append(
                f"drain: burst saw non-structured statuses {sorted(set(bad))}"
            )
        if not any(s == 200 for s in statuses):
            problems.append("drain: no burst request completed at all")
        snapshot = wal_dir / "snapshot.json"
        if not snapshot.exists():
            problems.append("drain: no final snapshot written")
    finally:
        server.kill()

    # A fresh start must replay zero WAL records (all compacted away).
    server = Server(wal_dir)
    try:
        status, stats = _request(server.port, "GET", "/stats")
        recovery = stats.get("wal", {}).get("recovery", {})
        outcome["recovery"] = recovery
        if status != 200:
            problems.append(f"drain: /stats after restart -> {status}")
        elif recovery.get("records_replayed", -1) != 0:
            problems.append(
                f"drain: fresh start replayed "
                f"{recovery.get('records_replayed')} records, want 0"
            )
        elif stats["registry"]["fingerprints"] != [states[0]["fingerprint"]]:
            problems.append(
                f"drain: restarted registry {stats['registry']['fingerprints']}"
            )
        else:
            _diff_state(server.port, states[0], problems, "drain-restart")
        server.proc.send_signal(signal.SIGTERM)
        if server.wait() != 0:
            problems.append("drain: restarted server did not exit 0")
    finally:
        server.kill()
    return outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated subset of crash points (default: all)",
    )
    args = parser.parse_args(argv)

    cases = CASES
    if args.only:
        names = {n.strip() for n in args.only.split(",")}
        cases = [c for c in cases if c["crash"] in names]
        if not cases:
            print(f"unknown crash case(s): {args.only}", file=sys.stderr)
            return 2

    try:
        states = _reference_states()
    except Exception as exc:  # pragma: no cover - setup trouble
        print(f"setup failed computing reference states: {exc}")
        return 2

    problems: list[str] = []
    outcomes = []
    with tempfile.TemporaryDirectory(prefix="service-crash-") as tmp:
        work = Path(tmp)
        for case in cases:
            before = len(problems)
            outcome = _crash_case(case, states, work, problems)
            outcomes.append(outcome)
            verdict = "ok" if len(problems) == before else "FAIL"
            print(
                f"{case['crash']:<16} died at {outcome.get('died_at')}, "
                f"exit {outcome.get('exit_code')}, recovered "
                f"{outcome.get('recovery', {}).get('records_replayed', '?')} "
                f"record(s): {verdict}"
            )
        before = len(problems)
        outcome = _drain_case(states, work, problems)
        outcomes.append(outcome)
        print(
            f"{'sigterm-drain':<16} exit {outcome.get('exit_code')}, "
            f"statuses {outcome.get('statuses')}: "
            f"{'ok' if len(problems) == before else 'FAIL'}"
        )

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "service_crash.json").write_text(
        json.dumps(
            {
                "cases": outcomes,
                "problems": problems,
                "points": POINTS,
                "reference_fingerprints": [s["fingerprint"] for s in states],
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    last_recovery = next(
        (o["recovery"] for o in reversed(outcomes) if o.get("recovery")), {}
    )
    (RESULTS_DIR / "service_crash_recovery.json").write_text(
        json.dumps(last_recovery, indent=1, sort_keys=True) + "\n"
    )

    if problems:
        print("\nservice crash gate FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("service crash gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
