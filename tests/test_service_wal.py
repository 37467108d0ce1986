"""Service durability: WAL, crash recovery, deadlines, drain, idle close.

The WAL and recovery layers are tested directly (torn tails, corrupt
lines, lsn continuity across compaction, fail-stop on broken chains),
then end to end through a real :class:`~repro.service.ClusteringService`
over TCP: a simulated ``kill -9`` (the first service is abandoned
without ``stop()``), a restart against the same WAL directory, and
bit-for-bit comparison of every re-queried (ε, µ) point.  The seeded
in-process crash points use ``exit_fn`` so the dying "process" is just a
raised exception and the WAL directory stays inspectable.
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np
import pytest

from repro import api
from repro.cache import graph_fingerprint
from repro.graph.generators import erdos_renyi
from repro.parallel import CrashPoint
from repro.service import (
    ClusteringService,
    GraphRegistry,
    RecoveryError,
    ServiceWAL,
    recover,
)
from repro.streaming import EditBatch
from repro.types import ScanParams


def _graph(seed=9):
    return erdos_renyi(60, 240, seed=seed)


def _edges(graph):
    return [[int(u), int(v)] for u, v in graph.edge_list()]


class _Died(RuntimeError):
    """Stand-in for os._exit in in-process crash-point tests."""


def _raise_exit(code):
    raise _Died(str(code))


# ---------------------------------------------------------------------------
# WAL unit tests
# ---------------------------------------------------------------------------


class TestServiceWAL:
    def test_append_read_roundtrip_and_lsn(self, tmp_path):
        wal = ServiceWAL(tmp_path / "wal")
        first = wal.append("submit", fingerprint="aa", label="one")
        second = wal.append("delete", fingerprint="aa")
        assert [first["lsn"], second["lsn"]] == [1, 2]
        records = ServiceWAL(tmp_path / "wal").read_records()
        assert [(r["lsn"], r["op"]) for r in records] == [
            (1, "submit"),
            (2, "delete"),
        ]
        assert records[0]["label"] == "one"

    def test_unknown_op_rejected(self, tmp_path):
        wal = ServiceWAL(tmp_path / "wal")
        with pytest.raises(ValueError):
            wal.append("mystery", fingerprint="aa")

    def test_corrupt_line_is_clean_skip(self, tmp_path):
        wal = ServiceWAL(tmp_path / "wal")
        wal.append("submit", fingerprint="aa")
        wal.append("submit", fingerprint="bb")
        raw = wal.log_path.read_bytes()
        wal.log_path.write_bytes(raw.replace(b'"bb"', b'"cc"', 1))
        fresh = ServiceWAL(tmp_path / "wal")
        records = fresh.read_records()
        assert [r["fingerprint"] for r in records] == ["aa"]
        assert fresh.last_skipped == 1

    def test_torn_tail_repaired_on_next_append(self, tmp_path):
        wal = ServiceWAL(tmp_path / "wal")
        wal.append("submit", fingerprint="aa")
        with open(wal.log_path, "ab") as fh:
            fh.write(b'{"schema": 1, "lsn": 2, "op": "sub')  # torn write
        wal2 = ServiceWAL(tmp_path / "wal")
        assert wal2.lsn == 1  # torn line does not advance the lsn
        wal2.append("submit", fingerprint="bb")
        records = wal2.read_records()
        assert [(r["lsn"], r["fingerprint"]) for r in records] == [
            (1, "aa"),
            (2, "bb"),
        ]
        assert wal2.last_skipped == 1  # the torn line stayed a clean skip

    def test_lsn_survives_compaction(self, tmp_path):
        wal = ServiceWAL(tmp_path / "wal")
        wal.append("submit", fingerprint="aa")
        wal.append("submit", fingerprint="bb")
        wal.compact({"graphs": []})
        assert wal.read_records() == []  # log truncated
        third = wal.append("delete", fingerprint="aa")
        assert third["lsn"] == 3  # monotone across the truncation
        fresh = ServiceWAL(tmp_path / "wal")
        assert fresh.lsn == 3
        assert fresh.snapshot_lsn() == 2
        assert [r["lsn"] for r in fresh.replay_records()] == [3]

    def test_stale_records_filtered_after_compaction(self, tmp_path):
        # Simulate the post-compact crash window: snapshot replaced but
        # the log never truncated.
        wal = ServiceWAL(tmp_path / "wal")
        wal.append("submit", fingerprint="aa")
        log_bytes = wal.log_path.read_bytes()
        wal.compact({"graphs": []})
        wal.log_path.write_bytes(log_bytes)  # stale log reappears
        fresh = ServiceWAL(tmp_path / "wal")
        assert fresh.replay_records() == []  # lsn filter drops them
        assert fresh.lsn == 1

    def test_corrupt_snapshot_degrades_to_none(self, tmp_path):
        wal = ServiceWAL(tmp_path / "wal")
        wal.append("submit", fingerprint="aa")
        wal.compact({"graphs": []})
        wal.snapshot_path.write_text('{"schema": 1, "lsn": "nope"}')
        fresh = ServiceWAL(tmp_path / "wal")
        assert fresh.load_snapshot() is None
        assert fresh.snapshot_lsn() == 0
        # Degrades to full-log replay, never an error.
        assert fresh.replay_records() == fresh.read_records()

    def test_graph_spill_load_verify_prune(self, tmp_path):
        wal = ServiceWAL(tmp_path / "wal")
        graph = _graph()
        fp = graph_fingerprint(graph)
        wal.spill_graph(fp, graph)
        loaded = wal.load_graph(fp)
        assert graph_fingerprint(loaded) == fp
        with pytest.raises(FileNotFoundError):
            wal.load_graph("0" * 40)
        # A payload that hashes differently is external damage.
        other = _graph(seed=11)
        wal.graph_path("feedface").write_bytes(
            wal.graph_path(fp).read_bytes()
        )
        del other
        with pytest.raises(ValueError):
            wal.load_graph("feedface")
        assert wal.prune_graphs({fp}) == 1  # feedface.bin dropped
        assert wal.graph_path(fp).exists()

    def test_crash_point_from_env(self):
        assert CrashPoint.from_env({}).site is None
        armed = CrashPoint.from_env({"REPRO_CRASH": "wal:mid-append:3"})
        assert (armed.site, armed.n) == ("wal:mid-append", 3)
        for bad in ("wal:mid-append", "wal:mid-append:x", "wal:nope:1", ""):
            assert CrashPoint.from_env({"REPRO_CRASH": bad}).site is None
        with pytest.raises(ValueError):
            CrashPoint("wal:not-a-point", 1)

    def test_mid_append_crash_leaves_torn_skip(self, tmp_path):
        wal = ServiceWAL(
            tmp_path / "wal",
            crash_point=CrashPoint("wal:mid-append", 2, exit_fn=_raise_exit),
        )
        wal.append("submit", fingerprint="aa")
        with pytest.raises(_Died):
            wal.append("submit", fingerprint="bb")
        survivor = ServiceWAL(tmp_path / "wal")
        assert [r["fingerprint"] for r in survivor.read_records()] == ["aa"]
        assert survivor.last_skipped == 1
        assert survivor.lsn == 1

    def test_post_append_crash_record_durable(self, tmp_path):
        wal = ServiceWAL(
            tmp_path / "wal",
            crash_point=CrashPoint("wal:post-append", 1, exit_fn=_raise_exit),
        )
        with pytest.raises(_Died):
            wal.append("submit", fingerprint="aa")
        survivor = ServiceWAL(tmp_path / "wal")
        assert [r["fingerprint"] for r in survivor.read_records()] == ["aa"]
        assert survivor.last_skipped == 0

    def test_compaction_crash_points(self, tmp_path):
        wal = ServiceWAL(
            tmp_path / "wal",
            crash_point=CrashPoint("wal:mid-compact", 1, exit_fn=_raise_exit),
        )
        wal.append("submit", fingerprint="aa")
        with pytest.raises(_Died):
            wal.compact({"graphs": []})
        # mid-compact: no snapshot replaced, full log intact.
        survivor = ServiceWAL(tmp_path / "wal")
        assert survivor.load_snapshot() is None
        assert [r["lsn"] for r in survivor.replay_records()] == [1]

        wal = ServiceWAL(
            tmp_path / "wal",
            crash_point=CrashPoint("wal:post-compact", 1, exit_fn=_raise_exit),
        )
        with pytest.raises(_Died):
            wal.compact({"graphs": []})
        # post-compact: snapshot durable, stale log filtered by lsn.
        survivor = ServiceWAL(tmp_path / "wal")
        assert survivor.snapshot_lsn() == 1
        assert survivor.replay_records() == []


# ---------------------------------------------------------------------------
# Recovery unit tests
# ---------------------------------------------------------------------------


def _log_update(wal, handle, batch, key=None):
    """Apply ``batch`` to ``handle`` and log it the way the server does."""
    old_fp = handle.fingerprint
    report = handle.apply_updates(EditBatch.coerce(batch))
    wal.append(
        "update",
        old_fp=old_fp,
        new_fp=report.fingerprint,
        idempotency_key=key,
        edits=EditBatch.coerce(batch).as_triples(),
        response={"fingerprint": report.fingerprint} if key else None,
    )
    return report


class TestRecovery:
    def test_replays_submit_and_update_chain(self, tmp_path):
        wal = ServiceWAL(tmp_path / "wal")
        graph = _graph()
        fp = graph_fingerprint(graph)
        reference = api.Session()
        ref_handle = reference.open(graph)
        wal.spill_graph(fp, graph)
        wal.append("submit", fingerprint=fp, label="er")
        batch = {"insert": [[0, 59], [1, 58]], "remove": [[0, 1]]}
        report = _log_update(wal, ref_handle, batch, key="k-1")
        expected = ref_handle.cluster(ScanParams(0.5, 2))

        session, registry = api.Session(), GraphRegistry()
        out, idempotency = recover(wal, session=session, registry=registry)
        assert out.submissions_replayed == 1
        assert out.updates_replayed == 1
        assert registry.fingerprints() == [report.fingerprint]
        assert idempotency == {"k-1": {"fingerprint": report.fingerprint}}
        recovered = registry.peek(report.fingerprint)
        got = recovered.cluster(ScanParams(0.5, 2))
        assert np.array_equal(got.roles, expected.roles)
        assert np.array_equal(got.core_labels, expected.core_labels)

    def test_missing_payload_fails_stop(self, tmp_path):
        wal = ServiceWAL(tmp_path / "wal")
        wal.append("submit", fingerprint="deadbeef", label=None)
        with pytest.raises(RecoveryError, match="cannot restore"):
            recover(wal, session=api.Session(), registry=GraphRegistry())

    def test_broken_fingerprint_chain_fails_stop(self, tmp_path):
        wal = ServiceWAL(tmp_path / "wal")
        wal.append(
            "update",
            old_fp="absent",
            new_fp="whatever",
            idempotency_key=None,
            edits=[["+", 0, 1]],
            response=None,
        )
        with pytest.raises(RecoveryError, match="not resident"):
            recover(wal, session=api.Session(), registry=GraphRegistry())

    def test_divergent_replay_fails_stop(self, tmp_path):
        wal = ServiceWAL(tmp_path / "wal")
        graph = _graph()
        fp = graph_fingerprint(graph)
        wal.spill_graph(fp, graph)
        wal.append("submit", fingerprint=fp, label=None)
        wal.append(
            "update",
            old_fp=fp,
            new_fp="1" * 40,  # a fingerprint replay cannot land on
            idempotency_key=None,
            edits=[["+", 0, 59]],
            response=None,
        )
        with pytest.raises(RecoveryError, match="non-deterministic"):
            recover(wal, session=api.Session(), registry=GraphRegistry())

    def test_delete_and_evict_records_replay(self, tmp_path):
        wal = ServiceWAL(tmp_path / "wal")
        a, b = _graph(seed=1), _graph(seed=2)
        fa, fb = graph_fingerprint(a), graph_fingerprint(b)
        wal.spill_graph(fa, a)
        wal.append("submit", fingerprint=fa, label="a")
        wal.spill_graph(fb, b)
        wal.append("submit", fingerprint=fb, label="b")
        wal.append("evict", fingerprint=fa)
        out, _ = recover(
            wal, session=api.Session(), registry=(registry := GraphRegistry())
        )
        assert registry.fingerprints() == [fb]
        assert out.evictions_replayed == 1

    def test_snapshot_rewarming_points(self, tmp_path):
        wal = ServiceWAL(tmp_path / "wal")
        graph = _graph()
        fp = graph_fingerprint(graph)
        wal.spill_graph(fp, graph)
        params = ScanParams(0.45, 3)
        frac = params.eps_fraction
        wal.compact(
            {
                "graphs": [
                    {
                        "fingerprint": fp,
                        "label": "er",
                        "batches_applied": 0,
                        "points": [
                            [frac.numerator, frac.denominator, params.mu]
                        ],
                    }
                ],
                "idempotency": {"k": {"fingerprint": fp}},
            }
        )
        session, registry = api.Session(), GraphRegistry()
        out, idempotency = recover(wal, session=session, registry=registry)
        assert out.warm_points == 1
        assert idempotency == {"k": {"fingerprint": fp}}
        handle = registry.peek(fp)
        # The point was re-materialized: lookup serves without computing.
        assert handle.lookup(params) is not None


# ---------------------------------------------------------------------------
# Service-level durability over real TCP
# ---------------------------------------------------------------------------


async def _request(port, method, target, body=None, headers=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode()
    head = [
        f"{method} {target} HTTP/1.1",
        "Host: t",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
    ]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    head.append("Connection: close")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head_raw, _, body_raw = raw.partition(b"\r\n\r\n")
    resp_headers = {}
    for line in head_raw.decode().split("\r\n")[1:]:
        name, _, value = line.partition(": ")
        resp_headers[name.lower()] = value
    return (
        int(head_raw.split()[1]),
        json.loads(body_raw) if body_raw else None,
        resp_headers,
    )


def _abandon(service):
    """Simulate kill -9: tear the sockets down without stop()'s flushes."""
    if service._server is not None:
        service._server.close()
        service._server = None
    service._executor.shutdown(wait=True)
    if service._wal_executor is not None:
        service._wal_executor.shutdown(wait=True)


class TestServiceDurability:
    def test_crash_recovery_bit_identical_and_idempotent(self, tmp_path):
        graph = _graph()
        batch = {"insert": [[0, 59], [2, 57]]}
        state: dict = {}

        async def phase1():
            service = ClusteringService(
                wal_dir=tmp_path / "wal", snapshot_every=1000
            )
            await service.start()
            port = service.port
            _, info, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph)}
            )
            fp = info["fingerprint"]
            status, up, _ = await _request(
                port,
                "POST",
                f"/graphs/{fp}/updates",
                batch,
                {"Idempotency-Key": "b-1"},
            )
            assert status == 200 and "idempotent_replay" not in up
            new_fp = up["fingerprint"]
            status, labels, _ = await _request(
                port,
                "GET",
                f"/graphs/{new_fp}/cluster?eps=0.5&mu=2&include=labels",
            )
            assert status == 200
            state.update(fp=fp, new_fp=new_fp, labels=labels, response=up)
            _abandon(service)  # no drain, no stop: this is the "crash"

        asyncio.run(phase1())

        async def phase2():
            service = ClusteringService(wal_dir=tmp_path / "wal")
            await service.start()
            port = service.port
            report = service.recovery_report
            assert report.records_replayed == 2  # submit + update
            assert report.fingerprints == [state["new_fp"]]
            status, again, _ = await _request(
                port,
                "GET",
                f"/graphs/{state['new_fp']}/cluster"
                "?eps=0.5&mu=2&include=labels",
            )
            assert status == 200
            for field in ("roles", "core_labels", "noncore_pairs"):
                assert again[field] == state["labels"][field]
            # Duplicate Idempotency-Key: replayed, not re-applied.
            status, replay, headers = await _request(
                port,
                "POST",
                f"/graphs/{state['new_fp']}/updates",
                batch,
                {"Idempotency-Key": "b-1"},
            )
            assert status == 200 and replay["idempotent_replay"] is True
            assert replay["fingerprint"] == state["new_fp"]
            assert headers.get("idempotency-replayed") == "true"
            # The pre-update fingerprint is gone (the chain re-keyed it).
            status, _, _ = await _request(
                port, "GET", f"/graphs/{state['fp']}/cluster?eps=0.5&mu=2"
            )
            assert status == 404
            await service.stop()

        asyncio.run(phase2())

    def test_deadline_504_and_work_continues(self, tmp_path):
        graph = _graph()
        gate = threading.Event()

        async def drive(service, port):
            _, info, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph)}
            )
            fp = info["fingerprint"]
            loop = asyncio.get_running_loop()
            blocker = loop.run_in_executor(service._executor, gate.wait)
            await asyncio.sleep(0.05)
            status, payload, headers = await _request(
                port, "GET", f"/graphs/{fp}/cluster?eps=0.41&mu=3&timeout=0.2"
            )
            assert status == 504, payload
            assert "deadline" in payload["error"]
            assert headers.get("retry-after") == "1"
            assert service.counters["timeouts"] == 1
            # Malformed timeouts are 400s, not silent defaults.
            status, _, _ = await _request(
                port, "GET", f"/graphs/{fp}/cluster?eps=0.41&mu=3&timeout=-1"
            )
            assert status == 400
            gate.set()
            await blocker
            while service._inflight:
                await asyncio.sleep(0.01)
            # The timed-out work completed server-side: retry is warm.
            status, retry, _ = await _request(
                port, "GET", f"/graphs/{fp}/cluster?eps=0.41&mu=3"
            )
            assert status == 200 and retry["warm"] is True

        async def go():
            service = ClusteringService(
                wal_dir=tmp_path / "wal",
                max_concurrent_queries=1,
                executor_workers=1,
            )
            await service.start()
            try:
                await drive(service, service.port)
            finally:
                gate.set()
                await service.stop()

        asyncio.run(go())

    def test_update_deadline_commits_then_replays(self, tmp_path):
        graph = _graph()
        gate = threading.Event()
        batch = {"insert": [[0, 59]]}

        async def drive(service, port):
            _, info, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph)}
            )
            fp = info["fingerprint"]
            loop = asyncio.get_running_loop()
            blocker = loop.run_in_executor(service._executor, gate.wait)
            await asyncio.sleep(0.05)
            status, payload, _ = await _request(
                port,
                "POST",
                f"/graphs/{fp}/updates?timeout=0.2",
                batch,
                {"Idempotency-Key": "slow-1"},
            )
            assert status == 504, payload
            gate.set()
            await blocker
            # The transaction was shielded from the client's deadline:
            # it committed and logged; the retry replays the original.
            for _ in range(200):
                if "slow-1" in service._idempotency:
                    break
                await asyncio.sleep(0.01)
            status, replay, _ = await _request(
                port,
                "POST",
                f"/graphs/{fp}/updates",
                batch,
                {"Idempotency-Key": "slow-1"},
            )
            assert status == 200 and replay["idempotent_replay"] is True
            assert service.counters["updates"] == 1  # applied exactly once

        async def go():
            service = ClusteringService(
                wal_dir=tmp_path / "wal",
                max_concurrent_queries=1,
                executor_workers=1,
            )
            await service.start()
            try:
                await drive(service, service.port)
            finally:
                gate.set()
                await service.stop()

        asyncio.run(go())

    def test_readyz_drain_and_zero_replay_restart(self, tmp_path):
        graph = _graph()
        gate = threading.Event()

        async def go():
            service = ClusteringService(
                wal_dir=tmp_path / "wal",
                max_concurrent_queries=1,
                executor_workers=1,
            )
            await service.start()
            port = service.port
            try:
                status, ready, _ = await _request(port, "GET", "/readyz")
                assert status == 200 and ready["state"] == "serving"
                _, info, _ = await _request(
                    port, "POST", "/graphs", {"edges": _edges(graph)}
                )
                fp = info["fingerprint"]
                loop = asyncio.get_running_loop()
                blocker = loop.run_in_executor(service._executor, gate.wait)
                await asyncio.sleep(0.05)
                inflight = asyncio.create_task(
                    _request(port, "GET", f"/graphs/{fp}/cluster?eps=0.5&mu=2")
                )
                await asyncio.sleep(0.1)
                drain = asyncio.create_task(
                    service.drain(grace_seconds=10.0)
                )
                while service.state != "draining":
                    await asyncio.sleep(0.01)
                gate.set()
                await blocker
                status, payload, _ = await inflight
                # In-flight work during a drain completes (or would get
                # a structured 503 past the grace) — never a dropped
                # connection.
                assert status in (200, 503), payload
                summary = await drain
                assert summary["snapshot_written"] is True
                assert (tmp_path / "wal" / "snapshot.json").exists()
            finally:
                gate.set()
                await service.stop()

        asyncio.run(go())

        async def restart():
            service = ClusteringService(wal_dir=tmp_path / "wal")
            await service.start()
            try:
                report = service.recovery_report
                # The final snapshot covered everything: zero replay.
                assert report.records_replayed == 0
                assert len(report.fingerprints) == 1
            finally:
                await service.stop()

        asyncio.run(restart())

    def test_draining_rejects_new_requests_structured(self, tmp_path):
        graph = _graph()
        gate = threading.Event()

        async def go():
            service = ClusteringService(
                wal_dir=tmp_path / "wal",
                max_concurrent_queries=1,
                executor_workers=1,
                drain_grace_seconds=5.0,
            )
            await service.start()
            port = service.port
            try:
                _, info, _ = await _request(
                    port, "POST", "/graphs", {"edges": _edges(graph)}
                )
                fp = info["fingerprint"]
                # Open a keep-alive connection while still serving.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                loop = asyncio.get_running_loop()
                blocker = loop.run_in_executor(service._executor, gate.wait)
                await asyncio.sleep(0.05)
                # Hold the drain open with one in-flight cold query.
                inflight = asyncio.create_task(
                    _request(
                        port, "GET", f"/graphs/{fp}/cluster?eps=0.47&mu=2"
                    )
                )
                await asyncio.sleep(0.1)
                drain = asyncio.create_task(service.drain())
                while service.state != "draining":
                    await asyncio.sleep(0.01)
                # A request on the pre-existing connection: structured
                # 503 + Connection: close, not a dropped socket.
                writer.write(
                    f"GET /graphs/{fp}/cluster?eps=0.5&mu=2 HTTP/1.1\r\n"
                    "Host: t\r\n\r\n".encode()
                )
                await writer.drain()
                raw = await reader.read()
                assert b"503" in raw.split(b"\r\n", 1)[0]
                assert b"Connection: close" in raw
                gate.set()
                await blocker
                status, _, _ = await inflight
                assert status in (200, 503)
                summary = await drain
                assert summary["drained_inflight"] >= 1
                writer.close()
            finally:
                gate.set()
                await service.stop()

        asyncio.run(go())

    def test_idle_timeout_closes_connection(self):
        async def go():
            service = ClusteringService(idle_timeout_seconds=0.2)
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                # Send nothing: the slow-loris defense reclaims the slot.
                data = await asyncio.wait_for(reader.read(), timeout=5.0)
                assert data == b""  # server closed cleanly
                assert service.counters["idle_closed"] == 1
                writer.close()
            finally:
                await service.stop()

        asyncio.run(go())

    def test_admin_compact_without_wal_is_400(self):
        async def go():
            service = ClusteringService()
            await service.start()
            try:
                status, payload, _ = await _request(
                    service.port, "POST", "/admin/compact"
                )
                assert status == 400
                assert "wal" in payload["error"].lower()
            finally:
                await service.stop()

        asyncio.run(go())
