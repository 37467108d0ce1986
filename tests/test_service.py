"""The always-on clustering service: HTTP layer, registry, server.

Everything runs in-process over real TCP sockets via ``asyncio.run``
(no external HTTP client, no pytest-asyncio): each test stands up a
:class:`~repro.service.ClusteringService` on an ephemeral port, drives
it with a minimal reader/writer client, and tears it down.

The deterministic concurrency tests block the service's single-thread
executor on a :class:`threading.Event` so coalescing (identical
in-flight keys share one future) and admission control (429 +
``Retry-After`` past the heavy-query limit) are observed by
construction, not by timing luck.
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np
import pytest

from repro import api
from repro.cache import graph_fingerprint
from repro.graph import from_edge_array
from repro.graph.generators import erdos_renyi
from repro.service import ClusteringService, GraphRegistry
from repro.service.http import (
    HTTPError,
    Request,
    json_body,
    read_request,
    response_bytes,
)
from repro.types import ScanParams


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------


def _parse(raw: bytes, **kwargs):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return asyncio.run(go())


class TestHTTPLayer:
    def test_parses_request(self):
        req = _parse(
            b"GET /graphs/ab/cluster?eps=0.5&mu=2 HTTP/1.1\r\n"
            b"Host: x\r\nX-Thing: 1\r\n\r\n"
        )
        assert req.method == "GET"
        assert req.path == "/graphs/ab/cluster"
        assert req.path_parts == ["graphs", "ab", "cluster"]
        assert req.query == {"eps": "0.5", "mu": "2"}
        assert req.headers["x-thing"] == "1"
        assert req.keep_alive

    def test_body_by_content_length(self):
        req = _parse(
            b"POST /graphs HTTP/1.1\r\nContent-Length: 7\r\n\r\n"
            b'{"a":1}'
        )
        assert req.body == b'{"a":1}'
        assert req.json() == {"a": 1}

    def test_clean_eof_is_none(self):
        assert _parse(b"") is None

    def test_malformed_request_line(self):
        with pytest.raises(HTTPError) as err:
            _parse(b"BROKEN\r\n\r\n")
        assert err.value.status == 400

    def test_body_over_limit_is_413(self):
        with pytest.raises(HTTPError) as err:
            _parse(
                b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100,
                max_body=10,
            )
        assert err.value.status == 413

    def test_truncated_body_is_400(self):
        with pytest.raises(HTTPError) as err:
            _parse(b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")
        assert err.value.status == 400

    def test_chunked_rejected(self):
        with pytest.raises(HTTPError) as err:
            _parse(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
        assert err.value.status == 400

    def test_connection_close_semantics(self):
        req = _parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not req.keep_alive
        req = _parse(b"GET / HTTP/1.0\r\n\r\n")
        assert not req.keep_alive
        req = _parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        assert req.keep_alive

    def test_malformed_json_body(self):
        req = Request(method="POST", target="/", path="/", body=b"{nope")
        with pytest.raises(HTTPError) as err:
            req.json()
        assert err.value.status == 400

    def test_response_bytes_roundtrip(self):
        raw = response_bytes(429, {"error": "busy"},
                             extra_headers={"Retry-After": "1"})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 429 Too Many Requests" in head
        assert b"Retry-After: 1" in head
        assert json.loads(body) == {"error": "busy"}

    def test_json_body_equals_one_dumps(self):
        payload = {
            "wall_seconds": 1.25e-05,
            "warm": True,
            "fingerprint": 'a"\u00e9\\b',
            "mu": 3,
            "eps": 0.1 + 0.2,
            "none": None,
        }
        encoded = {"roles": [0, 1, -1], "pairs": [[2, 3]], "z": []}
        body = json_body(
            payload, {k: json.dumps(v) for k, v in encoded.items()}
        )
        merged = {**payload, **encoded}
        assert body == (json.dumps(merged, sort_keys=True) + "\n").encode()
        assert json_body({}, {}) == b"{}\n"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class _FakeHandle:
    def __init__(self, size: int) -> None:
        self.size = size

    def memory_bytes(self) -> int:
        return self.size

    def stats(self) -> dict:
        return {"memory_bytes": self.size}


class TestGraphRegistry:
    def test_lru_eviction_by_count(self):
        reg = GraphRegistry(max_graphs=2)
        assert reg.put("a", _FakeHandle(1)) == []
        assert reg.put("b", _FakeHandle(1)) == []
        evicted = reg.put("c", _FakeHandle(1))
        assert [fp for fp, _ in evicted] == ["a"]
        assert reg.fingerprints() == ["b", "c"]

    def test_get_refreshes_recency(self):
        reg = GraphRegistry(max_graphs=2)
        reg.put("a", _FakeHandle(1))
        reg.put("b", _FakeHandle(1))
        reg.get("a")  # a is now most recent; b must be the victim
        evicted = reg.put("c", _FakeHandle(1))
        assert [fp for fp, _ in evicted] == ["b"]

    def test_peek_does_not_refresh(self):
        reg = GraphRegistry(max_graphs=2)
        reg.put("a", _FakeHandle(1))
        reg.put("b", _FakeHandle(1))
        reg.peek("a")
        evicted = reg.put("c", _FakeHandle(1))
        assert [fp for fp, _ in evicted] == ["a"]

    def test_memory_budget_eviction(self):
        reg = GraphRegistry(max_graphs=None, memory_budget_bytes=100)
        reg.put("a", _FakeHandle(60))
        reg.put("b", _FakeHandle(60))  # 120 > 100: a must go
        assert reg.fingerprints() == ["b"]
        assert reg.evictions == 1

    def test_newest_never_evicted(self):
        reg = GraphRegistry(max_graphs=None, memory_budget_bytes=10)
        reg.put("huge", _FakeHandle(1000))
        assert reg.fingerprints() == ["huge"]

    def test_validation(self):
        with pytest.raises(ValueError):
            GraphRegistry(max_graphs=0)
        with pytest.raises(ValueError):
            GraphRegistry(memory_budget_bytes=0)


# ---------------------------------------------------------------------------
# Service
# ---------------------------------------------------------------------------


async def _request(port, method, target, body=None, ctype="application/json"):
    status, raw, headers = await _raw_request(port, method, target, body, ctype)
    return status, json.loads(raw) if raw else None, headers


async def _raw_request(
    port, method, target, body=None, ctype="application/json"
):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    if body is None:
        payload = b""
    elif isinstance(body, (bytes, str)):
        payload = body.encode() if isinstance(body, str) else body
    else:
        payload = json.dumps(body).encode()
    writer.write(
        f"{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Type: {ctype}\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n".encode()
        + payload
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    headers = {}
    for line in head.decode().split("\r\n")[1:]:
        name, _, value = line.partition(": ")
        headers[name.lower()] = value
    return int(head.split()[1]), body, headers


def _graph():
    return erdos_renyi(80, 400, seed=9)


def _edges(graph):
    return [[int(u), int(v)] for u, v in graph.edge_list()]


def _serve(coro_fn, **service_kwargs):
    """Run ``coro_fn(service, port)`` against a started service."""

    async def go():
        service = ClusteringService(**service_kwargs)
        await service.start()
        try:
            return await coro_fn(service, service.port)
        finally:
            await service.stop()

    return asyncio.run(go())


class TestServiceEndpoints:
    def test_submit_query_lifecycle(self, tmp_path):
        graph = _graph()
        reference = api.cluster(graph, ScanParams(0.4, 3))

        async def drive(service, port):
            status, info, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph), "label": "er"}
            )
            assert status == 201
            assert info["fingerprint"] == graph_fingerprint(graph)
            assert info["indexed"] is True
            fp = info["fingerprint"]

            status, cold, _ = await _request(
                port, "GET", f"/graphs/{fp}/cluster?eps=0.4&mu=3"
            )
            assert status == 200 and cold["warm"] is False
            status, warm, _ = await _request(
                port, "GET", f"/graphs/{fp}/cluster?eps=0.4&mu=3"
            )
            assert status == 200 and warm["warm"] is True
            assert warm["num_clusters"] == reference.num_clusters

            status, labels, _ = await _request(
                port,
                "GET",
                f"/graphs/{fp}/cluster?eps=0.4&mu=3&include=labels",
            )
            assert labels["roles"] == reference.roles.tolist()
            assert labels["core_labels"] == reference.core_labels.tolist()
            assert labels["noncore_pairs"] == [
                [int(a), int(b)] for a, b in reference.noncore_pairs
            ]

            status, vertex, _ = await _request(
                port, "GET", f"/graphs/{fp}/vertex/3?eps=0.4&mu=3"
            )
            assert status == 200
            assert vertex["vertex"] == 3
            assert vertex["role"] in {"core", "noncore", "hub", "outlier"}

            status, sweep, _ = await _request(
                port, "POST", f"/graphs/{fp}/sweep",
                {"eps": [0.3, 0.5], "mu": [2]},
            )
            assert status == 200 and len(sweep["points"]) == 2

            status, listing, _ = await _request(port, "GET", "/graphs")
            assert [g["fingerprint"] for g in listing["graphs"]] == [fp]

            status, deleted, _ = await _request(
                port, "DELETE", f"/graphs/{fp}"
            )
            assert status == 200 and deleted["unloaded"] is True
            status, _, _ = await _request(
                port, "GET", f"/graphs/{fp}/cluster?eps=0.4&mu=3"
            )
            assert status == 404

        _serve(drive)

    def test_submit_text_body_and_dedup(self):
        graph = _graph()
        text = "\n".join(f"{u} {v}" for u, v in graph.edge_list())

        async def drive(service, port):
            status, first, _ = await _request(
                port, "POST", "/graphs", text, ctype="text/plain"
            )
            assert status == 201
            assert first["fingerprint"] == graph_fingerprint(graph)
            status, again, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph)}
            )
            assert status == 200 and again["already_loaded"] is True

        _serve(drive)

    def test_error_mapping(self):
        graph = _graph()

        async def drive(service, port):
            checks = [
                ("GET", "/nope", None, 404),
                ("PATCH", "/graphs", None, 405),
                ("POST", "/graphs", {"edges": []}, 400),
                ("POST", "/graphs", {"wrong": 1}, 400),
                ("POST", "/graphs", {"edges": [[0, -2]]}, 400),
                ("GET", "/graphs/beef/cluster?eps=0.5&mu=2", None, 404),
            ]
            for method, target, body, want in checks:
                status, payload, _ = await _request(port, method, target, body)
                assert status == want, (target, status, payload)
                assert "error" in payload

            status, info, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph)}
            )
            fp = info["fingerprint"]
            for query, want in [
                ("eps=2.0&mu=2", 400),    # eps out of (0, 1]
                ("eps=0.5", 400),         # mu missing
                ("eps=abc&mu=2", 400),
                ("eps=0.5&mu=2&algorithm=magic", 400),
            ]:
                status, payload, _ = await _request(
                    port, "GET", f"/graphs/{fp}/cluster?{query}"
                )
                assert status == want, (query, payload)
            status, payload, _ = await _request(
                port, "GET", f"/graphs/{fp}/vertex/999?eps=0.5&mu=2"
            )
            assert status == 404
            status, payload, _ = await _request(
                port, "POST", f"/graphs/{fp}/sweep", {"eps": [], "mu": [2]}
            )
            assert status == 400

        _serve(drive)

    def test_stats_and_health(self):
        async def drive(service, port):
            status, health, _ = await _request(port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            status, stats, _ = await _request(port, "GET", "/stats")
            assert status == 200
            assert stats["registry"]["graphs"] == 0
            assert stats["counters"]["requests"] >= 1

        _serve(drive)

    def test_lru_eviction_over_http(self):
        g1, g2 = erdos_renyi(40, 150, seed=1), erdos_renyi(40, 150, seed=2)

        async def drive(service, port):
            for g in (g1, g2):
                status, _, _ = await _request(
                    port, "POST", "/graphs", {"edges": _edges(g)}
                )
                assert status == 201
            status, stats, _ = await _request(port, "GET", "/stats")
            assert stats["registry"]["graphs"] == 1
            assert stats["registry"]["evictions"] == 1
            assert stats["registry"]["fingerprints"] == [
                graph_fingerprint(g2)
            ]
            # the evicted handle is gone from the session too
            assert len(service.session.handles()) == 1

        _serve(drive, max_graphs=1)

    def test_ledger_batch_record(self, tmp_path):
        graph = _graph()
        ledger = tmp_path / "service.jsonl"

        async def drive(service, port):
            status, info, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph)}
            )
            fp = info["fingerprint"]
            for _ in range(3):
                await _request(
                    port, "GET", f"/graphs/{fp}/cluster?eps=0.5&mu=2"
                )

        _serve(drive, ledger_path=ledger, ledger_flush_every=2)
        records = [
            json.loads(line) for line in ledger.read_text().splitlines()
        ]
        service_records = [r for r in records if r["kind"] == "service"]
        assert service_records
        metrics = service_records[0]["metrics"]
        assert metrics["service.batch_queries"] >= 2
        assert "service.p50_ms" in metrics and "service.p95_ms" in metrics


class TestCoalescingAndAdmission:
    def test_identical_queries_coalesce_and_different_rejected(self):
        graph = _graph()
        gate = threading.Event()

        async def drive(service, port):
            status, info, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph)}
            )
            fp = info["fingerprint"]
            loop = asyncio.get_running_loop()
            # Occupy the single executor thread: every heavy query
            # started now stays in flight until the gate opens.
            blocker = loop.run_in_executor(service._executor, gate.wait)
            await asyncio.sleep(0.05)

            same = [
                asyncio.create_task(
                    _request(
                        port, "GET", f"/graphs/{fp}/cluster?eps=0.44&mu=3"
                    )
                )
                for _ in range(5)
            ]
            await asyncio.sleep(0.1)
            # A different key while the only heavy slot is taken: 429.
            status, payload, headers = await _request(
                port, "GET", f"/graphs/{fp}/cluster?eps=0.77&mu=4"
            )
            assert status == 429
            assert headers.get("retry-after") == "1"
            assert "limit" in payload["error"]

            gate.set()
            await blocker
            results = await asyncio.gather(*same)
            assert [r[0] for r in results] == [200] * 5
            assert len({r[1]["num_clusters"] for r in results}) == 1
            assert service.counters["coalesced"] == 4
            assert service.counters["rejected"] == 1

        try:
            _serve(
                drive, max_concurrent_queries=1, executor_workers=1
            )
        finally:
            gate.set()  # never leave the executor thread parked

    def test_warm_queries_bypass_admission(self):
        graph = _graph()
        gate = threading.Event()

        async def drive(service, port):
            status, info, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph)}
            )
            fp = info["fingerprint"]
            status, _, _ = await _request(
                port, "GET", f"/graphs/{fp}/cluster?eps=0.5&mu=2"
            )
            assert status == 200
            loop = asyncio.get_running_loop()
            blocker = loop.run_in_executor(service._executor, gate.wait)
            await asyncio.sleep(0.05)
            # Executor fully blocked — the memoized point still answers.
            status, warm, _ = await _request(
                port, "GET", f"/graphs/{fp}/cluster?eps=0.5&mu=2"
            )
            assert status == 200 and warm["warm"] is True
            gate.set()
            await blocker

        try:
            _serve(drive, max_concurrent_queries=1, executor_workers=1)
        finally:
            gate.set()


def _labels_body(fp, eps, mu, result, served, algorithm="gsindex"):
    """The ``include=labels`` body as one ``json.dumps`` of the whole
    payload builds it, with the per-request fields ``served`` sent."""
    payload = {
        "fingerprint": fp,
        "eps": float(eps),
        "mu": int(mu),
        "algorithm": algorithm,
        "num_clusters": result.num_clusters,
        "num_cores": result.num_cores,
        "num_vertices": result.num_vertices,
        "warm": served["warm"],
        "wall_seconds": served["wall_seconds"],
        "roles": result.roles.tolist(),
        "core_labels": result.core_labels.tolist(),
        "noncore_pairs": [[int(a), int(b)] for a, b in result.noncore_pairs],
    }
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


class TestWarmReadPath:
    """Warm reads: label bodies spliced from text encoded once per
    version, ``/vertex`` memo hits answered on the event loop."""

    def test_labels_body_is_one_dumps_of_the_payload(self):
        graph = _graph()
        n = graph.num_vertices

        async def labels(port, fp, eps, mu, *, warm, result, **extra):
            query = "".join(f"&{k}={v}" for k, v in extra.items())
            status, raw, _ = await _raw_request(
                port,
                "GET",
                f"/graphs/{fp}/cluster?eps={eps}&mu={mu}&include=labels"
                + query,
            )
            assert status == 200
            served = json.loads(raw)
            assert served["warm"] is warm
            algorithm = extra.get("algorithm", "gsindex")
            assert raw == _labels_body(fp, eps, mu, result, served, algorithm)

        async def drive(service, port):
            status, info, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph)}
            )
            fp = info["fingerprint"]
            reference = api.cluster(graph, ScanParams(0.4, 3))
            await labels(port, fp, 0.4, 3, warm=False, result=reference)
            await labels(port, fp, 0.4, 3, warm=True, result=reference)
            await labels(
                port, fp, 0.4, 3, warm=False, result=reference,
                algorithm="scan",
            )

            status, report, _ = await _request(
                port,
                "POST",
                f"/graphs/{fp}/updates",
                {"insert": [[0, n - 1]], "remove": []},
            )
            assert status == 200, report
            new_fp = report["fingerprint"]
            mutated = from_edge_array(
                np.array(_edges(graph) + [[0, n - 1]]), num_vertices=n
            )
            assert graph_fingerprint(mutated) == new_fp
            for eps, mu, warm in ((0.4, 3, True), (0.6, 2, False)):
                reference = api.cluster(mutated, ScanParams(eps, mu))
                await labels(port, new_fp, eps, mu, warm=warm, result=reference)
                await labels(port, new_fp, eps, mu, warm=True, result=reference)

        _serve(drive)

    def test_warm_reads_answer_while_the_slot_is_held(self):
        graph = _graph()
        gate = threading.Event()

        async def drive(service, port):
            status, info, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph)}
            )
            fp = info["fingerprint"]
            status, _, _ = await _request(
                port, "GET", f"/graphs/{fp}/vertex/5?eps=0.5&mu=2"
            )
            assert status == 200
            loop = asyncio.get_running_loop()
            blocker = loop.run_in_executor(service._executor, gate.wait)
            try:
                await asyncio.sleep(0.05)
                # A slow cold query takes the only heavy slot.
                cold = asyncio.create_task(
                    _request(port, "GET", f"/graphs/{fp}/cluster?eps=0.77&mu=4")
                )
                await asyncio.sleep(0.1)
                assert service._heavy == 1

                status, view, _ = await _request(
                    port, "GET", f"/graphs/{fp}/vertex/7?eps=0.5&mu=2"
                )
                assert status == 200
                want = api.open(graph).vertex(7, 0.5, 2).as_dict()
                assert {k: view[k] for k in want} == want
                status, warm, _ = await _request(
                    port,
                    "GET",
                    f"/graphs/{fp}/cluster?eps=0.5&mu=2&include=labels",
                )
                assert status == 200 and warm["warm"] is True
                # A cold /vertex still needs the slot.
                status, _, _ = await _request(
                    port, "GET", f"/graphs/{fp}/vertex/7?eps=0.6&mu=2"
                )
                assert status == 429
                assert service.counters["rejected"] == 1
            finally:
                # Never leave the executor thread parked: stop() joins it.
                gate.set()
            await blocker
            status, _, _ = await cold
            assert status == 200

        _serve(drive, max_concurrent_queries=1, executor_workers=1)

    def test_cold_vertex_coalesces_and_is_admitted(self):
        graph = _graph()
        gate = threading.Event()
        vertices = (2, 11, 2, 40)

        async def drive(service, port):
            status, info, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph)}
            )
            fp = info["fingerprint"]
            loop = asyncio.get_running_loop()
            blocker = loop.run_in_executor(service._executor, gate.wait)
            try:
                await asyncio.sleep(0.05)
                same = [
                    asyncio.create_task(
                        _request(
                            port, "GET", f"/graphs/{fp}/vertex/{v}?eps=0.5&mu=3"
                        )
                    )
                    for v in vertices
                ]
                await asyncio.sleep(0.1)
                status, _, headers = await _request(
                    port, "GET", f"/graphs/{fp}/vertex/2?eps=0.7&mu=3"
                )
                assert status == 429
                assert headers.get("retry-after") == "1"
            finally:
                gate.set()
            await blocker
            results = await asyncio.gather(*same)
            reference = api.open(graph)
            for v, (status, view, _) in zip(vertices, results):
                assert status == 200
                want = reference.vertex(v, 0.5, 3).as_dict()
                assert {k: view[k] for k in want} == want
            assert service.counters["coalesced"] == len(vertices) - 1
            assert service.counters["rejected"] == 1

        _serve(drive, max_concurrent_queries=1, executor_workers=1)


class TestServiceMatchesAPI:
    def test_bit_identity_across_points(self):
        graph = _graph()
        points = [(0.3, 2), (0.5, 3), (0.7, 2)]

        async def drive(service, port):
            status, info, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph)}
            )
            fp = info["fingerprint"]
            for eps, mu in points:
                status, payload, _ = await _request(
                    port,
                    "GET",
                    f"/graphs/{fp}/cluster?eps={eps}&mu={mu}&include=labels",
                )
                reference = api.cluster(graph, ScanParams(eps, mu))
                assert payload["roles"] == reference.roles.tolist()
                assert (
                    payload["core_labels"]
                    == reference.core_labels.tolist()
                )
                assert payload["noncore_pairs"] == [
                    [int(a), int(b)] for a, b in reference.noncore_pairs
                ]

        _serve(drive)


class TestUpdatesEndpoint:
    def test_update_rekeys_and_serves_warm(self):
        graph = _graph()
        n = graph.num_vertices

        async def drive(service, port):
            status, info, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph)}
            )
            assert status == 201
            old_fp = info["fingerprint"]
            status, _, _ = await _request(
                port, "GET", f"/graphs/{old_fp}/cluster?eps=0.4&mu=3"
            )
            assert status == 200

            status, report, _ = await _request(
                port,
                "POST",
                f"/graphs/{old_fp}/updates",
                {"edits": {"insert": [[0, n - 1]], "remove": []}},
            )
            assert status == 200, report
            assert report["previous_fingerprint"] == old_fp
            assert report["fingerprint"] != old_fp
            assert report["inserted"] == 1
            assert report["warm_points"] == 1
            new_fp = report["fingerprint"]

            # Registry re-keyed: old fingerprint gone, new one warm.
            status, payload, _ = await _request(
                port, "GET", f"/graphs/{old_fp}/cluster?eps=0.4&mu=3"
            )
            assert status == 404
            status, warm, _ = await _request(
                port,
                "GET",
                f"/graphs/{new_fp}/cluster?eps=0.4&mu=3&include=labels",
            )
            assert status == 200 and warm["warm"] is True

            mutated = api.open(service.registry.get(new_fp).graph)
            reference = api.cluster(mutated.graph, ScanParams(0.4, 3))
            assert warm["roles"] == reference.roles.tolist()
            assert warm["core_labels"] == reference.core_labels.tolist()

            status, stats, _ = await _request(port, "GET", "/stats")
            assert stats["counters"]["updates"] == 1

        _serve(drive)

    def test_sequential_batches_accumulate(self):
        graph = _graph()
        n = graph.num_vertices

        async def drive(service, port):
            status, info, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph)}
            )
            fp = info["fingerprint"]
            for k in range(3):
                status, report, _ = await _request(
                    port,
                    "POST",
                    f"/graphs/{fp}/updates",
                    {"insert": [[k, n - 1 - k]], "remove": []},
                )
                assert status == 200, report
                fp = report["fingerprint"]
                assert report["batch"] == k
            status, listing, _ = await _request(port, "GET", "/graphs")
            assert [g["fingerprint"] for g in listing["graphs"]] == [fp]

        _serve(drive)

    def test_update_error_mapping(self):
        graph = _graph()

        async def drive(service, port):
            status, payload, _ = await _request(
                port,
                "POST",
                "/graphs/beef/updates",
                {"insert": [[0, 1]], "remove": []},
            )
            assert status == 404

            status, info, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph)}
            )
            fp = info["fingerprint"]
            bad_bodies = [
                None,                                  # no body
                {"edits": {"bogus": [[0, 1]]}},        # unknown key
                {"edits": [["?", 0, 1]]},              # unknown op kind
                {"insert": [], "remove": []},          # empty batch
                {"insert": [[0, 10_000]], "remove": []},  # out of range
                {"insert": [[3, 3]], "remove": []},    # self loop
            ]
            for body in bad_bodies:
                status, payload, _ = await _request(
                    port, "POST", f"/graphs/{fp}/updates", body
                )
                assert status == 400, (body, payload)
                assert "error" in payload
            # The handle still answers on its original fingerprint.
            status, _, _ = await _request(
                port, "GET", f"/graphs/{fp}/cluster?eps=0.5&mu=2"
            )
            assert status == 200

        _serve(drive)


# ---------------------------------------------------------------------------
# Destructive races: DELETE / LRU eviction vs in-flight work
# ---------------------------------------------------------------------------


class TestDestructiveRaces:
    def test_delete_races_inflight_cold_query(self):
        """DELETE lands while a cold query is pinned in the executor.

        The query must complete with its correct answer (the discard is
        deferred until no in-flight work references the handle), new
        queries get a structured 404, and the handle is eventually
        closed — never a crash or half-closed handle under live work.
        """
        graph = _graph()
        gate = threading.Event()
        expected = api.cluster(graph, ScanParams(0.43, 2))

        async def drive(service, port):
            _, info, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph)}
            )
            fp = info["fingerprint"]
            handle = service.registry.peek(fp)
            loop = asyncio.get_running_loop()
            blocker = loop.run_in_executor(service._executor, gate.wait)
            await asyncio.sleep(0.05)
            inflight = asyncio.create_task(
                _request(
                    port,
                    "GET",
                    f"/graphs/{fp}/cluster?eps=0.43&mu=2&include=labels",
                )
            )
            await asyncio.sleep(0.1)
            assert service._inflight  # pinned behind the blocked executor
            status, payload, _ = await _request(
                port, "DELETE", f"/graphs/{fp}"
            )
            assert status == 200 and payload["unloaded"] is True
            status, payload, _ = await _request(
                port, "GET", f"/graphs/{fp}/cluster?eps=0.5&mu=2"
            )
            assert status == 404 and "error" in payload
            gate.set()
            await blocker
            status, answer, _ = await inflight
            assert status == 200, answer
            assert answer["roles"] == expected.roles.tolist()
            # The deferred discard runs once the in-flight key drains.
            for _ in range(500):
                if not handle.stats()["indexed"]:
                    break
                await asyncio.sleep(0.01)
            assert not handle.stats()["indexed"]  # discarded, after the query

        try:
            _serve(drive, executor_workers=1)
        finally:
            gate.set()

    def test_delete_loses_update_race_with_structured_404(self):
        """DELETE queued behind an in-flight update batch.

        The update wins (it holds the per-handle lock), re-keys the
        graph, and the late DELETE observes the re-key: a structured
        404, with the post-update graph still resident and intact.
        """
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
            update = asyncio.create_task(
                _request(
                    port,
                    "POST",
                    f"/graphs/{fp}/updates",
                    {"insert": [[0, 79], [1, 78]]},
                )
            )
            await asyncio.sleep(0.1)
            delete = asyncio.create_task(
                _request(port, "DELETE", f"/graphs/{fp}")
            )
            await asyncio.sleep(0.1)
            assert not delete.done()  # parked on the per-handle lock
            gate.set()
            await blocker
            status, applied, _ = await update
            assert status == 200, applied
            new_fp = applied["fingerprint"]
            status, payload, _ = await delete
            assert status == 404, payload
            assert "re-keyed" in payload["error"]
            # The update's result is untouched by the losing DELETE.
            status, _, _ = await _request(
                port, "GET", f"/graphs/{new_fp}/cluster?eps=0.5&mu=2"
            )
            assert status == 200
            assert service.registry.fingerprints() == [new_fp]

        try:
            _serve(drive, executor_workers=1)
        finally:
            gate.set()

    def test_eviction_races_inflight_update_batch(self, tmp_path):
        """LRU eviction lands while an update batch is mid-apply.

        The update loses with a structured 409, no WAL record is
        written for the aborted batch (the log stays replayable), and
        the mutated handle is unreachable — no half-mutation survives.
        """
        from repro.service import ServiceWAL, recover

        gate = threading.Event()
        entered = threading.Event()
        graph_a = erdos_renyi(60, 240, seed=1)
        graph_b = erdos_renyi(60, 240, seed=2)

        async def drive(service, port):
            _, info, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph_a)}
            )
            fp_a = info["fingerprint"]
            handle = service.registry.peek(fp_a)
            original = handle.apply_updates

            def slow_apply(batch):
                entered.set()
                gate.wait()
                return original(batch)

            handle.apply_updates = slow_apply
            update = asyncio.create_task(
                _request(
                    port,
                    "POST",
                    f"/graphs/{fp_a}/updates",
                    {"insert": [[0, 59]]},
                )
            )
            while not entered.is_set():
                await asyncio.sleep(0.01)
            # The submit evicts graph A (max_graphs=1) mid-apply.
            status, info_b, _ = await _request(
                port, "POST", "/graphs", {"edges": _edges(graph_b)}
            )
            assert status == 201
            fp_b = info_b["fingerprint"]
            gate.set()
            status, payload, _ = await update
            assert status == 409, payload
            assert "evicted" in payload["error"]
            assert "not committed" in payload["error"]
            assert service.registry.fingerprints() == [fp_b]
            status, _, _ = await _request(
                port, "GET", f"/graphs/{fp_a}/cluster?eps=0.5&mu=2"
            )
            assert status == 404  # the mutated handle is unreachable
            return fp_b

        try:
            fp_b = _serve(drive, max_graphs=1, wal_dir=tmp_path / "wal")
        finally:
            gate.set()
        # The aborted batch never reached the WAL: replay works and
        # reconstructs exactly the post-eviction registry.
        wal = ServiceWAL(tmp_path / "wal")
        assert all(r["op"] != "update" for r in wal.read_records())
        report, _ = recover(
            wal, session=api.Session(), registry=(reg := GraphRegistry())
        )
        assert reg.fingerprints() == [fp_b]
        assert report.evictions_replayed == 1
