"""The always-on clustering service.

One long-lived process owns a :class:`~repro.api.Session`: a graph is
submitted once (``POST /graphs``), pays its similarity-resolution cost
once (GS*-Index construction + similarity-store warm-up, in a worker
executor so the event loop stays responsive), and from then on every
``(ε, µ)`` clustering query, per-vertex lookup or sweep is an index walk
— the serving model of index-based SCAN (Tseng, Dhulipala & Shun; see
``docs/service.md``).

Endpoints
---------
``GET  /healthz``                          liveness probe
``GET  /readyz``                           readiness state machine
                                           (``recovering`` / ``serving``
                                           / ``draining``; 200 only when
                                           serving)
``GET  /stats``                            counters, registry, store, WAL
``GET  /graphs``                           resident graph summaries
``POST /graphs``                           submit a graph (edge-list text
                                           or ``{"edges": [[u, v], ...]}``)
``GET  /graphs/{fp}``                      one graph's summary
``DELETE /graphs/{fp}``                    unload a graph
``GET  /graphs/{fp}/cluster?eps=&mu=``     clustering at (ε, µ)
``GET  /graphs/{fp}/vertex/{v}?eps=&mu=``  per-vertex role + clusters
``POST /graphs/{fp}/sweep``                grid sweep (``{"eps": [...],
                                           "mu": [...]}``)
``POST /graphs/{fp}/updates``              apply a batch of edge edits
                                           (``{"insert": [[u, v], ...],
                                           "remove": [[u, v], ...]}``);
                                           the graph is re-stamped and
                                           re-keyed under its new
                                           fingerprint, warm queries
                                           keep serving between batches.
                                           Send an ``Idempotency-Key``
                                           header to make retries safe.
``POST /admin/compact``                    force a WAL snapshot compaction

Scheduling model
----------------
* **Coalescing** — identical in-flight work (same fingerprint, ε, µ and
  algorithm) shares one future: a thundering herd on a cold point costs
  one index query.
* **Admission control** — at most ``max_concurrent_queries`` heavy
  operations (index builds, cold queries, sweeps) run at once; beyond
  that the service answers ``429`` with ``Retry-After`` instead of
  queueing unboundedly.  Warm (memoized) ``/cluster`` and ``/vertex``
  reads answer on the event loop and, like coalesced followers, bypass
  the limit — they add no load.
* **Deadlines** — every query accepts ``timeout=<seconds>`` (clamped to
  ``max_request_seconds``); a request that exceeds it gets a structured
  ``504`` while the underlying work *continues* server-side, so a retry
  lands on the warm result (and a timed-out update still commits — the
  retry hits the idempotency replay instead of double-applying).
* **Idle timeout** — a keep-alive connection that sends nothing for
  ``idle_timeout_seconds`` is closed (slow-loris defense).
* **Eviction** — the graph registry is LRU-bounded by count and by a
  byte budget (:class:`~repro.service.registry.GraphRegistry`).

Durability
----------
With ``wal_dir`` set, every submission and accepted edit batch is
durably in the write-ahead log (:mod:`repro.service.wal`) *before* the
client sees the acknowledgement, snapshots compact the log every
``snapshot_every`` appends, and startup replays snapshot + WAL tail
(:mod:`repro.service.recovery`) so a ``kill -9`` loses nothing that was
acknowledged.  SIGTERM (see the CLI) runs :meth:`drain`: stop
accepting, finish or 503 in-flight work, final snapshot + ledger flush,
exit 0.

Failures map to structured JSON errors: validation → 400, unknown
fingerprint → 404, checkpoint identity mismatch or a lost destructive
race → 409, admission → 429, supervisor exhaustion
(:class:`~repro.parallel.ExecutionFaultError`) or a not-serving state →
503, deadline exceeded → 504.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable

import numpy as np

from .. import api
from ..cache import SimilarityStore, graph_fingerprint
from ..checkpoint import ResumeMismatchError
from ..graph import CSRGraph, from_edge_array
from ..obs.tracer import current_tracer
from ..options import ExecutionOptions
from ..parallel import ExecutionFaultError
from ..types import ScanParams
from .http import (
    DEFAULT_MAX_BODY,
    HTTPError,
    json_body,
    read_request,
    response_bytes,
)
from .registry import GraphRegistry
from .wal import ServiceWAL

__all__ = ["ClusteringService"]

#: ``asyncio.timeout`` (Python 3.11+); older interpreters use ``wait_for``.
_timeout = getattr(asyncio, "timeout", None)

#: Ledger flush threshold: one ``service`` record summarizes this many
#: queries (latency percentiles + coalescing traffic per batch).
DEFAULT_LEDGER_FLUSH = 64

#: Snapshot-compact the WAL after this many appends (overridable).
DEFAULT_SNAPSHOT_EVERY = 64

#: Server-side ceiling on any per-request ``timeout=`` query parameter.
DEFAULT_MAX_REQUEST_SECONDS = 120.0

#: Close a keep-alive connection after this long with no request bytes.
DEFAULT_IDLE_TIMEOUT = 60.0

#: How long :meth:`ClusteringService.drain` waits for in-flight requests.
DEFAULT_DRAIN_GRACE = 10.0

#: Bound on the remembered ``Idempotency-Key`` → response map.
DEFAULT_IDEMPOTENCY_CAPACITY = 4096

_COUNTER_NAMES = (
    "requests",
    "queries",
    "warm_hits",
    "cold_queries",
    "coalesced",
    "rejected",
    "submissions",
    "evictions",
    "sweeps",
    "vertex_lookups",
    "updates",
    "errors",
    "timeouts",
    "idempotent_replays",
    "unready_rejected",
    "idle_closed",
    "compactions",
)

#: Routes answered in every lifecycle state (probes must never 503).
_ALWAYS_ROUTES = (["healthz"], ["readyz"])


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (empty → 0.0)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values))))
    return sorted_values[rank]


class ClusteringService:
    """Asyncio HTTP server over a :class:`~repro.api.Session`.

    Construct, ``await start(host, port)``, drive requests, ``await
    stop()`` (or ``await drain()`` then ``stop()`` for a graceful
    shutdown).  All state mutation happens on the event-loop thread; the
    executor threads only run pure computations on
    :class:`~repro.api.GraphHandle` objects (whose stores take their own
    commit locks), and WAL writes are funnelled through a dedicated
    single-thread executor so appends land in acknowledgement order.
    """

    def __init__(
        self,
        *,
        session: api.Session | None = None,
        options: ExecutionOptions | None = None,
        cache_dir=None,
        max_graphs: int | None = 8,
        memory_budget_mb: float | None = None,
        max_concurrent_queries: int = 4,
        max_body_bytes: int = DEFAULT_MAX_BODY,
        ledger_path=None,
        ledger_flush_every: int = DEFAULT_LEDGER_FLUSH,
        executor_workers: int | None = None,
        wal_dir=None,
        wal: ServiceWAL | None = None,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        max_request_seconds: float | None = DEFAULT_MAX_REQUEST_SECONDS,
        idle_timeout_seconds: float | None = DEFAULT_IDLE_TIMEOUT,
        drain_grace_seconds: float = DEFAULT_DRAIN_GRACE,
        idempotency_capacity: int = DEFAULT_IDEMPOTENCY_CAPACITY,
    ) -> None:
        if max_concurrent_queries < 1:
            raise ValueError("max_concurrent_queries must be >= 1")
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self._wal = wal if wal is not None else (
            ServiceWAL(wal_dir) if wal_dir is not None else None
        )
        if session is None:
            if cache_dir is None and self._wal is not None:
                # Overlap state spills under the WAL by default, so a
                # recovered service rebuilds indexes store-warm.
                cache_dir = self._wal.dir / "store"
            session = api.Session(
                options=options,
                store=SimilarityStore(cache_dir=cache_dir),
            )
        elif self._wal is not None and session.store is not None:
            session.store.attach_dir(self._wal.dir / "store")
        self.session = session
        self.registry = GraphRegistry(
            max_graphs=max_graphs,
            memory_budget_bytes=(
                int(memory_budget_mb * 1024 * 1024)
                if memory_budget_mb is not None
                else None
            ),
        )
        self.max_concurrent_queries = max_concurrent_queries
        self.max_body_bytes = max_body_bytes
        self.snapshot_every = int(snapshot_every)
        self.max_request_seconds = (
            float(max_request_seconds)
            if max_request_seconds is not None
            else None
        )
        self.idle_timeout_seconds = (
            float(idle_timeout_seconds)
            if idle_timeout_seconds is not None and idle_timeout_seconds > 0
            else None
        )
        self.drain_grace_seconds = float(drain_grace_seconds)
        self.idempotency_capacity = int(idempotency_capacity)
        self.counters: dict[str, int] = {name: 0 for name in _COUNTER_NAMES}
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._heavy = 0
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers or max_concurrent_queries,
            thread_name_prefix="repro-service",
        )
        #: Single lane for WAL I/O: appends serialize in commit order
        #: without blocking the event loop.
        self._wal_executor = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-wal")
            if self._wal is not None
            else None
        )
        self._ledger = None
        self._ledger_flush_every = max(1, int(ledger_flush_every))
        if ledger_path is not None:
            from ..obs.ledger import RunLedger

            self._ledger = RunLedger(ledger_path)
        self._pending: list[tuple[str, float]] = []
        self._batch_coalesced = 0
        self._batch_rejected = 0
        self._lane_ids = itertools.count(1)
        #: Per-handle serialization of update batches (see _updates):
        #: batches against one graph apply in arrival order, never
        #: concurrently — the streaming engine is not thread-safe.
        self._update_locks: dict[int, asyncio.Lock] = {}
        self._update_seq = itertools.count(1)
        #: Idempotency-Key → original response payload (bounded FIFO),
        #: plus the in-flight task per key so a concurrent duplicate
        #: awaits the first application instead of re-applying.
        self._idempotency: OrderedDict[str, dict] = OrderedDict()
        self._idempotent_inflight: dict[str, asyncio.Task] = {}
        #: Mutation/compaction reader-writer latch: mutations (submit /
        #: update / delete WAL transactions) run concurrently, a
        #: compaction runs exclusively so its snapshot can never observe
        #: an applied-but-unlogged batch.
        self._mutation_cv = asyncio.Condition()
        self._mutants = 0
        self._compacting = False
        self._appends_since_snapshot = 0
        self._compact_task: asyncio.Task | None = None
        self._background: set[asyncio.Task] = set()
        self._state = "idle"
        self._active_requests = 0
        self._connections: set[asyncio.StreamWriter] = set()
        self.recovery_report = None
        self._drain_summary: dict | None = None
        self._server: asyncio.AbstractServer | None = None
        self._started = time.time()

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int | None:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    @property
    def state(self) -> str:
        """``idle`` / ``recovering`` / ``serving`` / ``draining``."""
        return self._state

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.AbstractServer:
        """Bind, recover durable state (if a WAL is attached), serve.

        The socket binds *before* recovery so ``/healthz`` and
        ``/readyz`` answer (``recovering``) while the snapshot + WAL
        tail replay in the executor; every other route gets a structured
        503 until the state machine reaches ``serving``.
        """
        if self._server is not None:
            raise RuntimeError("service already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        if self._wal is not None:
            self._state = "recovering"
            from .recovery import recover

            loop = asyncio.get_running_loop()
            report, idempotency = await loop.run_in_executor(
                self._executor,
                lambda: recover(
                    self._wal, session=self.session, registry=self.registry
                ),
            )
            self.recovery_report = report
            for key, payload in idempotency.items():
                self._store_idempotent(key, payload)
            self._record_service_event(
                "recovery",
                wall_seconds=report.wall_seconds,
                metrics={
                    "service.recovery.records_replayed": report.records_replayed,
                    "service.recovery.updates_replayed": report.updates_replayed,
                    "service.recovery.graphs": len(report.fingerprints),
                    "service.recovery.warm_points": report.warm_points,
                    "service.recovery.skipped_lines": report.skipped_lines,
                    "service.recovery.wall_seconds": report.wall_seconds,
                },
            )
        if self._state in ("idle", "recovering"):
            self._state = "serving"
        return self._server

    async def drain(self, *, grace_seconds: float | None = None) -> dict:
        """Graceful shutdown: stop accepting, let in-flight work finish
        (or force-close it after the grace period), write the final
        snapshot + ledger flush.

        Returns a JSON-able summary.  New requests arriving on live
        keep-alive connections during the drain get a structured 503
        with ``Connection: close``; idempotent on repeat calls.
        """
        if self._state == "draining":
            return dict(self._drain_summary or {"state": "draining"})
        grace = (
            self.drain_grace_seconds
            if grace_seconds is None
            else float(grace_seconds)
        )
        self._state = "draining"
        inflight_at_drain = self._active_requests
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + grace
        while self._active_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        forced = self._active_requests
        for writer in list(self._connections):
            writer.close()
        # Wait for any in-flight compaction, then take the final one.
        if self._compact_task is not None and not self._compact_task.done():
            with contextlib.suppress(Exception):
                await self._compact_task
        snapshot_written = False
        if self._wal is not None:
            await self._compact(force=True)
            snapshot_written = True
        elif self.session.store is not None:
            self.session.store.spill()
        summary = {
            "drained_inflight": inflight_at_drain,
            "forced_requests": forced,
            "snapshot_written": snapshot_written,
            "final_lsn": self._wal.lsn if self._wal is not None else None,
        }
        self._drain_summary = summary
        self._record_service_event(
            "drain",
            metrics={
                "service.drain.inflight": inflight_at_drain,
                "service.drain.forced": forced,
                "service.drain.snapshot_written": int(snapshot_written),
            },
        )
        self._flush_ledger(force=True)
        return summary

    async def stop(self) -> None:
        """Stop accepting, flush the ledger, and release the executors."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._flush_ledger(force=True)
        if self.session.store is not None:
            self.session.store.spill()
        self._executor.shutdown(wait=True)
        if self._wal_executor is not None:
            self._wal_executor.shutdown(wait=True)

    async def serve_forever(
        self, host: str = "127.0.0.1", port: int = 8321
    ) -> None:
        """Convenience loop for the CLI: serve until cancelled."""
        server = await self.start(host, port)
        try:
            await server.serve_forever()
        finally:
            await self.stop()

    def _record_service_event(
        self, event: str, *, wall_seconds: float | None = None, metrics=None
    ) -> None:
        """Append one ``kind="service"`` lifecycle record immediately
        (restarts and drains must be visible in ``repro-scan history``
        even when the query batch buffer never fills)."""
        if self._ledger is None:
            return
        from ..obs.ledger import build_record

        workload = {"service": event}
        if self._wal is not None:
            workload["wal_dir"] = str(self._wal.dir)
        record = build_record(
            "service",
            workload=workload,
            wall_seconds=wall_seconds,
            metrics=metrics,
        )
        try:
            self._ledger.append(record)
        except OSError:  # pragma: no cover - ledger disk trouble
            pass  # telemetry must never take the service down

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    if self.idle_timeout_seconds is None:
                        request = await read_request(
                            reader, max_body=self.max_body_bytes
                        )
                    elif _timeout is not None:
                        # A deadline on the current task: no extra task
                        # per request, unlike wait_for on Python < 3.12.
                        async with _timeout(self.idle_timeout_seconds):
                            request = await read_request(
                                reader, max_body=self.max_body_bytes
                            )
                    else:
                        request = await asyncio.wait_for(
                            read_request(reader, max_body=self.max_body_bytes),
                            self.idle_timeout_seconds,
                        )
                except asyncio.TimeoutError:
                    # Idle (or glacially slow) peer: reclaim the slot.
                    self.counters["idle_closed"] += 1
                    tracer = current_tracer()
                    if tracer.enabled:
                        tracer.count("service.idle_closed", 1)
                    break
                except HTTPError as exc:
                    # Framing is broken; answer once and hang up.
                    writer.write(
                        response_bytes(
                            exc.status,
                            {"error": exc.message},
                            extra_headers=exc.headers,
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                status, payload, headers = await self._respond(request)
                # A draining service finishes this response, then closes.
                keep_alive = request.keep_alive and self._state != "draining"
                writer.write(
                    response_bytes(
                        status,
                        payload,
                        extra_headers=headers,
                        keep_alive=keep_alive,
                    )
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away; nothing to answer
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionError,
                OSError,
                asyncio.CancelledError,
            ):  # pragma: no cover - shutdown/peer races
                # CancelledError lands here when the loop shuts down
                # mid-close; the handler has nothing left to do, and
                # letting it escape makes streams' connection callback
                # log a spurious traceback.
                pass

    async def _respond(
        self, request
    ) -> tuple[int, dict | bytes, dict[str, str]]:
        """Dispatch one request, mapping every failure to a JSON error."""
        self.counters["requests"] += 1
        self._active_requests += 1
        t0 = time.perf_counter()
        status, payload, headers = 500, {"error": "unhandled"}, {}
        try:
            status, payload, headers = await self._dispatch(request)
        except HTTPError as exc:
            if exc.status not in (429, 503):
                # Rejections and lifecycle 503s are counted separately.
                self.counters["errors"] += 1
            status, payload, headers = (
                exc.status,
                {"error": exc.message},
                exc.headers,
            )
        except ResumeMismatchError as exc:
            self.counters["errors"] += 1
            status, payload = 409, {"error": str(exc)}
        except ExecutionFaultError as exc:
            self.counters["errors"] += 1
            status, payload = 503, {
                "error": "execution fault",
                "detail": str(exc),
            }
            headers = {"Retry-After": "5"}
        except (ValueError, KeyError) as exc:
            self.counters["errors"] += 1
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - the service must answer
            self.counters["errors"] += 1
            status, payload = 500, {
                "error": f"{type(exc).__name__}: {exc}"
            }
        finally:
            self._active_requests -= 1
            tracer = current_tracer()
            if tracer.enabled:
                # Requests overlap freely, so each records as its own
                # already-timed interval on a private lane instead of
                # nesting on the (strictly stacked) ambient lanes.
                tracer.add_span(
                    "service:request",
                    t0,
                    time.perf_counter(),
                    lane=next(self._lane_ids),
                    method=request.method,
                    path=request.path,
                    status=status,
                )
                tracer.count("service.requests", 1)
                tracer.count(f"service.status.{status // 100}xx", 1)
        return status, payload, headers

    # -- routing --------------------------------------------------------

    def _readyz(self) -> tuple[int, dict, dict[str, str]]:
        ready = self._state == "serving"
        payload = {
            "state": self._state,
            "ready": ready,
            "uptime_seconds": time.time() - self._started,
        }
        if self.recovery_report is not None:
            payload["recovery"] = {
                "records_replayed": self.recovery_report.records_replayed,
                "graphs_restored": len(self.recovery_report.fingerprints),
                "wall_seconds": self.recovery_report.wall_seconds,
            }
        if ready:
            return 200, payload, {}
        return 503, payload, {"Retry-After": "1"}

    async def _dispatch(
        self, request
    ) -> tuple[int, dict | bytes, dict[str, str]]:
        parts = request.path_parts
        method = request.method
        if parts == ["healthz"] and method == "GET":
            return 200, {
                "status": "ok",
                "state": self._state,
                "uptime_seconds": time.time() - self._started,
            }, {}
        if parts == ["readyz"] and method == "GET":
            return self._readyz()
        if self._state != "serving" and not (
            parts == ["stats"] and self._state == "draining"
        ):
            self.counters["unready_rejected"] += 1
            raise HTTPError(
                503,
                f"service is {self._state}; "
                + (
                    "retry once recovery finishes"
                    if self._state == "recovering"
                    else "this instance is shutting down"
                ),
                headers={"Retry-After": "1"},
            )
        if parts == ["stats"] and method == "GET":
            return 200, self.stats(), {}
        if parts == ["admin", "compact"] and method == "POST":
            return await self._admin_compact()
        if parts == ["graphs"]:
            if method == "GET":
                return (
                    200,
                    {"graphs": [h.stats() for h in self.registry]},
                    {},
                )
            if method == "POST":
                return await self._submit(request)
            raise HTTPError(405, f"{method} not allowed on /graphs")
        if len(parts) >= 2 and parts[0] == "graphs":
            fingerprint = parts[1]
            if len(parts) == 2:
                if method == "GET":
                    return 200, self._handle_for(fingerprint).stats(), {}
                if method == "DELETE":
                    return await self._unload(fingerprint)
                raise HTTPError(405, f"{method} not allowed here")
            action = parts[2]
            if action == "cluster" and len(parts) == 3 and method == "GET":
                return await self._cluster(request, fingerprint)
            if action == "vertex" and len(parts) == 4 and method == "GET":
                return await self._vertex(request, fingerprint, parts[3])
            if action == "sweep" and len(parts) == 3 and method == "POST":
                return await self._sweep(request, fingerprint)
            if action == "updates" and len(parts) == 3 and method == "POST":
                return await self._updates(request, fingerprint)
        raise HTTPError(404, f"no route for {method} {request.path}")

    # -- helpers --------------------------------------------------------

    def _handle_for(self, fingerprint: str):
        handle = self.registry.get(fingerprint)
        if handle is None:
            raise HTTPError(
                404,
                f"no graph loaded with fingerprint {fingerprint!r}; "
                "POST /graphs to (re)submit it",
            )
        return handle

    @staticmethod
    def _parse_params(query: dict[str, str]) -> ScanParams:
        try:
            eps = float(query["eps"])
            mu = int(query["mu"])
        except KeyError as exc:
            raise HTTPError(
                400, f"missing query parameter {exc.args[0]!r}"
            ) from None
        except ValueError as exc:
            raise HTTPError(400, f"malformed parameter: {exc}") from None
        try:
            return ScanParams(eps, mu)
        except ValueError as exc:
            raise HTTPError(400, str(exc)) from None

    def _deadline_of(self, request) -> float | None:
        """The effective deadline: ``timeout=`` clamped to the server
        maximum (absent → the server maximum itself)."""
        raw = request.query.get("timeout")
        if raw is None:
            return self.max_request_seconds
        try:
            seconds = float(raw)
        except ValueError:
            raise HTTPError(
                400, f"malformed timeout parameter {raw!r}"
            ) from None
        if seconds <= 0:
            raise HTTPError(400, "timeout must be > 0 seconds")
        if self.max_request_seconds is not None:
            return min(seconds, self.max_request_seconds)
        return seconds

    async def _await_deadline(self, awaitable, deadline: float | None):
        """Await shielded work under a deadline.

        On expiry the *request* gets a structured 504 while the
        underlying future keeps running — a cold query still warms the
        memo for the retry, an update transaction still commits (its
        retry is answered by the idempotency replay).
        """
        if deadline is None:
            return await asyncio.shield(awaitable)
        try:
            return await asyncio.wait_for(asyncio.shield(awaitable), deadline)
        except asyncio.TimeoutError:
            self.counters["timeouts"] += 1
            tracer = current_tracer()
            if tracer.enabled:
                tracer.count("service.timeouts", 1)
            raise HTTPError(
                504,
                f"deadline of {deadline:g}s exceeded; the operation "
                "continues server-side — retry to pick up its result",
                headers={"Retry-After": "1"},
            ) from None

    async def _run_heavy(
        self, key: tuple, work: Callable, *, deadline: float | None = None
    ):
        """Run ``work`` in the executor under coalescing + admission.

        Identical in-flight ``key``\\ s share one future (followers do not
        count against the concurrency limit); a fresh heavy operation
        beyond ``max_concurrent_queries`` is rejected with 429 and a
        ``Retry-After`` hint instead of queueing.  The work itself is
        deadline-immune (see :meth:`_await_deadline`).
        """
        existing = self._inflight.get(key)
        tracer = current_tracer()
        if existing is not None:
            self.counters["coalesced"] += 1
            self._batch_coalesced += 1
            if tracer.enabled:
                tracer.count("service.coalesced", 1)
            return await self._await_deadline(existing, deadline)
        if self._heavy >= self.max_concurrent_queries:
            self.counters["rejected"] += 1
            self._batch_rejected += 1
            if tracer.enabled:
                tracer.count("service.rejected", 1)
            raise HTTPError(
                429,
                "server is at its concurrent heavy-query limit "
                f"({self.max_concurrent_queries}); retry shortly",
                headers={"Retry-After": "1"},
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        self._heavy += 1

        async def runner():
            try:
                result = await loop.run_in_executor(self._executor, work)
            except BaseException as exc:
                if not future.done():
                    future.set_exception(exc)
                    future.exception()  # consumed: awaiters re-raise a copy
                if isinstance(exc, asyncio.CancelledError):
                    raise
            else:
                if not future.done():
                    future.set_result(result)
            finally:
                self._heavy -= 1
                self._inflight.pop(key, None)

        self._spawn(runner())
        return await self._await_deadline(future, deadline)

    def _spawn(self, coro) -> asyncio.Task:
        """Track a background task (strong ref + consumed exceptions)."""
        task = asyncio.get_running_loop().create_task(coro)
        self._background.add(task)

        def _done(t: asyncio.Task) -> None:
            self._background.discard(t)
            if not t.cancelled():
                t.exception()  # consumed; failures surface via futures

        task.add_done_callback(_done)
        return task

    # -- mutation / compaction latch ------------------------------------

    @contextlib.asynccontextmanager
    async def _mutation(self):
        """Shared side of the latch: WAL-coupled mutations (apply →
        append → re-key) run concurrently with each other but never
        overlap a compaction, whose snapshot would otherwise record an
        applied-but-unlogged batch and double-apply it on replay."""
        async with self._mutation_cv:
            while self._compacting:
                await self._mutation_cv.wait()
            self._mutants += 1
        try:
            yield
        finally:
            async with self._mutation_cv:
                self._mutants -= 1
                self._mutation_cv.notify_all()

    @contextlib.asynccontextmanager
    async def _exclusive(self):
        """Writer side: drain in-flight mutations, block new ones."""
        async with self._mutation_cv:
            while self._compacting:
                await self._mutation_cv.wait()
            self._compacting = True
            while self._mutants:
                await self._mutation_cv.wait()
        try:
            yield
        finally:
            async with self._mutation_cv:
                self._compacting = False
                self._mutation_cv.notify_all()

    def _snapshot_state(self) -> tuple[dict, list]:
        """The compaction snapshot body and the ``(fingerprint, graph)``
        pairs it names, each from one published version (gathered on the
        event loop, under the exclusive latch: mutation-consistent)."""
        graphs, payloads = [], []
        for fingerprint in self.registry.fingerprints():
            handle = self.registry.peek(fingerprint)
            version = handle.version
            graphs.append(
                {
                    "fingerprint": fingerprint,
                    "label": handle.label,
                    "batches_applied": version.batches_applied,
                    "points": version.materialized_points(),
                }
            )
            payloads.append((fingerprint, version.graph))
        state = {"graphs": graphs, "idempotency": dict(self._idempotency)}
        return state, payloads

    def _schedule_compaction(self) -> None:
        if (
            self._wal is None
            or self._state != "serving"
            or self._appends_since_snapshot < self.snapshot_every
        ):
            return
        if self._compact_task is not None and not self._compact_task.done():
            return
        self._compact_task = self._spawn(self._compact())

    async def _compact(self, force: bool = False):
        """Snapshot-compact the WAL (no-op unless due or ``force``)."""
        if self._wal is None:
            return None
        if not force and self._appends_since_snapshot < self.snapshot_every:
            return None
        loop = asyncio.get_running_loop()
        async with self._exclusive():
            state, graphs = self._snapshot_state()

            def work():
                for fingerprint, graph in graphs:
                    self._wal.spill_graph(fingerprint, graph)
                if self.session.store is not None:
                    self.session.store.spill()
                snapshot = self._wal.compact(state)
                self._wal.prune_graphs({fp for fp, _ in graphs})
                return snapshot

            snapshot = await loop.run_in_executor(self._wal_executor, work)
            self._appends_since_snapshot = 0
            self.counters["compactions"] += 1
            return snapshot

    async def _admin_compact(self) -> tuple[int, dict, dict[str, str]]:
        if self._wal is None:
            raise HTTPError(
                400, "service has no WAL attached (start with --wal-dir)"
            )
        await self._compact(force=True)
        return 200, {"compacted": True, "wal": self._wal.stats()}, {}

    async def _wal_append(self, fn: Callable) -> None:
        """Run one WAL write on the dedicated WAL lane."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._wal_executor, fn)

    async def _log_evictions(self, evicted) -> None:
        if self._wal is None or not evicted:
            return
        fingerprints = [fp for fp, _ in evicted]

        def log():
            for fingerprint in fingerprints:
                self._wal.append("evict", fingerprint=fingerprint)

        await self._wal_append(log)
        self._appends_since_snapshot += len(fingerprints)

    async def _discard_handle(self, fingerprint: str, handle) -> None:
        """Release a handle's memory only once nothing references it.

        The loser of a destructive race (DELETE or LRU eviction vs
        in-flight work) gets a structured 404/409 — never a handle torn
        down mid-computation: updates serialize on the per-handle lock,
        and heavy work keyed on this fingerprint (cold queries, sweeps)
        finishes before :meth:`~repro.api.Session.discard` clears the
        handle's index and memo under it.
        """
        lock = self._update_locks.pop(id(handle), None)
        if lock is not None:
            async with lock:
                pass
        while any(
            len(key) > 1 and key[1] == fingerprint for key in self._inflight
        ):
            await asyncio.sleep(0.01)
        self.session.discard(handle)

    def _store_idempotent(self, key: str, payload: dict) -> None:
        self._idempotency[key] = payload
        self._idempotency.move_to_end(key)
        while len(self._idempotency) > self.idempotency_capacity:
            self._idempotency.popitem(last=False)

    def _observe(self, kind: str, seconds: float) -> None:
        """Record one served query's latency and maybe flush a ledger
        batch."""
        self._pending.append((kind, seconds))
        tracer = current_tracer()
        if tracer.enabled:
            tracer.observe(f"service.latency.{kind}", seconds)
        if len(self._pending) >= self._ledger_flush_every:
            self._flush_ledger()

    def _flush_ledger(self, force: bool = False) -> None:
        """Append one ``service`` record summarizing the pending batch."""
        if self._ledger is None or not self._pending:
            if force:
                self._pending.clear()
            return
        latencies = sorted(seconds for _, seconds in self._pending)
        kinds: dict[str, int] = {}
        for kind, _ in self._pending:
            kinds[kind] = kinds.get(kind, 0) + 1
        from ..obs.ledger import build_record

        record = build_record(
            "service",
            workload={
                "service": "query-batch",
                "graphs": self.registry.fingerprints(),
            },
            wall_seconds=float(sum(latencies)),
            metrics={
                "service.batch_queries": len(latencies),
                "service.p50_ms": _percentile(latencies, 0.50) * 1e3,
                "service.p95_ms": _percentile(latencies, 0.95) * 1e3,
                "service.max_ms": latencies[-1] * 1e3,
                "service.coalesced": self._batch_coalesced,
                "service.rejected": self._batch_rejected,
                **{f"service.kind.{k}": n for k, n in kinds.items()},
            },
        )
        try:
            self._ledger.append(record)
        except OSError:  # pragma: no cover - ledger disk trouble
            pass  # telemetry must never take the service down
        self._pending.clear()
        self._batch_coalesced = 0
        self._batch_rejected = 0

    # -- endpoint bodies ------------------------------------------------

    def _parse_graph_body(self, request) -> tuple[CSRGraph, str | None]:
        content_type = request.headers.get("content-type", "")
        label: str | None = None
        if "json" in content_type:
            payload = request.json()
            if not isinstance(payload, dict) or "edges" not in payload:
                raise HTTPError(
                    400, 'JSON graph body must be {"edges": [[u, v], ...]}'
                )
            label = payload.get("label")
            try:
                edges = np.asarray(
                    payload["edges"], dtype=np.int64
                ).reshape(-1, 2)
            except (TypeError, ValueError) as exc:
                raise HTTPError(
                    400, f"malformed edges array: {exc}"
                ) from None
        else:
            rows: list[tuple[int, int]] = []
            for lineno, line in enumerate(
                request.text().splitlines(), start=1
            ):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split()
                if len(fields) < 2:
                    raise HTTPError(
                        400, f"line {lineno}: malformed edge line {line!r}"
                    )
                try:
                    rows.append((int(fields[0]), int(fields[1])))
                except ValueError:
                    raise HTTPError(
                        400,
                        f"line {lineno}: non-integer vertex id in {line!r}",
                    ) from None
            edges = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
        if edges.size == 0:
            raise HTTPError(400, "graph body contains no edges")
        if edges.min() < 0:
            raise HTTPError(400, "negative vertex id in edges")
        return from_edge_array(edges), label

    async def _submit(self, request) -> tuple[int, dict, dict[str, str]]:
        graph, label = self._parse_graph_body(request)
        deadline = self._deadline_of(request)
        # The whole transaction (fingerprint → build → WAL → registry)
        # runs shielded: a client that times out gets its 504 while the
        # submission still completes and logs — its retry answers
        # ``already_loaded`` instead of rebuilding.
        task = self._spawn(self._submit_txn(graph, label))
        return await self._await_deadline(task, deadline)

    async def _submit_txn(
        self, graph: CSRGraph, label: str | None
    ) -> tuple[int, dict, dict[str, str]]:
        loop = asyncio.get_running_loop()
        fingerprint = await loop.run_in_executor(
            self._executor, graph_fingerprint, graph
        )
        existing = self.registry.get(fingerprint)
        if existing is not None:
            return (
                200,
                {**existing.stats(), "already_loaded": True},
                {},
            )
        t0 = time.perf_counter()

        def build():
            handle = self.session.open(
                graph, label=label, fingerprint=fingerprint
            )
            handle.ensure_index()
            return handle

        handle = await self._run_heavy(("submit", fingerprint), build)
        build_seconds = time.perf_counter() - t0
        if fingerprint not in self.registry:
            async with self._mutation():
                if self._wal is not None:
                    # Payload before record, record before ack: a valid
                    # submit line always has its graph on disk, and an
                    # unlogged submission was never acknowledged.
                    def log():
                        self._wal.spill_graph(fingerprint, graph)
                        self._wal.append(
                            "submit", fingerprint=fingerprint, label=label
                        )

                    await self._wal_append(log)
                    self._appends_since_snapshot += 1
                evicted = self.registry.put(fingerprint, handle)
                await self._log_evictions(evicted)
                for old_fp, old in evicted:
                    self._spawn(self._discard_handle(old_fp, old))
                self.counters["evictions"] += len(evicted)
                self.counters["submissions"] += 1
            tracer = current_tracer()
            if tracer.enabled:
                tracer.count("service.submissions", 1)
                tracer.count("service.evictions", len(evicted))
            self._schedule_compaction()
        self._observe("submit", build_seconds)
        return (
            201,
            {
                **handle.stats(),
                "index_build_seconds": build_seconds,
                "already_loaded": False,
            },
            {},
        )

    async def _unload(
        self, fingerprint: str
    ) -> tuple[int, dict, dict[str, str]]:
        handle = self.registry.peek(fingerprint)
        if handle is None:
            raise HTTPError(404, f"no graph {fingerprint!r} to unload")
        # Let an in-flight update batch finish (the per-handle lock
        # serializes us behind it), then re-validate: the update may
        # have re-keyed the graph, or a concurrent DELETE may have won.
        lock = self._update_locks.setdefault(id(handle), asyncio.Lock())
        async with lock:
            if self.registry.peek(fingerprint) is not handle:
                raise HTTPError(
                    404,
                    f"graph {fingerprint!r} was re-keyed or unloaded "
                    "while this delete waited; re-fetch /graphs",
                )
            async with self._mutation():
                if self._wal is not None:
                    await self._wal_append(
                        lambda: self._wal.append(
                            "delete", fingerprint=fingerprint
                        )
                    )
                    self._appends_since_snapshot += 1
                self.registry.pop(fingerprint)
        self._spawn(self._discard_handle(fingerprint, handle))
        self._schedule_compaction()
        return 200, {"fingerprint": fingerprint, "unloaded": True}, {}

    async def _updates(
        self, request, fingerprint: str
    ) -> tuple[int, dict, dict[str, str]]:
        deadline = self._deadline_of(request)
        idem_key = request.headers.get("idempotency-key") or None
        if idem_key is not None:
            cached = self._idempotency.get(idem_key)
            if cached is not None:
                return self._replay_idempotent(cached)
            running = self._idempotent_inflight.get(idem_key)
            if running is not None:
                # Concurrent duplicate: await the first application.
                payload = await self._await_deadline(running, deadline)
                return self._replay_idempotent(payload)
        handle = self._handle_for(fingerprint)
        payload = request.json()
        if not isinstance(payload, dict):
            raise HTTPError(
                400,
                'updates body must be {"insert": [[u, v], ...], '
                '"remove": [[u, v], ...]} or {"edits": [["+", u, v], ...]}',
            )
        from ..streaming import EditBatch

        try:
            source = payload["edits"] if "edits" in payload else payload
            batch = EditBatch.coerce(source)
        except (TypeError, ValueError) as exc:
            raise HTTPError(400, f"malformed updates body: {exc}") from None
        if not len(batch):
            raise HTTPError(400, "updates body contains no edits")
        self.counters["updates"] += 1
        # The transaction (apply → WAL append → re-key → idempotency
        # store) runs shielded from this request's deadline: once the
        # batch is applied it MUST be logged and acknowledged-able, so a
        # timed-out client's retry replays the original result instead
        # of double-applying.
        task = self._spawn(
            self._update_txn(fingerprint, handle, batch, idem_key)
        )
        if idem_key is not None:
            self._idempotent_inflight[idem_key] = task
            task.add_done_callback(
                lambda t, k=idem_key: self._idempotent_inflight.pop(k, None)
            )
        out = await self._await_deadline(task, deadline)
        return 200, out, {}

    def _replay_idempotent(
        self, payload: dict
    ) -> tuple[int, dict, dict[str, str]]:
        self.counters["idempotent_replays"] += 1
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("service.idempotent_replays", 1)
        return (
            200,
            {**payload, "idempotent_replay": True},
            {"Idempotency-Replayed": "true"},
        )

    async def _update_txn(
        self, fingerprint: str, handle, batch, idem_key: str | None
    ) -> dict:
        t0 = time.perf_counter()
        lock = self._update_locks.setdefault(id(handle), asyncio.Lock())
        async with lock:
            # The graph may have been deleted or re-keyed by a batch
            # that held the lock before us (destructive race): answer a
            # structured conflict, never mutate a dangling handle.
            if self.registry.peek(fingerprint) is not handle:
                raise HTTPError(
                    409,
                    f"graph {fingerprint!r} was unloaded or re-keyed "
                    "while this update waited; re-fetch /graphs and "
                    "retry against the current fingerprint",
                )
            async with self._mutation():
                # Unique key per request: distinct batches must never
                # coalesce (they are different mutations); the
                # per-handle lock serializes them instead.
                key = ("updates", fingerprint, next(self._update_seq))
                try:
                    report = await self._run_heavy(
                        key, lambda: handle.apply_updates(batch)
                    )
                except IndexError as exc:
                    raise HTTPError(400, str(exc)) from None
                if self.registry.peek(fingerprint) is not handle:
                    # Evicted while the batch applied: the mutated
                    # handle is unreachable and must NOT be logged — a
                    # WAL record chaining from an already-evicted
                    # fingerprint would fail replay.  The client retries
                    # after resubmitting.
                    raise HTTPError(
                        409,
                        f"graph {fingerprint!r} was evicted while the "
                        "batch applied; the mutation was not committed "
                        "— resubmit the graph and retry",
                    )
                seconds = time.perf_counter() - t0
                out = report.as_dict()
                out.update(
                    {
                        "previous_fingerprint": fingerprint,
                        "warm_points": len(handle.version.results),
                        "request_seconds": seconds,
                    }
                )
                if self._wal is not None:
                    triples = batch.as_triples()

                    def log():
                        self._wal.append(
                            "update",
                            old_fp=fingerprint,
                            new_fp=report.fingerprint,
                            idempotency_key=idem_key,
                            edits=triples,
                            response=out,
                        )

                    await self._wal_append(log)
                    self._appends_since_snapshot += 1
                # Re-key: the handle answers to its new fingerprint.
                if (
                    report.fingerprint != fingerprint
                    and fingerprint in self.registry
                ):
                    moved = self.registry.pop(fingerprint)
                    if moved is not None:
                        evicted = self.registry.put(
                            report.fingerprint, moved
                        )
                        await self._log_evictions(evicted)
                        for old_fp, old in evicted:
                            self._spawn(self._discard_handle(old_fp, old))
                        self.counters["evictions"] += len(evicted)
                if idem_key is not None:
                    self._store_idempotent(idem_key, out)
        self._observe("updates", seconds)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("service.updates", 1)
        self._schedule_compaction()
        return out

    async def _cluster(
        self, request, fingerprint: str
    ) -> tuple[int, dict | bytes, dict[str, str]]:
        handle = self._handle_for(fingerprint)
        params = self._parse_params(request.query)
        deadline = self._deadline_of(request)
        algorithm = request.query.get("algorithm")
        if algorithm is not None and algorithm not in api.available_algorithms():
            known = ", ".join(api.available_algorithms())
            raise HTTPError(
                400, f"unknown algorithm {algorithm!r}; known: {known}"
            )
        include_labels = request.query.get("include") == "labels"
        self.counters["queries"] += 1
        t0 = time.perf_counter()
        result = None
        warm = False
        if algorithm is None:
            result = handle.lookup(params)
            warm = result is not None
        if result is None:
            key = ("cluster", fingerprint, *params.point_key, algorithm)
            result = await self._run_heavy(
                key,
                lambda: handle.cluster(params, algorithm=algorithm),
                deadline=deadline,
            )
            self.counters["cold_queries"] += 1
        else:
            self.counters["warm_hits"] += 1
        seconds = time.perf_counter() - t0
        self._observe("cluster", seconds)
        num_clusters, num_cores, num_vertices = handle.counts(result)
        payload = {
            "fingerprint": fingerprint,
            "eps": float(params.eps),
            "mu": int(params.mu),
            "algorithm": algorithm or "gsindex",
            "num_clusters": num_clusters,
            "num_cores": num_cores,
            "num_vertices": num_vertices,
            "warm": warm,
            "wall_seconds": seconds,
        }
        if include_labels:
            # The label lists dominate the body: encoded once per version
            # and point, spliced beside the per-request fields.
            return 200, json_body(payload, handle.encoded_labels(result)), {}
        return 200, payload, {}

    async def _vertex(
        self, request, fingerprint: str, vertex: str
    ) -> tuple[int, dict, dict[str, str]]:
        handle = self._handle_for(fingerprint)
        params = self._parse_params(request.query)
        deadline = self._deadline_of(request)
        try:
            v = int(vertex)
        except ValueError:
            raise HTTPError(400, f"malformed vertex id {vertex!r}") from None
        if not 0 <= v < handle.graph.num_vertices:
            raise HTTPError(
                404,
                f"vertex {v} out of range "
                f"[0, {handle.graph.num_vertices})",
            )
        self.counters["queries"] += 1
        self.counters["vertex_lookups"] += 1
        t0 = time.perf_counter()
        # A memoized view answers on the loop: no executor hop, no
        # admission check.
        view = handle.lookup_vertex(v, params)
        if view is None:
            key = ("vertex", fingerprint, *params.point_key)
            # The classification pass (not the individual lookup) is the
            # heavy part; coalesce per parameter point, then read the view.
            view = await self._run_heavy(
                key, lambda: handle.vertex(v, params), deadline=deadline
            )
            if view.vertex != v:
                # A coalesced follower shared the leader's classification
                # warm-up; its own read is now a pure memo hit.
                view = handle.vertex(v, params)
        seconds = time.perf_counter() - t0
        self._observe("vertex", seconds)
        return (
            200,
            {
                "fingerprint": fingerprint,
                **view.as_dict(),
                "wall_seconds": seconds,
            },
            {},
        )

    async def _sweep(
        self, request, fingerprint: str
    ) -> tuple[int, dict, dict[str, str]]:
        handle = self._handle_for(fingerprint)
        deadline = self._deadline_of(request)
        payload = request.json()
        if not isinstance(payload, dict):
            raise HTTPError(400, 'sweep body must be {"eps": [...], "mu": [...]}')
        try:
            eps_values = [float(x) for x in payload["eps"]]
            mu_values = [int(x) for x in payload["mu"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise HTTPError(
                400, f'malformed sweep grid ({exc}); expected '
                '{"eps": [...], "mu": [...]}'
            ) from None
        if not eps_values or not mu_values:
            raise HTTPError(400, "sweep grid must be non-empty")
        algorithm = payload.get("algorithm", "ppscan")
        if algorithm not in api.available_algorithms():
            known = ", ".join(api.available_algorithms())
            raise HTTPError(
                400, f"unknown algorithm {algorithm!r}; known: {known}"
            )
        self.counters["queries"] += 1
        self.counters["sweeps"] += 1
        t0 = time.perf_counter()
        key = (
            "sweep",
            fingerprint,
            tuple(sorted(eps_values)),
            tuple(sorted(mu_values)),
            algorithm,
        )
        outcome = await self._run_heavy(
            key,
            lambda: handle.sweep(eps_values, mu_values, algorithm=algorithm),
            deadline=deadline,
        )
        seconds = time.perf_counter() - t0
        self._observe("sweep", seconds)
        return (
            200,
            {
                "fingerprint": fingerprint,
                "algorithm": algorithm,
                "wall_seconds": seconds,
                "reuse_fraction": outcome.stats.reuse_fraction,
                "points": [
                    {
                        "eps": p.eps,
                        "mu": p.mu,
                        "num_clusters": p.result.num_clusters,
                        "num_cores": p.result.num_cores,
                        "reuse_fraction": p.reuse_fraction,
                        "wall_seconds": p.wall_seconds,
                    }
                    for p in outcome.points
                ],
            },
            {},
        )

    # -- introspection --------------------------------------------------

    def stats(self) -> dict:
        """The ``/stats`` payload: counters, registry and store state."""
        queries = self.counters["queries"]
        warm = self.counters["warm_hits"]
        store = self.session.store
        out = {
            "state": self._state,
            "counters": dict(self.counters),
            "inflight": len(self._inflight),
            "heavy_running": self._heavy,
            "active_requests": self._active_requests,
            "connections": len(self._connections),
            "max_concurrent_queries": self.max_concurrent_queries,
            "warm_hit_rate": warm / queries if queries else 0.0,
            "coalescing_hits": self.counters["coalesced"],
            "registry": self.registry.stats(),
            "idempotency_keys": len(self._idempotency),
            "uptime_seconds": time.time() - self._started,
        }
        if store is not None:
            cache = store.stats()
            out["store"] = {
                "hits": cache.hits,
                "misses": cache.misses,
                "reuse_fraction": cache.reuse_fraction,
            }
        if self._wal is not None:
            out["wal"] = self._wal.stats()
            if self.recovery_report is not None:
                out["wal"]["recovery"] = self.recovery_report.as_dict()
        return out
