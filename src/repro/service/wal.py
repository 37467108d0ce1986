"""The service write-ahead log: durable submissions and edit batches.

The always-on service (:mod:`repro.service.server`) is RAM-resident by
construction — every submitted graph and applied edit batch lives in
the :class:`~repro.service.registry.GraphRegistry`.  The WAL is what
makes that state survive ``kill -9``: before a mutation is
*acknowledged* to the client, it is durably on disk here, and on
startup :mod:`repro.service.recovery` replays it back bit-identically.

Layout (one directory per service)::

    <wal_dir>/wal.jsonl            the log: one checksummed record/line
    <wal_dir>/wal.manifest.json    advisory tail manifest (never load-bearing)
    <wal_dir>/snapshot.json        latest compaction snapshot (atomic)
    <wal_dir>/graphs/<fp>.bin      spilled CSR payloads (binary CSR format)
    <wal_dir>/store/               the SimilarityStore disk layer (default)

The log is a schema over
:class:`~repro.checkpoint.jsonlog.ChecksummedLog`, the checksummed
append-only JSONL log the run ledger also writes:

* every line carries its own ``crc``, so a reader validates each line
  independently;
* appends ``fsync`` the line before returning, and the next append
  first repairs a torn tail so a crash mid-append can never fuse two
  records;
* torn / corrupt / undecodable / foreign-schema lines are a **clean
  skip**, counted in :attr:`ServiceWAL.last_skipped`.

Every record carries a monotone ``lsn`` (log sequence number) that
keeps increasing **across compactions**: a compaction snapshot records
the highest lsn it covers, the log file is truncated, and replay
filters any stale record with ``lsn <= snapshot.lsn`` — which is
exactly the window a crash between snapshot-replace and log-truncate
leaves behind.

Operations logged
-----------------
``submit``   fingerprint + label; the CSR payload is spilled to
             ``graphs/<fp>.bin`` *before* the record is appended, so a
             valid submit record always has its payload.
``update``   the fingerprint chain ``old_fp → new_fp``, the ordered
             edit triples, the client's idempotency key and the
             response summary — enough to re-apply the batch exactly
             and to answer a duplicate retry without re-applying.
``delete``   explicit ``DELETE /graphs/{fp}``.
``evict``    an LRU eviction; logged so replay removes the same victim
             the live registry chose (recency is shaped by unlogged
             queries, so replay cannot re-derive it).

Crash points
------------
The WAL fires the ``wal:`` sites of
:class:`~repro.parallel.chaos.CrashPoint` (armed via
``REPRO_CRASH="wal:<point>:<n>"``); the namespace keeps an armed WAL
site from firing in the run ledger or the checkpoint manager living in
the same process:

``wal:mid-append:<lsn>``    die with only a torn prefix of record
                            ``lsn`` on disk (the mutation must be
                            absent after recovery);
``wal:post-append:<lsn>``   die with record ``lsn`` durable but the
                            client never acknowledged (the mutation
                            must be present exactly once after
                            recovery);
``wal:mid-compact:<n>``     die during compaction ``n`` before the new
                            snapshot is visible (old snapshot + full
                            log);
``wal:post-compact:<n>``    die after the snapshot replace but before
                            the log truncation (new snapshot + stale
                            log — the lsn filter must drop every
                            replayed record).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Mapping

from ..checkpoint.atomic import (
    atomic_truncate,
    atomic_write_bytes,
    atomic_write_text,
)
from ..checkpoint.jsonlog import ChecksummedLog, is_sealed, seal, to_line
from ..graph.io import GraphFormatError, read_csr_binary, csr_to_bytes
from ..obs.tracer import current_tracer

__all__ = [
    "WAL_SCHEMA",
    "WAL_OPS",
    "ServiceWAL",
]

#: Record schema version; lines with any other version are clean skips.
WAL_SCHEMA = 1

#: The operations a record may carry (anything else is a clean skip).
WAL_OPS = ("submit", "update", "delete", "evict")


class ServiceWAL:
    """One service's write-ahead log directory.

    Thread-compatible the way the service uses it: every mutating call
    (:meth:`append`, :meth:`spill_graph`, :meth:`compact`) takes the
    internal lock, and the server additionally funnels them through a
    single-thread executor so appends land in acknowledgement order.
    """

    def __init__(self, wal_dir: str | os.PathLike, *, crash_point=None) -> None:
        self.dir = Path(wal_dir)
        self.log_path = self.dir / "wal.jsonl"
        self.snapshot_path = self.dir / "snapshot.json"
        self.graphs_dir = self.dir / "graphs"
        if crash_point is None:
            from ..parallel.chaos import CrashPoint

            crash_point = CrashPoint.from_env()
        self.crash_point = crash_point
        self._log = ChecksummedLog(
            self.log_path,
            self.dir / "wal.manifest.json",
            name="wal",
            crash_point=crash_point,
        )
        self._lock = threading.Lock()
        self.appends = 0
        snapshot = self.load_snapshot()
        self.compactions = (
            int(snapshot.get("compaction", 0)) if snapshot else 0
        )
        self._snapshot_lsn = int(snapshot["lsn"]) if snapshot else 0
        #: Highest assigned lsn; survives truncation via the snapshot.
        self.lsn = self._snapshot_lsn
        for record in self.read_records():
            self.lsn = max(self.lsn, int(record["lsn"]))

    @property
    def last_skipped(self) -> int:
        """Invalid lines dropped by the most recent :meth:`read_records`."""
        return self._log.last_skipped

    # -- reading ----------------------------------------------------------

    def read_records(self) -> list[dict[str, Any]]:
        """Every valid log record in file order; torn/corrupt lines are a
        clean skip counted in :attr:`last_skipped`."""
        return self._log.read(
            lambda r: r.get("schema") == WAL_SCHEMA
            and r.get("op") in WAL_OPS
            and isinstance(r.get("lsn"), int)
        )

    def replay_records(self) -> list[dict[str, Any]]:
        """The records recovery must replay on top of the snapshot:
        valid lines with ``lsn`` past the snapshot's coverage (stale
        pre-truncation leftovers are filtered out)."""
        base = self._snapshot_lsn
        return [r for r in self.read_records() if int(r["lsn"]) > base]

    def load_snapshot(self) -> dict[str, Any] | None:
        """The latest compaction snapshot, or ``None`` (missing/corrupt
        snapshots degrade to full-log replay, never to an error)."""
        try:
            snapshot = json.loads(self.snapshot_path.read_text("utf-8"))
        except (OSError, ValueError):
            return None
        if (
            not isinstance(snapshot, dict)
            or snapshot.get("schema") != WAL_SCHEMA
            or not isinstance(snapshot.get("lsn"), int)
        ):
            return None
        return snapshot if is_sealed(snapshot) else None

    def snapshot_lsn(self) -> int:
        """The highest lsn the latest compaction snapshot covers."""
        return self._snapshot_lsn

    # -- graph payloads ---------------------------------------------------

    def graph_path(self, fingerprint: str) -> Path:
        return self.graphs_dir / f"{fingerprint}.bin"

    def spill_graph(self, fingerprint: str, graph) -> Path:
        """Durably spill ``graph``'s CSR payload (idempotent per
        fingerprint — the payload is content-addressed)."""
        path = self.graph_path(fingerprint)
        if not path.exists():
            atomic_write_bytes(path, csr_to_bytes(graph))
        return path

    def load_graph(self, fingerprint: str):
        """Load a spilled payload, verifying its content fingerprint.

        Raises :class:`FileNotFoundError` when absent and
        :class:`~repro.graph.io.GraphFormatError` when the payload is
        corrupt or hashes to a different fingerprint — a logged
        submission whose payload cannot be restored is external damage
        recovery must fail-stop on, never serve wrong data over.
        """
        path = self.graph_path(fingerprint)
        if not path.exists():
            raise FileNotFoundError(
                f"WAL graph payload missing: {path}"
            )
        graph = read_csr_binary(path)
        from ..cache.store import graph_fingerprint

        actual = graph_fingerprint(graph)
        if actual != fingerprint:
            raise GraphFormatError(
                f"payload fingerprint {actual} != expected {fingerprint}",
                path=path,
            )
        return graph

    def prune_graphs(self, keep: set[str]) -> int:
        """Drop spilled payloads for fingerprints not in ``keep``.

        Called after a compaction: superseded graph versions are no
        longer reachable from the snapshot or the (truncated) log, so
        their payloads are garbage.  Returns how many were removed.
        """
        removed = 0
        if not self.graphs_dir.is_dir():
            return removed
        for path in self.graphs_dir.glob("*.bin"):
            if path.stem not in keep:
                try:
                    path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass
        return removed

    # -- writing ----------------------------------------------------------

    def append(self, op: str, **fields: Any) -> dict[str, Any]:
        """Durably append one record; returns the sealed copy.

        The record is stamped (``schema``, ``lsn``, ``ts_unix``,
        ``crc``) and appended with the armed
        :class:`~repro.parallel.chaos.CrashPoint` firing
        ``wal:mid-append`` with only a torn prefix on disk and
        ``wal:post-append`` once the line is fsynced — the two sides of
        the append-before-ack contract.
        """
        if op not in WAL_OPS:
            raise ValueError(f"unknown WAL op {op!r}; known: {WAL_OPS}")
        with self._lock:
            self.lsn += 1
            lsn = self.lsn
            record: dict[str, Any] = {
                "schema": WAL_SCHEMA,
                "lsn": lsn,
                "op": op,
                "ts_unix": int(time.time()),
                **fields,
            }
            t0 = time.perf_counter()
            sealed = self._log.append(record, lsn)
            self.appends += 1
            self._write_manifest()
            tracer = current_tracer()
            if tracer.enabled:
                tracer.add_span(
                    "wal:append",
                    t0,
                    time.perf_counter(),
                    op=op,
                    lsn=lsn,
                )
                tracer.count("wal.append", 1)
                tracer.count(f"wal.append.{op}", 1)
            self.crash_point.fire("wal:post-append", lsn)
            return sealed

    def compact(self, state: Mapping[str, Any]) -> dict[str, Any]:
        """Write a new snapshot covering everything up to the current
        lsn, then truncate the log.

        ``state`` is the server's registry/idempotency snapshot (see
        :meth:`ClusteringService._snapshot_state`); the caller must have
        spilled every resident graph's payload first.  Crash points:
        ``wal:mid-compact`` fires before the snapshot replace (old
        snapshot + full log survive), ``wal:post-compact`` after the
        replace but before the truncation (new snapshot + stale log —
        replay's lsn filter must drop every leftover record).
        """
        with self._lock:
            ordinal = self.compactions + 1
            snapshot = seal(
                {
                    "schema": WAL_SCHEMA,
                    "lsn": self.lsn,
                    "compaction": ordinal,
                    "ts_unix": int(time.time()),
                    **dict(state),
                }
            )
            t0 = time.perf_counter()
            self.crash_point.fire("wal:mid-compact", ordinal)
            atomic_write_text(self.snapshot_path, to_line(snapshot))
            self._snapshot_lsn = self.lsn
            self.crash_point.fire("wal:post-compact", ordinal)
            atomic_truncate(self.log_path)
            self.compactions = ordinal
            self._write_manifest()
            tracer = current_tracer()
            if tracer.enabled:
                tracer.add_span(
                    "wal:compact",
                    t0,
                    time.perf_counter(),
                    lsn=self.lsn,
                    compaction=ordinal,
                )
                tracer.count("wal.compact", 1)
            return snapshot

    def _write_manifest(self) -> None:
        """Advisory tail manifest (the per-line CRCs are the truth)."""
        self._log.write_manifest(
            WAL_SCHEMA,
            lsn=self.lsn,
            compactions=self.compactions,
            snapshot_lsn=self._snapshot_lsn,
        )

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """JSON-able WAL state for ``/stats`` and the manifest artifact."""
        return {
            "dir": str(self.dir),
            "lsn": self.lsn,
            "appends": self.appends,
            "compactions": self.compactions,
            "snapshot_lsn": self._snapshot_lsn,
            "pending_records": len(self.replay_records()),
            "last_skipped": self.last_skipped,
        }
