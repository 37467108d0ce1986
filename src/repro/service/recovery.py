"""Crash recovery: rebuild the service registry from snapshot + WAL tail.

:func:`recover` is what :class:`~repro.service.server.ClusteringService`
runs in its ``recovering`` state before accepting traffic: load the
latest compaction snapshot (graph payloads, materialized (ε, µ) points,
idempotency responses), then replay every WAL record past the
snapshot's lsn in log order.  The result is bit-identical to the
pre-crash registry for everything that was *acknowledged*:

* a submitted graph is restored from its content-addressed payload
  (fingerprint-verified on load);
* an accepted edit batch re-applies through the same
  :meth:`~repro.api.GraphHandle.apply_updates` path and must land on
  the logged ``new_fp`` — any divergence is a :class:`RecoveryError`,
  never a silently different graph;
* every previously materialized (ε, µ) point recorded in the snapshot
  is re-queried so warm lookups serve the same labels as before the
  crash (exact algorithms are deterministic; the differential gates
  hold that invariant);
* logged ``delete`` / ``evict`` records remove the same victims the
  live registry chose (replay inserts via
  :meth:`~repro.service.registry.GraphRegistry.restore`, which never
  re-derives eviction decisions — live recency was shaped by unlogged
  queries).

Un-acknowledged work is absent by construction: the WAL appends before
the acknowledgement, so a torn (mid-append) record is a clean skip and
its mutation never happened as far as any client knows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..types import ScanParams
from ..obs.tracer import current_tracer

__all__ = ["RecoveryError", "RecoveryReport", "recover"]


class RecoveryError(RuntimeError):
    """The WAL and the disk state disagree in a way replay cannot repair.

    Raised fail-stop (the service refuses to serve) when a logged
    submission's payload is missing or corrupt, when an update record's
    fingerprint chain is broken (its ``old_fp`` is not resident), or
    when re-applying a batch lands on a different fingerprint than the
    one logged — every case means external damage or non-determinism,
    and serving through it would silently return wrong clusterings.
    """


@dataclass
class RecoveryReport:
    """What one :func:`recover` run rebuilt (JSON-able via
    :meth:`as_dict`; the service surfaces it in ``/stats`` and logs it
    to the run ledger as a ``kind="service"`` record)."""

    wal_dir: str = ""
    snapshot_lsn: int = 0
    final_lsn: int = 0
    graphs_restored: int = 0
    submissions_replayed: int = 0
    updates_replayed: int = 0
    deletes_replayed: int = 0
    evictions_replayed: int = 0
    warm_points: int = 0
    idempotency_keys: int = 0
    skipped_lines: int = 0
    wall_seconds: float = 0.0
    fingerprints: list[str] = field(default_factory=list)

    @property
    def records_replayed(self) -> int:
        return (
            self.submissions_replayed
            + self.updates_replayed
            + self.deletes_replayed
            + self.evictions_replayed
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "wal_dir": self.wal_dir,
            "snapshot_lsn": self.snapshot_lsn,
            "final_lsn": self.final_lsn,
            "graphs_restored": self.graphs_restored,
            "records_replayed": self.records_replayed,
            "submissions_replayed": self.submissions_replayed,
            "updates_replayed": self.updates_replayed,
            "deletes_replayed": self.deletes_replayed,
            "evictions_replayed": self.evictions_replayed,
            "warm_points": self.warm_points,
            "idempotency_keys": self.idempotency_keys,
            "skipped_lines": self.skipped_lines,
            "wall_seconds": self.wall_seconds,
            "fingerprints": list(self.fingerprints),
        }


def _restore_graph(wal, session, registry, fingerprint, label, batches_applied=0):
    """Load one spilled payload and register its handle."""
    try:
        graph = wal.load_graph(fingerprint)
    except (FileNotFoundError, ValueError) as exc:
        raise RecoveryError(
            f"cannot restore graph {fingerprint}: {exc}"
        ) from exc
    handle = session.open(
        graph,
        label=label,
        fingerprint=fingerprint,  # verified by load_graph
        batches_applied=int(batches_applied),
    )
    registry.restore(fingerprint, handle)
    return handle


def recover(
    wal, *, session, registry
) -> tuple[RecoveryReport, dict[str, dict]]:
    """Rebuild ``session``/``registry`` from ``wal``; returns the report
    plus the restored idempotency map (``Idempotency-Key`` → original
    response payload).

    The registry must be empty (fresh service start); the function is
    synchronous and heavy (index builds + warm re-queries) — the server
    runs it in its executor while ``/readyz`` answers ``recovering``.
    """
    report = RecoveryReport(wal_dir=str(wal.dir))
    idempotency: dict[str, dict] = {}
    t0 = time.perf_counter()
    tracer = current_tracer()

    snapshot = wal.load_snapshot()
    if snapshot is not None:
        report.snapshot_lsn = int(snapshot["lsn"])
        for entry in snapshot.get("graphs", []):
            handle = _restore_graph(
                wal,
                session,
                registry,
                entry["fingerprint"],
                entry.get("label"),
                entry.get("batches_applied", 0),
            )
            report.graphs_restored += 1
            for num, den, mu in entry.get("points", []):
                handle.cluster(ScanParams(num / den, int(mu)))
                report.warm_points += 1
        stored = snapshot.get("idempotency", {})
        if isinstance(stored, dict):
            idempotency.update(
                (str(k), v) for k, v in stored.items() if isinstance(v, dict)
            )

    from ..streaming import EditBatch

    records = wal.replay_records()
    report.skipped_lines = wal.last_skipped
    for record in records:
        op = record["op"]
        if op == "submit":
            fingerprint = record["fingerprint"]
            if registry.peek(fingerprint) is not None:
                continue  # stale duplicate (e.g. post-compact leftovers)
            _restore_graph(
                wal, session, registry, fingerprint, record.get("label")
            )
            report.submissions_replayed += 1
        elif op == "update":
            old_fp, new_fp = record["old_fp"], record["new_fp"]
            handle = registry.peek(old_fp)
            if handle is None:
                raise RecoveryError(
                    f"update record lsn={record['lsn']} chains from "
                    f"{old_fp}, which is not resident — WAL is damaged"
                )
            batch_report = handle.apply_updates(
                EditBatch.coerce(record["edits"])
            )
            if batch_report.fingerprint != new_fp:
                raise RecoveryError(
                    f"replaying update lsn={record['lsn']} produced "
                    f"fingerprint {batch_report.fingerprint}, the log "
                    f"says {new_fp} — non-deterministic replay"
                )
            registry.pop(old_fp)
            registry.restore(new_fp, handle)
            key = record.get("idempotency_key")
            response = record.get("response")
            if key and isinstance(response, dict):
                idempotency[str(key)] = response
            report.updates_replayed += 1
        elif op in ("delete", "evict"):
            handle = registry.pop(record["fingerprint"])
            if handle is not None:
                session.discard(handle)
            if op == "delete":
                report.deletes_replayed += 1
            else:
                report.evictions_replayed += 1

    report.final_lsn = wal.lsn
    report.idempotency_keys = len(idempotency)
    report.fingerprints = registry.fingerprints()
    report.wall_seconds = time.perf_counter() - t0
    if tracer.enabled:
        tracer.add_span(
            "wal:replay",
            t0,
            time.perf_counter(),
            records=report.records_replayed,
            graphs=report.graphs_restored,
        )
        tracer.count("wal.replay.records", report.records_replayed)
        tracer.count("wal.replay.graphs", len(report.fingerprints))
    return report, idempotency
