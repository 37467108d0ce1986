"""The cross-run ledger: a durable, queryable history of every run.

Per-run telemetry (``obs/`` traces) evaporates when the process exits;
the ledger is the layer that makes performance history *cumulative*.
Every ``cluster`` / ``compare`` / ``sweep`` / bench invocation can append
one schema-versioned record — graph fingerprint, execution-options
summary, per-stage walls, the whole metrics registry (cache / sketch /
supervisor / checkpoint counters included), recovery events, host info
and memory high-water marks — and the trend gate
(:func:`repro.obs.regression.trend_gate`) reads the accumulated history
back to detect drift with robust statistics instead of one-shot
baselines.

Durability model
----------------
The ledger is a schema over
:class:`~repro.checkpoint.jsonlog.ChecksummedLog`, the checksummed
append-only JSONL log it shares with the service WAL:

* each line carries its own ``crc``, so a reader validates records
  independently of the advisory manifest rewritten after every append
  (a crash between line ``fsync`` and manifest rewrite leaves a valid
  line the reader still counts);
* a crash *mid-append* leaves a torn tail.  Torn, corrupt, undecodable
  or foreign-schema lines are a **clean skip** — :meth:`RunLedger.read`
  drops them (tallied in :attr:`RunLedger.last_skipped`) and the next
  append first repairs the tail so the new record can never fuse with
  torn remains.

A :class:`~repro.parallel.chaos.CrashPoint` (``REPRO_CRASH``) fires
around every append — ``ledger:mid-append`` dies with only a torn
prefix of record ``seq`` on disk, ``ledger:post-append`` after it is
durable — which is how the chaos tests prove both halves of the
contract.

Keying
------
Records are grouped for trend analysis by two stable hashes:
``workload_key`` (the workload identity: graph fingerprint or generator
descriptor, parameters, kind) and ``options_key`` (the
:meth:`repro.options.ExecutionOptions.describe` summary).  Two runs are
*comparable* iff both keys match — the trend gate never mixes histories
across workloads or execution configurations.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Mapping

from ..checkpoint.jsonlog import CRC_FIELD, ChecksummedLog, parse_lines
from .tracer import current_tracer

__all__ = [
    "LEDGER_SCHEMA",
    "RunLedger",
    "stable_key",
    "build_record",
    "record_from_run",
    "migrate_legacy_line",
    "migrate_trajectory",
]

#: Record schema version; readers skip records with any other version
#: (a clean skip, never an error — forward compatibility by default).
LEDGER_SCHEMA = 1


def stable_key(payload: Any) -> str:
    """Short stable content hash of any JSON-able payload (hex, 64 bits)."""
    encoded = json.dumps(
        payload, sort_keys=True, default=str, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.blake2b(encoded, digest_size=8).hexdigest()


def host_info() -> dict[str, Any]:
    """The host descriptor stamped into every record."""
    import platform

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }


def _peak_rss_kb() -> int | None:
    """This process's peak RSS in kilobytes (POSIX; ``None`` elsewhere)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def build_record(
    kind: str,
    *,
    workload: Mapping[str, Any],
    options: Mapping[str, Any] | None = None,
    algorithm: str | None = None,
    wall_seconds: float | None = None,
    stage_walls: Mapping[str, float] | None = None,
    metrics: Mapping[str, Any] | None = None,
    recovery: Mapping[str, int] | None = None,
    memory: Mapping[str, Any] | None = None,
    extra: Mapping[str, Any] | None = None,
    ts_unix: int | None = None,
) -> dict[str, Any]:
    """Assemble one (unsealed) ledger record.

    ``workload`` must identify the run's input well enough that two
    records with equal ``workload_key`` measured the same computation
    (graph fingerprint or generator descriptor + parameters).
    ``options`` is the execution-options summary
    (:meth:`~repro.options.ExecutionOptions.describe`), hashed into
    ``options_key``.  ``seq`` and ``crc`` are stamped at append time.
    """
    record: dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "kind": str(kind),
        "ts_unix": int(time.time()) if ts_unix is None else int(ts_unix),
        "host": host_info(),
        "workload": dict(workload),
        "workload_key": stable_key({"kind": str(kind), **dict(workload)}),
        "options": dict(options) if options else {},
        "options_key": stable_key(dict(options) if options else {}),
    }
    if algorithm is not None:
        record["algorithm"] = str(algorithm)
    if wall_seconds is not None:
        record["wall_seconds"] = float(wall_seconds)
    if stage_walls:
        record["stage_walls"] = {
            str(k): float(v) for k, v in stage_walls.items()
        }
    if metrics:
        record["metrics"] = dict(metrics)
    if recovery:
        record["recovery"] = {str(k): int(v) for k, v in recovery.items()}
    if memory:
        record["memory"] = dict(memory)
    if extra:
        record.update(dict(extra))
    return record


def record_from_run(
    kind: str,
    *,
    graph=None,
    graph_label: str | None = None,
    params=None,
    options=None,
    result=None,
    tracer=None,
    profiler=None,
    wall_seconds: float | None = None,
    algorithm: str | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Build a ledger record straight from the run's live objects.

    Everything is optional and duck-typed so callers assemble what they
    have: ``graph`` adds the CSR content fingerprint and sizes,
    ``params`` the (ε, µ) point, ``options`` its
    :meth:`~repro.options.ExecutionOptions.describe` summary, ``result``
    the per-stage walls of its :class:`~repro.metrics.RunRecord`,
    ``tracer`` the full metrics registry (with ``supervisor.*`` counters
    split out as the recovery summary), and ``profiler`` its
    ``as_dict()`` (sampled hotspots + per-phase memory deltas).  The
    parent's peak RSS is always recorded.
    """
    workload: dict[str, Any] = {}
    if graph is not None:
        from ..cache.store import graph_fingerprint

        workload["graph_fingerprint"] = graph_fingerprint(graph)
        workload["num_vertices"] = int(graph.num_vertices)
        workload["num_edges"] = int(graph.num_edges)
    if graph_label is not None:
        workload["graph"] = str(graph_label)
    if params is not None:
        workload["eps"] = float(params.eps)
        workload["mu"] = int(params.mu)

    options_summary = options.describe() if options is not None else None

    stage_walls: dict[str, float] | None = None
    record_obj = getattr(result, "record", None)
    if record_obj is not None:
        stage_walls = {
            stage.name: stage.wall_seconds for stage in record_obj.stages
        }
        if wall_seconds is None:
            wall_seconds = record_obj.wall_seconds
        if algorithm is None:
            algorithm = record_obj.algorithm

    metrics: dict[str, Any] | None = None
    recovery: dict[str, int] | None = None
    if tracer is not None and getattr(tracer, "metrics", None) is not None:
        metrics = tracer.metrics.as_dict()
        recovery = {
            name.removeprefix("supervisor."): int(value)
            for name, value in metrics.items()
            if name.startswith("supervisor.") and isinstance(value, int)
        } or None

    memory: dict[str, Any] = {}
    rss = _peak_rss_kb()
    if rss is not None:
        memory["parent_peak_rss_kb"] = rss
    if metrics:
        worker_peaks = [
            v
            for k, v in metrics.items()
            if k.startswith("memory.lane.") and k.endswith(".peak_rss_kb")
        ]
        if worker_peaks:
            memory["worker_peak_rss_kb"] = int(max(worker_peaks))
    if profiler is not None:
        memory["profile"] = profiler.as_dict()

    return build_record(
        kind,
        workload=workload,
        options=options_summary,
        algorithm=algorithm,
        wall_seconds=wall_seconds,
        stage_walls=stage_walls,
        metrics=metrics,
        recovery=recovery,
        memory=memory or None,
        extra=extra,
    )


class RunLedger:
    """One append-only ledger file plus its checksummed manifest.

    ``path`` may be a directory (records live in ``<path>/ledger.jsonl``,
    manifest in ``<path>/manifest.json``) or a ``*.jsonl`` file (manifest
    beside it as ``<stem>.manifest.json`` — how the benchmark trajectory
    file stays a single committed artifact).
    """

    def __init__(self, path: str | os.PathLike, *, crash_point=None) -> None:
        path = Path(path)
        if path.suffix == ".jsonl":
            file, manifest = path, path.with_name(path.stem + ".manifest.json")
        else:
            file, manifest = path / "ledger.jsonl", path / "manifest.json"
        if crash_point is None:
            from ..parallel.chaos import CrashPoint

            crash_point = CrashPoint.from_env()
        self._log = ChecksummedLog(
            file, manifest, name="ledger", crash_point=crash_point
        )
        self._seq: int | None = None

    @property
    def path(self) -> Path:
        """The JSONL file the ledger appends to."""
        return self._log.path

    @property
    def last_skipped(self) -> int:
        """Invalid lines dropped by the most recent :meth:`read`."""
        return self._log.last_skipped

    # -- reading ----------------------------------------------------------

    def read(self) -> list[dict[str, Any]]:
        """Every valid record, in file order; torn/corrupt lines skipped.

        A line is valid iff it decodes as a JSON object, carries the
        current :data:`LEDGER_SCHEMA`, and its ``crc`` matches its body.
        Anything else — a torn tail from a crash mid-append, a truncated
        or hand-edited line, an unknown future schema — is a clean skip,
        counted in :attr:`last_skipped` and as a ``ledger.skip`` metric
        when a tracer is ambient.
        """
        return self._log.read(lambda r: r.get("schema") == LEDGER_SCHEMA)

    def history(
        self,
        *,
        workload_key: str | None = None,
        options_key: str | None = None,
        kind: str | None = None,
        passed_only: bool = True,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Comparable records, oldest first.

        ``passed_only`` drops records a gate marked failing
        (``record["gate"]["passed"] is False``) so one regressed run
        never widens the bands that should have caught the next one.
        """
        out = []
        for record in self.read():
            if kind is not None and record.get("kind") != kind:
                continue
            if (
                workload_key is not None
                and record.get("workload_key") != workload_key
            ):
                continue
            if (
                options_key is not None
                and record.get("options_key") != options_key
            ):
                continue
            gate = record.get("gate")
            if (
                passed_only
                and isinstance(gate, dict)
                and gate.get("passed") is False
            ):
                continue
            out.append(record)
        if limit is not None:
            out = out[-limit:]
        return out

    # -- writing ----------------------------------------------------------

    def _next_seq(self) -> int:
        if self._seq is None:
            self._seq = len(self.read())
        self._seq += 1
        return self._seq

    def append(self, record: Mapping[str, Any]) -> dict[str, Any]:
        """Durably append one record; returns the sealed copy.

        The record is stamped (``schema``, ``seq``, ``crc``) and
        appended, then the manifest is rewritten atomically.  The armed
        :class:`~repro.parallel.chaos.CrashPoint` fires
        ``ledger:mid-append`` with only a torn prefix on disk and
        ``ledger:post-append`` once the record is durable.
        """
        stamped = dict(record)
        stamped.setdefault("schema", LEDGER_SCHEMA)
        seq = self._next_seq()
        stamped["seq"] = seq
        sealed = self._log.append(stamped, seq)
        self._log.write_manifest(
            LEDGER_SCHEMA, last_seq=seq, tail_crc=sealed[CRC_FIELD]
        )
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("ledger.append", 1)
        self._log.crash_point.fire("ledger:post-append", seq)
        return sealed

    def manifest_status(self) -> str:
        """``ok`` / ``stale`` / ``missing`` (see
        :meth:`~repro.checkpoint.jsonlog.ChecksummedLog.manifest_status`)."""
        return self._log.manifest_status()


# ---------------------------------------------------------------------------
# Legacy trajectory migration
# ---------------------------------------------------------------------------


def migrate_legacy_line(obj: Mapping[str, Any]) -> dict[str, Any]:
    """Wrap one pre-ledger trajectory object in the versioned schema.

    The old ``bench_results/trajectory.jsonl`` lines were schema-less
    benchmark summaries (``{"bench": ..., "workload": ..., ...}``).
    They become ``kind="bench"`` records: the benchmark name and
    workload label key the record, every numeric field lands under
    ``metrics`` (flattened) so trend queries see them, and the original
    object is preserved verbatim under ``legacy``.
    """
    from .regression import flatten

    obj = dict(obj)
    bench = str(obj.get("bench", "legacy"))
    workload = {"bench": bench}
    if "workload" in obj:
        workload["workload"] = obj["workload"]
    metrics = {
        k: v
        for k, v in flatten(obj).items()
        if "recorded_unix" not in k  # a timestamp, not a gateable metric
    }
    return build_record(
        "bench",
        workload=workload,
        metrics=metrics or None,
        extra={"legacy": obj},
        ts_unix=obj.get("recorded_unix"),
    )


def migrate_trajectory(path: str | os.PathLike) -> RunLedger:
    """Rewrite a legacy trajectory file in place under the ledger schema.

    Already-versioned records pass through untouched (idempotent);
    schema-less lines are migrated via :func:`migrate_legacy_line`;
    unparseable lines are dropped.  Returns the ledger now managing the
    file.
    """
    path = Path(path)
    lines: list[dict[str, Any]] = []
    if path.exists():
        for obj in parse_lines(path.read_bytes()):
            if obj is None:
                continue
            if obj.get("schema") == LEDGER_SCHEMA:
                obj.pop("seq", None)
                obj.pop(CRC_FIELD, None)
                lines.append(obj)
            else:
                lines.append(migrate_legacy_line(obj))
        path.unlink()
    ledger = RunLedger(path)
    for obj in lines:
        ledger.append(obj)
    return ledger
