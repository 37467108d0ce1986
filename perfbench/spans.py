"""In-memory spans around each layer's public functions.

The benchmark never edits the program: :func:`install` replaces a fixed
list of public functions and methods with timing wrappers that record
one span per call (id, parent id, name, tag, start, end).  The parent
link rides a :class:`contextvars.ContextVar`, so nesting is right both
across threads and across interleaved asyncio tasks; the service's
executor hand-offs are made to carry the caller's context, which keeps
work done on behalf of a request nested under that request.

A span's name is ``<layer>.<call>``, where the layer is the program
module the call belongs to.  A span's *self time* is its duration minus
the part of it that child spans cover, so summing self times over all
spans never counts an interval twice; the layer-sum check relies on it.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import itertools
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple

_PARENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_parent", default=None
)

#: The program's layers (module names under ``repro``) that spans name.
LAYERS = (
    "graph",
    "core",
    "similarity",
    "intersect",
    "parallel",
    "api",
    "streaming",
    "service",
)


class Recorder:
    """Spans and counters, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.enabled = False
        #: (span id, parent id, name, tag, start, end)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.objects: dict[str, object] = {}
        self._ids = itertools.count()

    def _open(self) -> tuple[int | None, int, contextvars.Token]:
        parent = _PARENT.get()
        sid = next(self._ids)
        return parent, sid, _PARENT.set(sid)

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        """Time a block of the benchmark's own code as one span."""
        if not self.enabled:
            yield
            return
        parent, sid, token = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            _PARENT.reset(token)
            self.spans.append((sid, parent, name, tag, t0, t1))

    def wrap(self, fn, name: str, after=None):
        """``fn`` with a span around every call.  ``after(rec, args,
        result)`` may add counters once the call has returned."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            parent, sid, token = rec._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                _PARENT.reset(token)
                rec.spans.append((sid, parent, name, None, t0, t1))
            if after is not None:
                after(rec, args, result)
            return result

        return traced

    def wrap_async(self, fn, name: str, tag_of=None):
        """Coroutine-function version of :meth:`wrap`."""
        rec = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            if not rec.enabled:
                return await fn(*args, **kwargs)
            tag = tag_of(args) if tag_of is not None else None
            parent, sid, token = rec._open()
            t0 = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                _PARENT.reset(token)
                rec.spans.append((sid, parent, name, tag, t0, t1))

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# -- counters taken from what a call already returns ----------------------


def _count_arcs(rec: Recorder, args, result) -> None:
    rec.counts["similarity.arcs"] += len(args[1])


def _count_phase(rec: Recorder, args, result) -> None:
    backend = args[0]
    rec.counts["parallel.tasks"] += len(args[1])
    seen = rec.objects.setdefault("recovery_seen", {})
    total = len(backend.recovery_events)
    rec.counts["parallel.recovery_events"] += total - seen.get(id(backend), 0)
    seen[id(backend)] = total


def _count_batch(rec: Recorder, args, report) -> None:
    engine = args[0]
    rec.counts["streaming.batches"] += 1
    rec.counts["streaming.arcs_repaired"] += report.arcs_repaired
    rec.counts["streaming.vertices_reclustered"] += report.vertices_reclustered
    rec.counts["streaming.overlaps_carried"] += report.overlaps_carried
    rec.counts["streaming.point_vertices"] += (
        engine.num_points * report.num_vertices
    )


def _endpoint(args) -> str:
    """Which endpoint a ``ClusteringService._respond(request)`` serves."""
    request = args[1]
    parts = request.path_parts
    if len(parts) >= 3 and parts[0] == "graphs":
        if parts[2] == "cluster" and request.query.get("include") == "labels":
            return "labels"
        return parts[2]
    return parts[0] if parts else "root"


def _carry_context(method):
    """Run the executor callable of ``method(self, ..., work)`` in the
    caller's context, so its spans nest under the request's span."""

    @functools.wraps(method)
    async def carried(self, *args, **kwargs):
        *head, work = args
        ctx = contextvars.copy_context()
        return await method(self, *head, functools.partial(ctx.run, work), **kwargs)

    return carried


def install(rec: Recorder) -> None:
    """Wrap each layer's public entry points (idempotent per process)."""
    from repro import api, cli
    from repro.core.dynamic_index import DynamicGSIndex
    from repro.core.gsindex import GSIndex
    from repro.intersect.batch import BatchIntersector
    from repro.parallel.backend import ProcessBackend
    from repro.service import server
    from repro.service.wal import ServiceWAL
    from repro.similarity.engine import SimilarityEngine
    from repro.streaming.engine import StreamingEngine

    def method(owner, attr: str, name: str, after=None) -> None:
        setattr(owner, attr, rec.wrap(owner.__dict__[attr], name, after))

    method(api.GraphHandle, "cluster", "api.cluster")
    method(api.GraphHandle, "lookup", "api.lookup")
    method(api.GraphHandle, "vertex", "api.vertex")
    method(api.GraphHandle, "apply_updates", "api.apply_updates")
    for algorithm in ("ppscan", "scanxp"):
        spec = api.get_algorithm(algorithm)
        api.register_algorithm(
            dataclasses.replace(
                spec, runner=rec.wrap(spec.runner, f"core.{algorithm}")
            ),
            replace=True,
        )
    method(GSIndex, "__init__", "core.gsindex.build")
    method(GSIndex, "query", "core.gsindex.query")
    method(DynamicGSIndex, "apply_batch", "core.dynamic_index.apply_batch")
    method(DynamicGSIndex, "refresh", "core.dynamic_index.refresh")
    method(
        SimilarityEngine,
        "resolve_arcs",
        "similarity.resolve_arcs",
        after=_count_arcs,
    )
    for attr in ("arc_counts", "keyed_counts", "group_counts"):
        method(BatchIntersector, attr, f"intersect.{attr}")
    method(ProcessBackend, "run_phase", "parallel.run_phase", after=_count_phase)
    method(StreamingEngine, "apply", "streaming.apply", after=_count_batch)
    method(ServiceWAL, "compact", "service.wal_compact")

    timed_append = rec.wrap(ServiceWAL.__dict__["append"], "service.wal_append")

    def append(self, op, **fields):
        before = _size(self.log_path)
        record = timed_append(self, op, **fields)
        if rec.enabled:
            rec.counts["service.wal_appends"] += 1
            rec.counts["service.wal_bytes"] += max(0, _size(self.log_path) - before)
        return record

    ServiceWAL.append = append
    server.response_bytes = rec.wrap(server.response_bytes, "service.encode")
    cli.load_graph = rec.wrap(cli.load_graph, "graph.parse")

    service = server.ClusteringService
    service._respond = rec.wrap_async(
        service.__dict__["_respond"], "service.request", tag_of=_endpoint
    )
    service._run_heavy = _carry_context(service.__dict__["_run_heavy"])
    service._wal_append = _carry_context(service.__dict__["_wal_append"])
    original_init = service.__dict__["__init__"]

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        rec.objects["service"] = self

    service.__init__ = init


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# -- analysis ------------------------------------------------------------


class SpanStat(NamedTuple):
    name: str
    tag: str | None
    duration: float
    self_time: float


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def analyse(spans, window: tuple[float, float] | None = None) -> list[SpanStat]:
    """Self time of every span that starts inside ``window``."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _name, _tag, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = []
    for sid, _parent, name, tag, t0, t1 in spans:
        if window is not None and not window[0] <= t0 < window[1]:
            continue
        covered = _covered(children.get(sid, ()), t0, t1)
        out.append(SpanStat(name, tag, t1 - t0, t1 - t0 - covered))
    return out


def layer_self_times(stats: list[SpanStat]) -> dict[str, float]:
    totals = {layer: 0.0 for layer in LAYERS}
    for stat in stats:
        layer = stat.name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + stat.self_time
    return totals


def durations(stats: list[SpanStat], name: str, tag: str | None = None):
    return [
        s.duration
        for s in stats
        if s.name == name and (tag is None or s.tag == tag)
    ]


def _mean_ms(values) -> float:
    return sum(values) / len(values) * 1e3 if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts, window=None) -> dict[str, float]:
    """Per-layer metrics any workload's spans and counters give.

    Set-up work (the index build, graph parsing, the final compaction)
    is summed over every span; per-call times come from the spans that
    start inside ``window``.
    """
    every = analyse(spans)
    stats = analyse(spans, window) if window is not None else every
    resolve = durations(stats, "similarity.resolve_arcs")
    out = {
        "graph.parse_s": sum(durations(every, "graph.parse")),
        "core.gsindex.build_s": sum(durations(every, "core.gsindex.build")),
        "core.gsindex.query_ms": _mean_ms(durations(stats, "core.gsindex.query")),
        "core.dynamic_index.apply_batch_ms": _mean_ms(
            durations(stats, "core.dynamic_index.apply_batch")
        ),
        "core.dynamic_index.refresh_ms": _mean_ms(
            durations(stats, "core.dynamic_index.refresh")
        ),
        "similarity.resolve_arcs_s": sum(resolve),
        "similarity.resolve_arcs_calls": len(resolve),
        "similarity.arcs_per_call": _ratio(counts.get("similarity.arcs", 0), len(resolve)),
        "parallel.run_phase_s": sum(durations(stats, "parallel.run_phase")),
        "parallel.tasks": counts.get("parallel.tasks", 0),
        "parallel.recovery_events": counts.get("parallel.recovery_events", 0),
        "api.lookup_us": _mean_ms(durations(stats, "api.lookup")) * 1e3,
        "api.cluster_ms": _mean_ms(durations(stats, "api.cluster")),
        "api.vertex_ms": _mean_ms(durations(stats, "api.vertex")),
        "api.apply_updates_ms": _mean_ms(durations(stats, "api.apply_updates")),
        "streaming.apply_ms": _mean_ms(durations(stats, "streaming.apply")),
        "streaming.recluster_frac": _ratio(
            counts.get("streaming.vertices_reclustered", 0),
            counts.get("streaming.point_vertices", 0),
        ),
        "service.encode_ms": _mean_ms(durations(stats, "service.encode")),
        "service.wal_append_ms": _mean_ms(durations(stats, "service.wal_append")),
        "service.wal_bytes": _ratio(
            counts.get("service.wal_bytes", 0), counts.get("service.wal_appends", 0)
        ),
        "service.wal_compact_ms": _mean_ms(durations(every, "service.wal_compact")),
    }
    for field in ("arcs_repaired", "vertices_reclustered", "overlaps_carried"):
        out[f"streaming.{field}"] = _ratio(
            counts.get(f"streaming.{field}", 0), counts.get("streaming.batches", 0)
        )
    for endpoint in ("cluster", "labels", "vertex", "updates"):
        served = durations(stats, "service.request", endpoint)
        out[f"service.server_p50_ms.{endpoint}"] = (
            sorted(served)[len(served) // 2] * 1e3 if served else 0.0
        )
    layers = layer_self_times(stats)
    for layer, seconds in layers.items():
        out[f"self_s.{layer}"] = seconds
    out["intersect.batch_s"] = layers["intersect"]
    out["trace.spans"] = len(spans)
    return out
