"""In-process flight recorder: sampled span time plus memory accounting.

The tracer answers *what ran when*; the profiler answers *where the time
inside a span actually went* and *what each phase cost in memory* —
without instrumenting the hot loops, because instrumentation there is
exactly what the zero-overhead :data:`~repro.obs.tracer.NULL_TRACER`
design forbids.

Two independent, individually opt-in mechanisms share the
:class:`SpanProfiler` object:

* **Stack sampling** — a daemon thread wakes every ``interval`` seconds
  and snapshots the tracer's open-span stack on the master lane
  (:meth:`~repro.obs.tracer.Tracer.active_stack`, a lock-free
  point-in-time copy).  Each sample credits the innermost span name
  with *self* time and every enclosing name with *cumulative* time, so
  ``as_dict()`` yields a flat self/cumulative profile per span kind at
  a cost of one tuple copy per tick — the overhead budget in the
  acceptance test is ≤ 5% of smoke-benchmark wall, and at the default
  10 ms interval the sampler sits well under it.

* **Memory accounting** (``memory=True``) — the profiler registers as a
  tracer *observer*: when a top-level phase span opens it notes
  ``tracemalloc.get_traced_memory()`` and resets the peak; when the
  span closes it records the allocation delta and the within-phase peak.
  tracemalloc itself costs real time (it hooks every allocation), which
  is why this half is a separate flag and not bundled with sampling.

Worker-side memory is *not* sampled here — forked workers are separate
processes.  Their peak RSS travels back through the supervisor's
existing pipe messages (piggybacked on the per-task timing tuple) and
lands as ``memory.lane.<lane>.peak_rss_kb`` gauges in the metrics
registry; :func:`repro.obs.ledger.record_from_run` folds both sides into
the ledger record's memory block.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from .tracer import Span, Tracer

__all__ = ["SpanProfiler", "profile_tracer"]

#: Default sampler period: coarse enough to be invisible next to the
#: clustering phases (which run for seconds), fine enough for tens of
#: samples per phase on the smoke workload.
DEFAULT_INTERVAL = 0.01


class SpanProfiler:
    """Sampling profiler over one tracer's master-lane span stack.

    Use as a context manager around the traced run::

        tracer = Tracer()
        with use_tracer(tracer), SpanProfiler(tracer) as prof:
            ppscan(graph, params)
        prof.as_dict()["spans"]["similarity pruning"]["self_seconds"]

    ``memory=True`` additionally registers the profiler as a span
    observer and accounts tracemalloc deltas for top-level (depth ≤ 1,
    lane 0) spans.
    """

    def __init__(
        self,
        tracer: Tracer,
        *,
        interval: float = DEFAULT_INTERVAL,
        lane: int = 0,
        memory: bool = False,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.tracer = tracer
        self.interval = float(interval)
        self.lane = int(lane)
        self.memory = bool(memory)
        self.samples = 0
        self.idle_samples = 0
        self._self: dict[str, int] = {}
        self._cum: dict[str, int] = {}
        self._mem: dict[str, dict[str, float]] = {}
        self._mem_open: dict[int, tuple[int, bool]] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._began: float | None = None
        self.wall_seconds = 0.0
        #: CPU time the sampling thread itself used, set when it stops.
        self.cpu_seconds = 0.0
        self._tracemalloc_started_here = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "SpanProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._began = time.perf_counter()
        if self.memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._tracemalloc_started_here = True
            self.tracer.add_observer(self)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SpanProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join(timeout=max(1.0, 10 * self.interval))
        self._thread = None
        if self._began is not None:
            self.wall_seconds = time.perf_counter() - self._began
        if self.memory:
            self.tracer.remove_observer(self)
            if self._tracemalloc_started_here:
                import tracemalloc

                tracemalloc.stop()
                self._tracemalloc_started_here = False
        return self

    def __enter__(self) -> "SpanProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- sampling ---------------------------------------------------------

    def _sample_loop(self) -> None:
        active_stack = self.tracer.active_stack
        lane = self.lane
        wait = self._stop.wait
        while not wait(self.interval):
            stack = active_stack(lane)
            self.samples += 1
            if not stack:
                self.idle_samples += 1
                continue
            leaf = stack[-1]
            self._self[leaf] = self._self.get(leaf, 0) + 1
            # A name appearing twice in one stack (recursive spans) must
            # still be credited once per sample, hence the set.
            for name in set(stack):
                self._cum[name] = self._cum.get(name, 0) + 1
        self.cpu_seconds = time.thread_time()

    # -- memory observer (tracer hooks) -----------------------------------

    def span_started(self, span: Span) -> None:
        if span.lane != self.lane or span.depth > 1:
            return
        import tracemalloc

        if not tracemalloc.is_tracing():
            return
        current, _peak = tracemalloc.get_traced_memory()
        # Only the outermost open accounted span may reset the peak —
        # a nested reset would hide the parent's own high-water mark.
        resets_peak = not self._mem_open
        if resets_peak:
            tracemalloc.reset_peak()
        self._mem_open[span.span_id] = (current, resets_peak)

    def span_ended(self, span: Span) -> None:
        opened = self._mem_open.pop(span.span_id, None)
        if opened is None:
            return
        import tracemalloc

        if not tracemalloc.is_tracing():
            return
        before, resets_peak = opened
        current, peak = tracemalloc.get_traced_memory()
        entry = self._mem.setdefault(
            span.name,
            {"alloc_delta_kb": 0.0, "peak_kb": 0.0, "entries": 0.0},
        )
        entry["alloc_delta_kb"] += (current - before) / 1024.0
        if resets_peak:
            entry["peak_kb"] = max(entry["peak_kb"], peak / 1024.0)
        entry["entries"] += 1.0

    # -- results ----------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """The flight-recorder summary (JSON-able, ledger-ready).

        ``spans`` maps span name → estimated ``self_seconds`` /
        ``cum_seconds`` (sample counts × interval) plus the raw counts;
        ``memory`` maps phase name → tracemalloc deltas when memory
        accounting ran.
        """
        spans: dict[str, Any] = {}
        for name in sorted(set(self._self) | set(self._cum)):
            self_n = self._self.get(name, 0)
            cum_n = self._cum.get(name, 0)
            spans[name] = {
                "self_samples": self_n,
                "cum_samples": cum_n,
                "self_seconds": round(self_n * self.interval, 6),
                "cum_seconds": round(cum_n * self.interval, 6),
            }
        out: dict[str, Any] = {
            "interval_seconds": self.interval,
            "samples": self.samples,
            "idle_samples": self.idle_samples,
            "wall_seconds": round(self.wall_seconds, 6),
            "spans": spans,
        }
        if self._mem:
            out["memory"] = {
                name: {k: round(v, 3) for k, v in entry.items()}
                for name, entry in sorted(self._mem.items())
            }
        return out

    def hotspots(self, limit: int = 10) -> list[tuple[str, float]]:
        """Span names by descending self time, ``(name, self_seconds)``."""
        ranked = sorted(
            self._self.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return [
            (name, round(n * self.interval, 6))
            for name, n in ranked[:limit]
        ]


def profile_tracer(
    tracer: Tracer,
    *,
    interval: float = DEFAULT_INTERVAL,
    memory: bool = False,
) -> SpanProfiler:
    """Convenience constructor mirroring :func:`~contextlib.contextmanager`
    usage: ``with profile_tracer(tracer) as prof: ...``."""
    return SpanProfiler(tracer, interval=interval, memory=memory)
