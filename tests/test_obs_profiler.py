"""Sampling flight recorder: attribution, memory accounting, overhead."""

import statistics
import time
from contextlib import nullcontext

import pytest

from repro.core.ppscan import ppscan
from repro.graph.generators import erdos_renyi, real_world_standin
from repro.obs import SpanProfiler, Tracer, profile_tracer, use_tracer
from repro.types import ScanParams


class TestSampling:
    def test_samples_attribute_self_and_cumulative(self):
        tracer = Tracer()
        with SpanProfiler(tracer, interval=0.002) as prof:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    time.sleep(0.08)
        out = prof.as_dict()
        assert out["samples"] > 0
        spans = out["spans"]
        assert spans["inner"]["self_samples"] > 0
        # Every inner sample also credits the enclosing span.
        assert (
            spans["outer"]["cum_samples"] >= spans["inner"]["self_samples"]
        )
        assert spans["inner"]["self_seconds"] == pytest.approx(
            spans["inner"]["self_samples"] * 0.002
        )

    def test_idle_samples_counted_when_no_span_open(self):
        tracer = Tracer()
        with SpanProfiler(tracer, interval=0.002) as prof:
            time.sleep(0.05)
        assert prof.idle_samples > 0
        assert prof.as_dict()["spans"] == {}

    def test_recursive_spans_credited_once_per_sample(self):
        tracer = Tracer()
        with SpanProfiler(tracer, interval=0.002) as prof:
            with tracer.span("deep"), tracer.span("deep"):
                time.sleep(0.05)
        spans = prof.as_dict()["spans"]
        # cum counts samples, not stack occurrences: cum == self here.
        assert spans["deep"]["cum_samples"] == spans["deep"]["self_samples"]

    def test_hotspots_ranked_by_self_time(self):
        tracer = Tracer()
        with SpanProfiler(tracer, interval=0.002) as prof:
            with tracer.span("slow"):
                time.sleep(0.06)
            with tracer.span("fast"):
                time.sleep(0.01)
        hot = prof.hotspots()
        assert hot and hot[0][0] == "slow"

    def test_real_run_yields_phase_hotspots(self):
        graph = erdos_renyi(400, 4000, seed=7)
        tracer = Tracer()
        with use_tracer(tracer), profile_tracer(
            tracer, interval=0.001
        ) as prof:
            ppscan(graph, ScanParams(eps=0.4, mu=3))
        # Span *names* must come from the traced phases even if the run
        # was too fast for many samples.
        for name in prof.as_dict()["spans"]:
            assert any(s.name == name for s in tracer.spans)

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanProfiler(Tracer(), interval=0.0)

    def test_double_start_rejected(self):
        prof = SpanProfiler(Tracer()).start()
        try:
            with pytest.raises(RuntimeError):
                prof.start()
        finally:
            prof.stop()


class TestMemoryAccounting:
    def test_phase_deltas_recorded(self):
        tracer = Tracer()
        with SpanProfiler(tracer, interval=0.05, memory=True) as prof:
            with tracer.span("alloc phase"):
                blob = [bytearray(256 * 1024) for _ in range(4)]
            del blob
        mem = prof.as_dict()["memory"]
        entry = mem["alloc phase"]
        assert entry["entries"] == 1
        # ~1MB allocated inside the span; the within-span peak saw it.
        assert entry["peak_kb"] > 512

    def test_nested_spans_only_top_levels_accounted(self):
        tracer = Tracer()
        with SpanProfiler(tracer, interval=0.05, memory=True) as prof:
            with tracer.span("outer"):
                with tracer.span("mid"):
                    with tracer.span("deep"):
                        pass
        mem = prof.as_dict().get("memory", {})
        assert "outer" in mem and "mid" in mem
        assert "deep" not in mem  # depth 2: below the accounting cutoff

    def test_observer_removed_after_stop(self):
        tracer = Tracer()
        with SpanProfiler(tracer, memory=True):
            pass
        assert tracer._observers == []

    def test_no_observer_without_memory_flag(self):
        tracer = Tracer()
        with SpanProfiler(tracer):
            assert tracer._observers == []


class TestOverhead:
    def test_sampling_overhead_within_five_percent_of_smoke(self):
        """The acceptance budget: ≤ 5% wall on the smoke workload.

        Same graph family/parameters as ``run_smoke`` (scale reduced to
        keep the suite fast).  Each round times one plain run and one
        profiled run back to back, alternating which goes first, and
        charges the CPU time the sampling thread used against the plain
        run's wall; the gate is the median over the rounds.  The
        difference of two walls would move with the host's load
        between the two runs; the sampler's CPU time does not.
        """
        graph = real_world_standin("livejournal", scale=0.4)
        params = ScanParams(eps=0.4, mu=5)
        ppscan(graph, params)  # warm caches outside the measurement

        def timed(profile):
            tracer = Tracer()
            sampler = SpanProfiler(tracer) if profile else nullcontext()
            with use_tracer(tracer), sampler:
                t0 = time.perf_counter()
                ppscan(graph, params)
                wall = time.perf_counter() - t0
            return sampler.cpu_seconds if profile else wall

        ratios = []
        for round_ in range(12):
            order = (False, True) if round_ % 2 == 0 else (True, False)
            cost = {profile: timed(profile) for profile in order}
            ratios.append(cost[True] / cost[False])
        overhead = statistics.median(ratios)
        assert overhead <= 0.05, (
            f"profiler overhead {overhead:.1%} of the plain wall "
            f"(median of {len(ratios)} paired rounds)"
        )
