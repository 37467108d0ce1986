"""Span tracer: nesting, ambient install, and the zero-overhead path."""

import pytest

from repro.core.ppscan import ppscan
from repro.graph.generators import erdos_renyi
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    Tracer,
    current_tracer,
    use_tracer,
)
from repro.types import ScanParams


class TestSpanNesting:
    def test_start_end_records_span(self):
        tracer = Tracer()
        span = tracer.start_span("phase", lane=0, tasks=3)
        tracer.end_span(span)
        assert [s.name for s in tracer.spans] == ["phase"]
        assert span.attrs == {"tasks": 3}
        assert span.end >= span.begin
        assert span.depth == 0
        assert span.parent_id == -1

    def test_nesting_tracks_depth_and_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.depth == 0
        assert inner.depth == 1
        assert inner.parent_id == outer.span_id

    def test_children_within_parent_interval(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        parent, child = by_name["parent"], by_name["child"]
        assert parent.begin <= child.begin
        assert child.end <= parent.end
        assert child.lane == parent.lane

    def test_end_span_closes_deeper_orphans(self):
        tracer = Tracer()
        outer = tracer.start_span("outer")
        tracer.start_span("leaked")  # never explicitly ended
        tracer.end_span(outer)
        names = {s.name for s in tracer.spans}
        assert names == {"outer", "leaked"}
        assert all(s.end >= s.begin for s in tracer.spans)
        assert tracer._stacks[0] == []

    def test_lanes_are_independent_stacks(self):
        tracer = Tracer()
        a = tracer.start_span("a", lane=1)
        b = tracer.start_span("b", lane=2)
        assert a.depth == 0 and b.depth == 0
        assert b.parent_id == -1
        tracer.end_span(a)
        tracer.end_span(b)
        assert tracer.lanes() == [1, 2]

    def test_add_span_preserves_given_interval(self):
        tracer = Tracer()
        span = tracer.add_span("task", 1.0, 3.5, lane=4, depth=1, beg=0)
        assert span.duration == pytest.approx(2.5)
        assert span.lane == 4
        assert tracer.lanes() == [4]

    def test_sorted_spans_parent_before_child(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        names = [s.name for s in tracer.sorted_spans()]
        assert names == ["parent", "child"]

    def test_well_formed_after_real_run(self):
        graph = erdos_renyi(60, 240, seed=3)
        tracer = Tracer()
        with use_tracer(tracer):
            ppscan(graph, ScanParams(eps=0.4, mu=3))
        assert all(not stack for stack in tracer._stacks.values())
        spans = {s.span_id: s for s in tracer.spans}
        for span in tracer.spans:
            assert span.end >= span.begin
            if span.parent_id != -1 and span.parent_id in spans:
                parent = spans[span.parent_id]
                assert parent.lane == span.lane
                assert parent.begin <= span.begin
                assert span.end <= parent.end
        roots = [s for s in tracer.spans if s.name == "ppscan"]
        assert len(roots) == 1
        assert roots[0].attrs["exec_mode"] == "scalar"


class TestAmbientTracer:
    def test_default_is_null(self):
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
            inner = Tracer()
            with use_tracer(inner):
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_tracer(Tracer()):
                raise RuntimeError("boom")
        assert current_tracer() is NULL_TRACER


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer.enabled is True

    def test_all_operations_are_noops(self):
        null = NullTracer()
        span = null.start_span("x", lane=3, attr=1)
        assert null.end_span(span) is span
        with null.span("y") as handle:
            assert handle is span  # the shared sentinel span
        null.add_span("z", 0.0, 1.0)
        null.count("c", 5)
        null.gauge("g", 1.0)
        null.observe("h", 2.0)
        assert null.spans == []
        assert null.lanes() == []
        assert null.sorted_spans() == []

    def test_null_tracer_holds_no_registry(self):
        assert NULL_TRACER.metrics is None


class TestMetricsShortcuts:
    def test_count_gauge_observe(self):
        tracer = Tracer()
        tracer.count("arcs", 3)
        tracer.count("arcs", 2)
        tracer.gauge("wall", 1.5)
        tracer.observe("batch", 10.0)
        tracer.observe("batch", 20.0)
        exported = tracer.metrics.as_dict()
        assert exported["arcs"] == 5
        assert exported["wall"] == 1.5
        assert exported["batch.count"] == 2
        assert exported["batch.mean"] == pytest.approx(15.0)

    def test_custom_registry(self):
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry)
        tracer.count("x")
        assert registry.as_dict() == {"x": 1}


class TestZeroOpInvariance:
    """Instrumentation must not perturb the OpCounter-pinned tallies."""

    @pytest.mark.parametrize("exec_mode", ["scalar", "batched"])
    def test_traced_run_has_identical_op_totals(self, exec_mode):
        graph = erdos_renyi(80, 320, seed=7)
        params = ScanParams(eps=0.5, mu=3)
        plain = ppscan(graph, params, exec_mode=exec_mode)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = ppscan(graph, params, exec_mode=exec_mode)
        assert traced.record.total().as_dict() == plain.record.total().as_dict()
        assert traced.same_clustering(plain)
        assert len(tracer.spans) > 0

    @pytest.mark.parametrize("exec_mode", ["scalar", "batched"])
    def test_repeat_traced_runs_emit_identical_metric_totals(self, exec_mode):
        graph = erdos_renyi(80, 320, seed=11)
        params = ScanParams(eps=0.4, mu=3)
        exports = []
        for _ in range(2):
            tracer = Tracer()
            with use_tracer(tracer):
                ppscan(graph, params, exec_mode=exec_mode)
            exports.append(tracer.metrics.as_dict())
        assert exports[0] == exports[1]

    def test_batched_dispatch_counters_are_consistent(self):
        graph = erdos_renyi(80, 320, seed=5)
        tracer = Tracer()
        with use_tracer(tracer):
            ppscan(graph, ScanParams(eps=0.4, mu=3), exec_mode="batched")
        m = tracer.metrics.as_dict()
        assert m["engine.arcs"] == (
            m["engine.arcs_trivial"]
            + m["engine.arcs_bulk"]
        )
        assert m["engine.batches"] == m["engine.batch_size.count"]
        assert m["batch.calls"] >= 1
