"""Live progress: counters, ETA, rendering, ambient wiring, backends."""

import io

import pytest

from repro.core.ppscan import ppscan
from repro.graph.generators import erdos_renyi
from repro.obs import (
    NULL_PROGRESS,
    ProgressReporter,
    Tracer,
    current_progress,
    use_progress,
    use_tracer,
)
from repro.types import ScanParams


class FakeTTY(io.StringIO):
    def isatty(self):
        return True


class TestCounters:
    def test_phases_and_fractions(self):
        rep = ProgressReporter(io.StringIO())
        rep.phase_begin(100.0, label="similarity")
        rep.advance(25.0)
        snap = rep.snapshot()
        assert snap["phase"] == 1
        assert snap["label"] == "similarity"
        assert snap["fraction"] == pytest.approx(0.25)
        assert snap["active"]
        rep.phase_end()
        snap = rep.snapshot()
        assert snap["fraction"] == pytest.approx(1.0)
        assert not snap["active"]

    def test_eta_from_observed_rate(self):
        rep = ProgressReporter(io.StringIO())
        rep.phase_begin(100.0)
        with rep._lock:
            rep._phase_began -= 1.0  # pretend 1s elapsed
        rep.advance(50.0)
        eta = rep.snapshot()["eta_seconds"]
        # 50 units in ~1s -> ~1s remaining for the other 50.
        assert eta == pytest.approx(1.0, rel=0.2)

    def test_no_eta_at_zero_or_full(self):
        rep = ProgressReporter(io.StringIO())
        rep.phase_begin(100.0)
        assert rep.snapshot()["eta_seconds"] is None
        rep.advance(100.0)
        assert rep.snapshot()["eta_seconds"] is None

    def test_zero_total_is_safe(self):
        rep = ProgressReporter(io.StringIO())
        rep.phase_begin(0.0)
        rep.advance(0.0)
        assert rep.snapshot()["fraction"] == 0.0
        assert "%" in rep.format_line() or rep.format_line()


class TestFormatting:
    def test_line_contents(self):
        rep = ProgressReporter(io.StringIO(), unit="arcs")
        rep.phase_begin(19.5e6, label="similarity pruning")
        rep.advance(12.3e6)
        line = rep.format_line()
        assert "[phase 1]" in line
        assert "similarity pruning" in line
        assert "12.3M/19.5M arcs" in line
        assert "63.1%" in line

    def test_label_falls_back_to_tracer_span(self):
        rep = ProgressReporter(io.StringIO())
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("core detection"):
                rep.phase_begin(10.0)
                assert rep.snapshot()["label"] == "core detection"

    def test_before_any_phase(self):
        rep = ProgressReporter(io.StringIO())
        assert rep.format_line() == "[starting]"

    def test_done_line_after_phase_end(self):
        rep = ProgressReporter(io.StringIO())
        rep.phase_begin(10.0, label="x")
        rep.phase_end()
        assert rep.format_line().endswith("done")


class TestRendering:
    def test_tty_rewrites_one_line(self):
        stream = FakeTTY()
        rep = ProgressReporter(stream, interval=0.01)
        rep.phase_begin(10.0, label="p")
        rep._render(0.0)
        rep._render(0.0)
        out = stream.getvalue()
        assert out.count("\r\x1b[2K") == 2  # rewritten, not appended

    def test_non_tty_logs_periodically(self):
        stream = io.StringIO()
        rep = ProgressReporter(stream, interval=0.01, log_interval=100.0)
        rep.phase_begin(10.0, label="p")
        rep._render(1000.0)  # first: elapsed > log_interval
        rep._render(1000.5)  # suppressed: within log_interval
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) == 1
        assert "\r" not in stream.getvalue()

    def test_closed_stream_goes_quiet(self):
        stream = FakeTTY()
        rep = ProgressReporter(stream, interval=0.01)
        rep.phase_begin(10.0)
        stream.close()
        rep._render(0.0)  # must not raise
        assert not rep.enabled

    def test_heartbeat_thread_lifecycle(self):
        rep = ProgressReporter(FakeTTY(), interval=0.005)
        with rep:
            rep.phase_begin(10.0, label="p")
            rep.advance(5.0)
            import time

            time.sleep(0.03)
        assert rep._thread is None
        assert "\r" in rep.stream.getvalue()


class TestAmbient:
    def test_default_is_null(self):
        assert current_progress() is NULL_PROGRESS
        assert not NULL_PROGRESS.enabled
        NULL_PROGRESS.phase_begin(5.0)
        NULL_PROGRESS.advance(1.0)
        NULL_PROGRESS.phase_end()  # all no-ops

    def test_use_progress_installs_and_restores(self):
        rep = ProgressReporter(io.StringIO())
        with use_progress(rep):
            assert current_progress() is rep
        assert current_progress() is NULL_PROGRESS


class TestBackendWiring:
    def test_serial_traced_run_advances_progress(self):
        graph = erdos_renyi(120, 600, seed=2)
        rep = ProgressReporter(io.StringIO())
        tracer = Tracer()
        with use_tracer(tracer), use_progress(rep):
            ppscan(graph, ScanParams(eps=0.4, mu=3))
        snap = rep.snapshot()
        assert snap["phase"] >= 2  # similarity + later phases
        assert snap["fraction"] == pytest.approx(1.0)
        assert not snap["active"]

    def test_progress_alone_enables_instrumented_path(self):
        # Progress without tracing must still advance (the backends'
        # fast path is skipped when either one is enabled).
        graph = erdos_renyi(120, 600, seed=2)
        rep = ProgressReporter(io.StringIO())
        with use_progress(rep):
            result = ppscan(graph, ScanParams(eps=0.4, mu=3))
        assert rep.snapshot()["phase"] >= 2
        assert result.num_clusters >= 0

    def test_process_backend_supervised_advances_progress(self):
        from repro.parallel import ProcessBackend

        graph = erdos_renyi(200, 1200, seed=4)
        rep = ProgressReporter(io.StringIO())
        with use_progress(rep):
            result = ppscan(
                graph,
                ScanParams(eps=0.4, mu=3),
                backend=ProcessBackend(workers=2),
            )
        snap = rep.snapshot()
        assert snap["phase"] >= 1
        assert snap["fraction"] == pytest.approx(1.0)
        assert result.num_clusters >= 0
