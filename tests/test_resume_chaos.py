"""Crash/resume differentials: SIGKILL-shaped interruptions at seeded
checkpoint epochs must resume to bit-identical clusterings.

In-process variant of ``benchmarks/check_crash_restart.py``: the crash
point's ``exit_fn`` raises ``SimulatedCrash`` (a ``BaseException``, so no
``except Exception`` handler can absorb it) instead of ``os._exit``,
letting one pytest process play both the killed run and the resumed run.
"""

import numpy as np
import pytest

from repro.cache import SimilarityStore
from repro.checkpoint import CheckpointManager, ResumeMismatchError
from repro.core import anyscan, assert_same_clustering, ppscan, pscan, scanxp
from repro.graph.generators import erdos_renyi
from repro.parallel import (
    CrashPoint,
    Fault,
    FaultKind,
    FaultPlan,
    FaultTolerancePolicy,
    ProcessBackend,
    ResumableAbort,
    RetryBudgetExhaustedError,
)
from repro.sweep import SweepEngine
from repro.types import ScanParams


class SimulatedCrash(BaseException):
    """Stands in for SIGKILL: not an Exception, unwinds everything."""


def crasher(record):
    def exit_fn(code):
        record.append(code)
        raise SimulatedCrash

    return exit_fn


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(120, 700, seed=9)


@pytest.fixture(scope="module")
def params():
    return ScanParams(eps=0.4, mu=3)


RUNNERS = {
    "ppscan": lambda g, p, ck: ppscan(g, p, checkpoint=ck),
    "ppscan-batched": lambda g, p, ck: ppscan(
        g, p, exec_mode="batched", checkpoint=ck
    ),
    "pscan": lambda g, p, ck: pscan(g, p, checkpoint=ck),
    "pscan-batched": lambda g, p, ck: pscan(
        g, p, exec_mode="batched", checkpoint=ck
    ),
    "scanxp": lambda g, p, ck: scanxp(g, p, checkpoint=ck),
    "scanxp-batched": lambda g, p, ck: scanxp(
        g, p, exec_mode="batched", checkpoint=ck
    ),
    "anyscan": lambda g, p, ck: anyscan(g, p, alpha=48, checkpoint=ck),
}


def run_crash_resume(tmp_path, graph, params, run, *, epoch, mode):
    """Crash at (epoch, mode), resume, return the resumed result."""
    fired = []
    ck = CheckpointManager(
        tmp_path / "ck",
        every=10,
        crash_point=CrashPoint(
            f"checkpoint:{mode}", epoch, exit_fn=crasher(fired)
        ),
    )
    with pytest.raises(SimulatedCrash):
        run(graph, params, ck)
    assert fired, "crash point never fired"
    resumed = CheckpointManager(
        tmp_path / "ck", every=10, resume=True, crash_point=CrashPoint()
    )
    return run(graph, params, resumed)


class TestCrashResumeDifferential:
    """Each algorithm, killed mid-run, resumes to the identical answer."""

    @pytest.mark.parametrize("name", sorted(RUNNERS))
    @pytest.mark.parametrize("mode", ["before-save", "after-save"])
    def test_resume_is_bit_identical(
        self, tmp_path, graph, params, name, mode
    ):
        run = RUNNERS[name]
        reference = run(graph, params, None)
        out = run_crash_resume(
            tmp_path, graph, params, run, epoch=2, mode=mode
        )
        assert_same_clustering(reference, out)

    def test_resume_after_final_epoch_recomputes_cleanly(
        self, tmp_path, graph, params
    ):
        # Crash *after* the last save: resume restores the final barrier
        # snapshot and only re-derives the non-durable tail.
        run = RUNNERS["ppscan"]
        reference = run(graph, params, None)
        ck = CheckpointManager(tmp_path / "ck", every=10)
        run(graph, params, ck)
        final_epoch = ck.epoch
        out = run_crash_resume(
            tmp_path / "again",
            graph,
            params,
            run,
            epoch=final_epoch,
            mode="after-save",
        )
        assert_same_clustering(reference, out)

    def test_every_none_checkpoints_only_barriers(self, tmp_path, graph, params):
        ck = CheckpointManager(tmp_path / "ck")
        reference = ppscan(graph, params)
        out = ppscan(graph, params, checkpoint=ck)
        assert_same_clustering(reference, out)
        barrier_only = ck.epoch
        ck2 = CheckpointManager(tmp_path / "ck2", every=5)
        ppscan(graph, params, checkpoint=ck2)
        assert ck2.epoch > barrier_only


class TestResumeRefusals:
    def test_mismatched_graph_refused_via_algorithm(
        self, tmp_path, graph, params
    ):
        ck = CheckpointManager(tmp_path / "ck")
        ppscan(graph, params, checkpoint=ck)
        other = erdos_renyi(120, 700, seed=10)
        resumed = CheckpointManager(tmp_path / "ck", resume=True)
        with pytest.raises(ResumeMismatchError):
            ppscan(other, params, checkpoint=resumed)

    def test_mismatched_exec_mode_refused(self, tmp_path, graph, params):
        ck = CheckpointManager(tmp_path / "ck")
        ppscan(graph, params, checkpoint=ck)
        resumed = CheckpointManager(tmp_path / "ck", resume=True)
        with pytest.raises(ResumeMismatchError):
            ppscan(graph, params, exec_mode="batched", checkpoint=resumed)


class TestSupervisorFaultCheckpoint:
    """An exhausted supervisor writes a final checkpoint and re-raises as
    ResumableAbort; a later resume completes the run."""

    def test_fault_raises_resumable_abort(self, tmp_path, graph, params):
        ck = CheckpointManager(tmp_path / "ck", every=4)
        backend = ProcessBackend(2, chaos=FaultPlan.poison(0))
        with pytest.raises(ResumableAbort) as excinfo:
            ppscan(graph, params, backend=backend, checkpoint=ck)
        abort = excinfo.value
        assert abort.epoch >= 1
        assert abort.checkpoint_dir == ck.directory
        assert "--resume" in str(abort)
        assert abort.__cause__ is not None

        resumed = CheckpointManager(tmp_path / "ck", every=4, resume=True)
        out = ppscan(graph, params, checkpoint=resumed)
        assert_same_clustering(ppscan(graph, params), out)

    def test_fault_without_checkpoint_unchanged(self, graph, params):
        backend = ProcessBackend(2, chaos=FaultPlan.poison(0))
        with pytest.raises(Exception) as excinfo:
            ppscan(graph, params, backend=backend)
        assert not isinstance(excinfo.value, ResumableAbort)


class TestStoreCrashConsistency:
    def test_torn_spill_recomputes_identically(self, tmp_path, graph, params):
        reference = ppscan(graph, params)
        store = SimilarityStore(tmp_path / "cache")
        ppscan(graph, params, store=store)
        store.spill()
        # Tear the sidecar as an ill-timed crash would.
        sidecar = next((tmp_path / "cache").glob("*.json"))
        text = sidecar.read_text()
        sidecar.write_text(text[: len(text) // 2])
        cold = SimilarityStore(tmp_path / "cache")
        out = ppscan(graph, params, store=cold)
        assert cold.rejects == 1
        assert_same_clustering(reference, out)

    def test_crash_then_resume_with_store(self, tmp_path, graph, params):
        reference = ppscan(graph, params)
        store = SimilarityStore(tmp_path / "cache")
        out = run_crash_resume(
            tmp_path,
            graph,
            params,
            lambda g, p, ck: ppscan(g, p, store=store, checkpoint=ck),
            epoch=2,
            mode="after-save",
        )
        assert_same_clustering(reference, out)


class TestSweepResume:
    EPS = [0.3, 0.5]
    MU = [2, 4]

    def test_sweep_crash_resume_identical_points(self, tmp_path, graph):
        reference = SweepEngine(graph).run(self.EPS, self.MU)
        fired = []
        ck = CheckpointManager(
            tmp_path / "ck",
            crash_point=CrashPoint(
                "checkpoint:after-save", 2, exit_fn=crasher(fired)
            ),
        )
        with pytest.raises(SimulatedCrash):
            SweepEngine(
                graph, cache_dir=tmp_path / "cache", checkpoint=ck
            ).run(self.EPS, self.MU)
        assert fired
        resumed = CheckpointManager(
            tmp_path / "ck", resume=True, crash_point=CrashPoint()
        )
        outcome = SweepEngine(
            graph, cache_dir=tmp_path / "cache", checkpoint=resumed
        ).run(self.EPS, self.MU)
        assert len(outcome.points) == len(reference.points)
        for ref_pt, out_pt in zip(reference.points, outcome.points):
            assert (ref_pt.eps, ref_pt.mu) == (out_pt.eps, out_pt.mu)
            assert (
                ref_pt.result.canonical() == out_pt.result.canonical()
            ), f"sweep point ({out_pt.eps}, {out_pt.mu}) diverged on resume"
        # Resume must never lose cache reuse relative to the clean run.
        assert (
            outcome.stats.reuse_fraction
            >= reference.stats.reuse_fraction - 1e-12
        )


class TestBackoffJitter:
    def test_jitter_disabled_by_default(self):
        policy = FaultTolerancePolicy(backoff_base=0.1, backoff_cap=1.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)

    def test_jitter_is_deterministic_per_seed(self):
        a = FaultTolerancePolicy(backoff_jitter=0.5, jitter_seed=42)
        b = FaultTolerancePolicy(backoff_jitter=0.5, jitter_seed=42)
        delays_a = [a.backoff(k, task=t) for k in (1, 2, 3) for t in (0, 7)]
        delays_b = [b.backoff(k, task=t) for k in (1, 2, 3) for t in (0, 7)]
        assert delays_a == delays_b

    def test_different_seeds_decorrelate(self):
        a = FaultTolerancePolicy(backoff_jitter=0.5, jitter_seed=1)
        b = FaultTolerancePolicy(backoff_jitter=0.5, jitter_seed=2)
        assert [a.backoff(k) for k in range(1, 6)] != [
            b.backoff(k) for k in range(1, 6)
        ]

    def test_jitter_bounded(self):
        policy = FaultTolerancePolicy(
            backoff_base=0.1, backoff_cap=1.0, backoff_jitter=0.25
        )
        for attempt in range(1, 8):
            for task in range(5):
                delay = policy.backoff(attempt, task=task)
                base = min(0.1 * 2 ** (attempt - 1), 1.0)
                assert base <= delay <= base * 1.25

    def test_retry_wall_clock_cap(self):
        plan = FaultPlan(
            faults=(Fault(FaultKind.ERROR, task=3, attempt=None),)
        )
        policy = FaultTolerancePolicy(
            max_retries=50,
            backoff_base=0.05,
            backoff_cap=0.05,
            max_retry_wall=0.12,
        )
        backend = ProcessBackend(2, policy=policy, chaos=plan)
        tasks = [(i * 4, (i + 1) * 4) for i in range(8)]

        def run_task(beg, end):
            from repro.metrics import TaskCost

            return [(i, i) for i in range(beg, end)], TaskCost(arcs=end - beg)

        with pytest.raises(RetryBudgetExhaustedError) as excinfo:
            backend.run_phase(tasks, run_task, lambda writes: None)
        assert "wall-clock" in str(excinfo.value)
