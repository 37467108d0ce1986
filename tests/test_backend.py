"""Execution backends: serial vs process, write/commit protocol."""

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.checkpoint import CheckpointManager
from repro.core import assert_same_clustering, ppscan
from repro.graph.generators import erdos_renyi
from repro.metrics import TaskCost
from repro.obs import Tracer, use_tracer
from repro.parallel import (
    Fault,
    FaultKind,
    FaultPlan,
    FaultTolerancePolicy,
    PoisonTaskError,
    ProcessBackend,
    ResumableAbort,
    SerialBackend,
)
from repro.types import ScanParams


def make_square_task(results: list):
    def run_task(beg, end):
        writes = [(i, i * i) for i in range(beg, end)]
        return writes, TaskCost(arcs=end - beg)

    def commit(writes):
        results.extend(writes)

    return run_task, commit


class TestSerialBackend:
    def test_runs_in_order_and_commits(self):
        results = []
        run_task, commit = make_square_task(results)
        records = SerialBackend().run_phase(
            [(0, 3), (3, 5)], run_task, commit
        )
        assert results == [(i, i * i) for i in range(5)]
        assert [r.arcs for r in records] == [3, 2]

    def test_commit_interleaves_with_tasks(self):
        """Serial backend commits task N before running task N+1."""
        seen_at_start = []
        state = []

        def run_task(beg, end):
            seen_at_start.append(len(state))
            return list(range(beg, end)), TaskCost()

        def commit(writes):
            state.extend(writes)

        SerialBackend().run_phase([(0, 2), (2, 4)], run_task, commit)
        assert seen_at_start == [0, 2]

    def test_empty_phase(self):
        assert SerialBackend().run_phase([], lambda b, e: None, lambda w: None) == []


class TestProcessBackend:
    def test_same_results_as_serial(self):
        serial_results, proc_results = [], []
        run_s, commit_s = make_square_task(serial_results)
        run_p, commit_p = make_square_task(proc_results)
        tasks = [(0, 4), (4, 8), (8, 12)]
        SerialBackend().run_phase(tasks, run_s, commit_s)
        ProcessBackend(workers=2).run_phase(tasks, run_p, commit_p)
        assert sorted(serial_results) == sorted(proc_results)

    def test_bulk_synchronous_commits(self):
        """Process backend defers all commits to the phase barrier: no task
        observes another task's writes."""
        state = []
        observed = []

        def run_task(beg, end):
            # Tasks run in forked workers: report what this one saw.
            return (len(state), list(range(beg, end))), TaskCost()

        def commit(writes):
            seen, values = writes
            observed.append(seen)
            state.extend(values)

        # A single worker still applies BSP semantics.
        ProcessBackend(workers=1).run_phase(
            [(0, 2), (2, 4), (4, 6)], run_task, commit
        )
        assert observed == [0, 0, 0]
        assert len(state) == 6

    def test_records_preserved_per_task(self):
        def run_task(beg, end):
            return None, TaskCost(scalar_cmp=end - beg)

        records = ProcessBackend(workers=2).run_phase(
            [(0, 5), (5, 7)], run_task, lambda w: None
        )
        assert [r.scalar_cmp for r in records] == [5, 2]

    def test_single_task_phase(self):
        records = ProcessBackend(workers=4).run_phase(
            [(0, 3)], lambda b, e: (None, TaskCost(arcs=e - b)), lambda w: None
        )
        assert records[0].arcs == 3

    def test_default_workers_positive(self):
        assert ProcessBackend().workers >= 1

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ProcessBackend(workers=0)


# Runs in a child interpreter: the first attempt of task 0 kills its
# worker with os._exit, and the phase must still commit every write.
_CRASH_ONCE = textwrap.dedent(
    """
    import json, os, sys
    from repro.metrics import TaskCost
    from repro.parallel import ProcessBackend

    marker = sys.argv[1]
    parent = os.getpid()

    def run_task(beg, end):
        if beg == 0 and os.getpid() != parent:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os._exit(1)
        return [(i, i * i) for i in range(beg, end)], TaskCost()

    state = {}
    backend = ProcessBackend(workers=2)
    backend.run_phase(
        [(0, 3), (3, 6), (6, 9)], run_task, lambda writes: state.update(writes)
    )
    print(json.dumps({
        "state": sorted(state.items()),
        "events": [e.kind for e in backend.recovery_events],
    }))
    """
)


class TestProcessBackendLiveness:
    def test_worker_crash_recovered_by_default(self, tmp_path):
        """A default-constructed backend survives a worker that dies."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _CRASH_ONCE, str(tmp_path / "died")],
                capture_output=True,
                text=True,
                timeout=60,
                env=env,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("phase hung after a worker crash")
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "died").exists()  # the crash really happened
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["state"] == [[i, i * i] for i in range(9)]
        assert "crash" in out["events"]


class TestPoolLifecycle:
    """One warm pool per run: forked once, replayed, always torn down."""

    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi(300, 2400, seed=5)

    @pytest.fixture(scope="class")
    def params(self):
        return ScanParams(eps=0.3, mu=2)

    @pytest.fixture(autouse=True)
    def no_leftover_children(self):
        before = set(multiprocessing.active_children())
        yield
        assert set(multiprocessing.active_children()) <= before

    def test_run_forks_workers_once(self, graph, params):
        backend = ProcessBackend(2)
        tracer = Tracer()
        with use_tracer(tracer):
            result = ppscan(graph, params, backend=backend, exec_mode="batched")
        metrics = tracer.metrics.as_dict()
        assert backend._phase >= 4  # several phases ...
        assert metrics["backend.process.spawns"] == 2  # ... one pool
        assert_same_clustering(ppscan(graph, params), result)

    def test_no_child_left_after_poison(self, graph, params):
        with pytest.raises(PoisonTaskError):
            ppscan(graph, params, backend=ProcessBackend(2, chaos=FaultPlan.poison(0)))

    def test_no_child_left_after_resumable_abort(self, tmp_path, graph, params):
        ck = CheckpointManager(tmp_path / "ck", every=4)
        backend = ProcessBackend(2, chaos=FaultPlan.poison(0, phase=1))
        with pytest.raises(ResumableAbort):
            ppscan(graph, params, backend=backend, checkpoint=ck)

    def test_kill_in_a_later_phase_is_bit_identical(self, graph, params):
        plan = FaultPlan(faults=(Fault(FaultKind.KILL, task=0, phase=2),))
        backend = ProcessBackend(2, chaos=plan)
        result = ppscan(graph, params, backend=backend)
        assert_same_clustering(ppscan(graph, params), result)
        crashes = [e for e in backend.recovery_events if e.kind == "crash"]
        assert [(e.phase, e.task) for e in crashes] == [(2, 0)]

    def test_late_completion_from_an_earlier_phase_is_dropped(self):
        # Phase 0's task 1 sleeps on its first attempt; its speculative
        # twin wins, and the sleeper reports while phase 1 runs the same
        # (task, attempt) pair.  Taking that report as phase 1's would
        # commit phase 0's payload there.
        plan = FaultPlan(
            faults=(Fault(FaultKind.DELAY, task=1, phase=0, seconds=1.0),)
        )
        backend = ProcessBackend(
            2, policy=FaultTolerancePolicy(straggler_after=0.05), chaos=plan
        )
        committed = {0: [], 1: []}

        def body(phase, nap):
            def run_task(beg, end):
                time.sleep(nap)
                return (phase, beg), TaskCost()

            def commit(writes):
                committed[phase].append(writes)

            return run_task, commit

        first, second = body(0, 0.0), body(1, 0.6)
        tasks = [(0, 1), (1, 2)]
        tracer = Tracer()
        with use_tracer(tracer), backend.pool([first, second]):
            backend.run_phase(tasks, *first)
            backend.run_phase(tasks, *second)
        assert committed == {0: [(0, 0), (0, 1)], 1: [(1, 0), (1, 1)]}
        assert "speculative" in [e.kind for e in backend.recovery_events]
        assert tracer.metrics.as_dict()["backend.process.late_results"] == 1

    def test_idle_time_between_phases_is_not_a_heartbeat_gap(self):
        policy = FaultTolerancePolicy(
            heartbeat_interval=0.05, heartbeat_timeout=0.3
        )
        backend = ProcessBackend(2, policy=policy)
        results = []
        body = make_square_task(results)
        with backend.pool([body]):
            backend.run_phase([(0, 2), (2, 4)], *body)
            time.sleep(0.6)  # the parent is busy elsewhere between phases
            backend.run_phase([(4, 6), (6, 8)], *body)
        assert sorted(results) == [(i, i * i) for i in range(8)]
        assert backend.recovery_events == []

    def test_body_outside_the_pool_is_refused(self):
        backend = ProcessBackend(1)
        run_task, commit = make_square_task([])
        with backend.pool([(run_task, commit)]):
            with pytest.raises(ValueError, match="pool"):
                backend.run_phase([(0, 1)], run_task, lambda writes: None)
