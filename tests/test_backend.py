"""Execution backends: serial vs process, write/commit protocol."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.metrics import TaskCost
from repro.parallel import ProcessBackend, SerialBackend


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
