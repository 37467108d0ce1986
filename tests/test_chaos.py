"""Fault-tolerant execution: supervisor recovery paths + chaos injection."""

import json

import pytest

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
    RetryBudgetExhaustedError,
    SerialBackend,
    arc_range_cost_model,
)
from repro.types import ScanParams

TASKS = [(i * 4, (i + 1) * 4) for i in range(16)]
EXPECT = {i: i * i for i in range(64)}


def make_phase():
    acc = {}

    def run_task(beg, end):
        return [(i, i * i) for i in range(beg, end)], TaskCost(arcs=end - beg)

    def commit(writes):
        for key, value in writes:
            assert key not in acc  # exactly-once commit per vertex
            acc[key] = value

    return acc, run_task, commit


def event_kinds(backend):
    return [e.kind for e in backend.recovery_events]


class TestFaultPlan:
    def test_seeded_plan_is_deterministic(self):
        a = FaultPlan.from_seed(42, tasks=16, kills=2, errors=1)
        b = FaultPlan.from_seed(42, tasks=16, kills=2, errors=1)
        assert a == b
        assert len(a.faults) == 3

    def test_attempt_matching(self):
        fault = Fault(FaultKind.KILL, task=3)  # attempt=0 default
        assert fault.matches(0, 3, 0, 1)
        assert not fault.matches(0, 3, 1, 1)  # retry goes through
        poison = Fault(FaultKind.KILL, task=3, attempt=None)
        assert poison.matches(0, 3, 5, 1)

    def test_roundtrip_json(self, tmp_path):
        plan = FaultPlan.from_seed(7, tasks=8, kills=1, poison=1)
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan
        # the file is valid JSON with explicit fault rules
        data = json.loads(path.read_text())
        assert len(data["faults"]) == 2

    def test_parse_spec_and_path(self, tmp_path):
        plan = FaultPlan.parse("seed=42,tasks=16,kill=2")
        assert plan == FaultPlan.from_seed(42, tasks=16, kills=2)
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.parse(str(path)) == plan

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("not a spec")

    def test_too_many_faults_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_seed(0, tasks=2, kills=3)


class TestFaultTolerancePolicy:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("min_workers", 0),
            ("poison_threshold", 0),
            ("max_retries", -1),
            ("max_respawns", -1),
            ("heartbeat_interval", 0.0),
            ("task_timeout", 0.0),
            ("heartbeat_timeout", -1.0),
            ("max_retry_wall", 0.0),
            ("backoff_base", -0.1),
            ("backoff_cap", -1.0),
            ("backoff_jitter", -0.5),
            ("straggler_after", -1.0),
        ],
    )
    def test_rejects_invalid_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            FaultTolerancePolicy(**{field: value})

    def test_boundary_values_accepted(self):
        FaultTolerancePolicy(
            max_retries=0,
            max_respawns=0,
            backoff_base=0.0,
            backoff_cap=0.0,
            backoff_jitter=0.0,
            straggler_after=0.0,
        )


class TestSupervisorRecovery:
    def test_no_faults_matches_serial(self):
        acc, run_task, commit = make_phase()
        ProcessBackend(4).run_phase(TASKS, run_task, commit)
        assert acc == EXPECT

    def test_worker_kills_recovered(self):
        acc, run_task, commit = make_phase()
        backend = ProcessBackend(
            4, chaos=FaultPlan.from_seed(42, tasks=16, kills=2)
        )
        backend.run_phase(TASKS, run_task, commit)
        assert acc == EXPECT
        kinds = event_kinds(backend)
        assert kinds.count("crash") == 2
        assert "retry" in kinds and "respawn" in kinds

    def test_poison_task_quarantined(self):
        acc, run_task, commit = make_phase()
        backend = ProcessBackend(4, chaos=FaultPlan.poison(5))
        with pytest.raises(PoisonTaskError) as excinfo:
            backend.run_phase(TASKS, run_task, commit)
        report = excinfo.value.report
        assert report.task == 5
        assert report.task_range == (20, 24)
        assert report.workers_killed == 3  # default poison_threshold
        assert len(report.failures) == 3
        assert "quarantine" in event_kinds(backend)

    def test_pool_collapse_degrades_to_serial(self):
        acc, run_task, commit = make_phase()
        plan = FaultPlan(
            faults=tuple(
                Fault(FaultKind.KILL, worker=w, task=None) for w in range(4)
            )
        )
        policy = FaultTolerancePolicy(
            max_retries=50, max_respawns=0, poison_threshold=100
        )
        backend = ProcessBackend(4, policy=policy, chaos=plan)
        backend.run_phase(TASKS, run_task, commit)
        assert acc == EXPECT
        assert "degrade" in event_kinds(backend)

    def test_error_fault_retried(self):
        acc, run_task, commit = make_phase()
        backend = ProcessBackend(
            4, chaos=FaultPlan.from_seed(7, tasks=16, errors=3)
        )
        backend.run_phase(TASKS, run_task, commit)
        assert acc == EXPECT
        kinds = event_kinds(backend)
        assert kinds.count("task_error") == 3
        # errors don't kill the process: no respawns needed
        assert "respawn" not in kinds

    def test_retry_budget_exhausted(self):
        acc, run_task, commit = make_phase()
        plan = FaultPlan(faults=(Fault(FaultKind.ERROR, task=3, attempt=None),))
        backend = ProcessBackend(
            4, policy=FaultTolerancePolicy(max_retries=2), chaos=plan
        )
        with pytest.raises(RetryBudgetExhaustedError) as excinfo:
            backend.run_phase(TASKS, run_task, commit)
        assert len(excinfo.value.failures) == 3  # 1 try + 2 retries

    def test_hang_caught_by_task_deadline(self):
        acc, run_task, commit = make_phase()
        plan = FaultPlan(faults=(Fault(FaultKind.HANG, task=2, seconds=30.0),))
        backend = ProcessBackend(
            4, policy=FaultTolerancePolicy(task_timeout=0.5), chaos=plan
        )
        backend.run_phase(TASKS, run_task, commit)
        assert acc == EXPECT
        assert "timeout" in event_kinds(backend)

    def test_stall_caught_by_heartbeat_gap(self):
        acc, run_task, commit = make_phase()
        plan = FaultPlan(faults=(Fault(FaultKind.STALL, task=9),))
        policy = FaultTolerancePolicy(
            heartbeat_interval=0.05, heartbeat_timeout=0.5
        )
        backend = ProcessBackend(4, policy=policy, chaos=plan)
        backend.run_phase(TASKS, run_task, commit)
        assert acc == EXPECT
        assert "heartbeat_gap" in event_kinds(backend)


class TestEndToEndClustering:
    """Chaos-injected parallel runs stay bit-identical to serial runs."""

    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi(300, 2400, seed=5)

    @pytest.fixture(scope="class")
    def params(self):
        return ScanParams(eps=0.3, mu=2)

    def test_kills_mid_phase_identical_labels(self, graph, params):
        serial = ppscan(graph, params, backend=SerialBackend())
        backend = ProcessBackend(
            4,
            chaos=FaultPlan.from_seed(42, tasks=16, kills=2),
            cost_model=arc_range_cost_model(graph.offsets),
        )
        chaotic = ppscan(graph, params, backend=backend)
        assert_same_clustering(serial, chaotic)
        assert any(e.kind == "crash" for e in backend.recovery_events)

    def test_recovery_events_reach_trace(self, graph, params):
        backend = ProcessBackend(
            2, chaos=FaultPlan.from_seed(42, tasks=16, kills=1)
        )
        tracer = Tracer()
        with use_tracer(tracer):
            ppscan(graph, params, backend=backend)
        metrics = tracer.metrics.as_dict()
        assert metrics.get("supervisor.crash", 0) >= 1
        assert metrics.get("supervisor.retry", 0) >= 1
        kinds = {s.name for s in tracer.sorted_spans()}
        assert "recovery:crash" in kinds and "recovery:retry" in kinds

    def test_fault_error_locates_stage(self, graph, params):
        backend = ProcessBackend(2, chaos=FaultPlan.poison(0))
        with pytest.raises(PoisonTaskError) as excinfo:
            ppscan(graph, params, backend=backend)
        assert excinfo.value.algorithm == "ppscan"
        assert excinfo.value.stage is not None
        assert "stage" in str(excinfo.value)
