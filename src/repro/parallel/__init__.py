"""Parallel runtime: machine models, scheduling, backends, supervision."""

from .machine import CPU_SERVER, KNL_SERVER, MachineSpec
from .scheduler import (
    DEFAULT_DEGREE_THRESHOLD,
    arc_range_cost_model,
    degree_based_tasks,
    uniform_tasks,
)
from .simthread import assign_tasks, greedy_makespan
from .chaos import (
    CRASH_EXIT_CODE,
    ChaosError,
    Fault,
    FaultKind,
    FaultPlan,
    CrashPoint,
)
from .supervisor import (
    ExecutionFaultError,
    FaultTolerancePolicy,
    PoisonTaskError,
    QuarantineReport,
    RecoveryEvent,
    ResumableAbort,
    RetryBudgetExhaustedError,
    TaskFailure,
)
from .backend import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    commit_arc_states,
)
from .trace import ScheduleTrace, trace_stage

__all__ = [
    "MachineSpec",
    "CPU_SERVER",
    "KNL_SERVER",
    "DEFAULT_DEGREE_THRESHOLD",
    "degree_based_tasks",
    "uniform_tasks",
    "arc_range_cost_model",
    "assign_tasks",
    "greedy_makespan",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "commit_arc_states",
    "ScheduleTrace",
    "trace_stage",
    # fault tolerance
    "FaultTolerancePolicy",
    "RecoveryEvent",
    "TaskFailure",
    "QuarantineReport",
    "ExecutionFaultError",
    "RetryBudgetExhaustedError",
    "PoisonTaskError",
    "ResumableAbort",
    # fault injection
    "FaultKind",
    "Fault",
    "FaultPlan",
    "ChaosError",
    "CrashPoint",
    "CRASH_EXIT_CODE",
]
