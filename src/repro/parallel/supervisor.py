"""Fault-tolerance policy and structured failure reports.

:class:`~repro.parallel.backend.ProcessBackend` runs every phase under
one supervised loop (see :mod:`repro.parallel.backend`).  This module
holds what that loop is configured by and what it reports:

* :class:`FaultTolerancePolicy` — the one place retry, timeout,
  heartbeat, respawn, quarantine and speculation settings are set;
  invalid values are rejected at construction, so no setting can leave
  a phase without a way to finish;
* :class:`RecoveryEvent` — one recovery action (crash, retry, respawn,
  quarantine, degrade, ...), accumulated on the backend and mirrored as
  ``supervisor.*`` counters and ``recovery:*`` spans;
* :class:`TaskFailure` / :class:`QuarantineReport` — structured records
  of failed attempts and of a quarantined poison task;
* :class:`ExecutionFaultError` and its subclasses — what a phase raises
  when it cannot finish within the policy.

Correctness never depends on any of this: task bodies buffer their
writes, the parent commits once per task at the phase barrier in task
order, and a re-executed task recomputes the same writes (the paper's
Theorems 4.1–4.5 hold under any interleaving, including re-execution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

__all__ = [
    "FaultTolerancePolicy",
    "RecoveryEvent",
    "TaskFailure",
    "QuarantineReport",
    "ExecutionFaultError",
    "RetryBudgetExhaustedError",
    "PoisonTaskError",
    "ResumableAbort",
]


# ---------------------------------------------------------------------------
# Policy and structured reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultTolerancePolicy:
    """Tunables of the supervised execution loop.

    ``max_retries`` bounds the re-dispatches of one task.
    ``task_timeout`` is the *base* deadline in seconds for a task of
    average modelled cost; an individual task's deadline is scaled by
    its cost share (``weight / mean weight``), so a huge task is not
    misdiagnosed as hung.  ``None`` disables deadlines.  Every field is
    validated at construction (:class:`ValueError` on a bad value).
    """

    max_retries: int = 3
    task_timeout: float | None = None
    poison_threshold: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Multiplicative jitter fraction on each backoff delay (0 disables).
    #: Jitter is drawn deterministically from ``jitter_seed`` keyed by
    #: (task, attempt), so a seeded chaos run retries on an identical
    #: schedule every time — delays never influence the clustering, only
    #: when retries land.
    backoff_jitter: float = 0.0
    jitter_seed: int = 0
    #: Cap on the *total* backoff wall-clock one task may accumulate; a
    #: retry whose delay would exceed it fails fatally (the existing
    #: retry budget, expressed in seconds instead of attempts).
    max_retry_wall: float | None = None
    heartbeat_interval: float = 0.2
    heartbeat_timeout: float | None = None
    max_respawns: int | None = None
    min_workers: int = 1
    speculative: bool = True
    straggler_after: float = 0.5

    def __post_init__(self) -> None:
        at_least_one = ("poison_threshold", "min_workers")
        non_negative = (
            "max_retries", "max_respawns", "backoff_base", "backoff_cap",
            "backoff_jitter", "straggler_after",
        )
        positive = (
            "heartbeat_interval", "task_timeout", "heartbeat_timeout",
            "max_retry_wall",
        )
        for name in at_least_one:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in non_negative:
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in positive:
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0")

    def respawn_budget(self, workers: int) -> int:
        if self.max_respawns is not None:
            return self.max_respawns
        return 4 * workers

    def backoff(self, attempt: int, *, task: int = 0) -> float:
        """Delay before dispatching ``attempt`` (attempt 1 = first retry)."""
        delay = min(
            self.backoff_base * (2 ** max(attempt - 1, 0)), self.backoff_cap
        )
        if self.backoff_jitter > 0.0:
            # random.Random wants an int seed; mix (seed, task, attempt)
            # with distinct odd multipliers so nearby keys decorrelate.
            mixed = (
                self.jitter_seed * 1_000_003 + task * 8191 + attempt
            ) & 0x7FFFFFFFFFFFFFFF
            frac = Random(mixed).random()
            delay *= 1.0 + self.backoff_jitter * frac
        return delay


@dataclass(frozen=True)
class RecoveryEvent:
    """One supervisor action, in occurrence order."""

    kind: str  # crash | timeout | heartbeat_gap | retry | respawn |
    #            quarantine | degrade | speculative | task_error
    phase: int
    task: int | None = None
    attempt: int | None = None
    worker: int | None = None
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "phase": self.phase,
            "task": self.task,
            "attempt": self.attempt,
            "worker": self.worker,
            "detail": self.detail,
        }


@dataclass
class TaskFailure:
    """One failed attempt of one task."""

    task: int
    attempt: int
    worker: int | None
    kind: str  # crash | timeout | heartbeat_gap | error
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "task": self.task,
            "attempt": self.attempt,
            "worker": self.worker,
            "kind": self.kind,
            "detail": self.detail,
        }


@dataclass
class QuarantineReport:
    """Structured description of a quarantined (poison) task."""

    task: int
    task_range: tuple[int, int]
    phase: int
    workers_killed: int
    failures: list[TaskFailure] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "task": self.task,
            "task_range": list(self.task_range),
            "phase": self.phase,
            "workers_killed": self.workers_killed,
            "failures": [f.as_dict() for f in self.failures],
        }

    def describe(self) -> str:
        beg, end = self.task_range
        lines = [
            f"quarantined poison task {self.task} "
            f"(vertices [{beg}, {end}), phase {self.phase}): "
            f"killed {self.workers_killed} workers in a row",
        ]
        for f in self.failures:
            lines.append(
                f"  attempt {f.attempt}: {f.kind} on worker {f.worker}"
                + (f" — {f.detail}" if f.detail else "")
            )
        return "\n".join(lines)


class ExecutionFaultError(RuntimeError):
    """A phase could not be completed within the fault-tolerance policy."""

    def __init__(
        self,
        message: str,
        *,
        failures: list[TaskFailure] | None = None,
        events: list[RecoveryEvent] | None = None,
    ) -> None:
        super().__init__(message)
        self.failures = failures or []
        self.events = events or []
        self.stage: str | None = None
        self.algorithm: str | None = None

    def locate(self, *, stage: str, algorithm: str) -> "ExecutionFaultError":
        """Attach the phase-loop context (stage + algorithm) and return self."""
        self.stage = stage
        self.algorithm = algorithm
        return self

    def __str__(self) -> str:
        base = super().__str__()
        if self.stage is not None:
            where = self.algorithm or "run"
            return f"{base} [in {where} stage {self.stage!r}]"
        return base


class RetryBudgetExhaustedError(ExecutionFaultError):
    """A task failed more times than ``policy.max_retries`` allows."""


class PoisonTaskError(ExecutionFaultError):
    """A task was quarantined after killing too many workers in a row."""

    def __init__(self, report: QuarantineReport, **kwargs) -> None:
        super().__init__(report.describe().splitlines()[0], **kwargs)
        self.report = report


class ResumableAbort(ExecutionFaultError):
    """A fatal execution fault *after* a final checkpoint was written.

    Raised by checkpoint-aware phase loops in place of the underlying
    :class:`ExecutionFaultError` (kept as ``__cause__``) once the run's
    progress up to the failed phase is durably on disk: the caller can
    re-run with ``--resume`` and lose only the phase suffix that never
    committed.  Carries the saved ``epoch`` and ``checkpoint_dir``.
    """

    def __init__(
        self, message: str, *, epoch: int, checkpoint_dir, **kwargs
    ) -> None:
        super().__init__(message, **kwargs)
        self.epoch = epoch
        self.checkpoint_dir = checkpoint_dir

    @classmethod
    def from_fault(
        cls, fault: ExecutionFaultError, *, epoch: int, directory
    ) -> "ResumableAbort":
        out = cls(
            f"{RuntimeError.__str__(fault)} — checkpoint epoch {epoch} "
            f"saved to {directory}; re-run with --resume to continue",
            epoch=epoch,
            checkpoint_dir=directory,
            failures=list(fault.failures),
            events=list(fault.events),
        )
        out.stage = fault.stage
        out.algorithm = fault.algorithm
        out.__cause__ = fault
        return out
