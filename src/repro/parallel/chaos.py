"""Deterministic fault injection for the supervised process backend.

A :class:`FaultPlan` is a seeded, fully explicit list of :class:`Fault`
rules.  The plan is installed in the parent *before* the phase's workers
fork, so every worker sees the identical plan; each time a worker is
about to execute a task attempt it asks the plan whether a fault fires
for ``(phase, task_index, attempt, worker)``.  Because matching is pure
(no clocks, no randomness at fire time), every recovery path of the
:class:`~repro.parallel.backend.ProcessBackend` loop is reproducible in
CI from a seed.

Fault kinds
-----------
``kill``
    The worker process exits immediately (``os._exit``), simulating a
    segfault / OOM kill.  The supervisor must detect the dead worker,
    re-queue its task and respawn the lane.
``hang``
    The worker sleeps for ``seconds`` before computing the task,
    simulating a stuck task.  Only a per-task deadline catches this (the
    heartbeat thread keeps beating through a ``sleep``).
``stall``
    The worker SIGSTOPs itself, freezing *including* its heartbeat
    thread — the scenario heartbeat-gap detection exists for.
``delay``
    The worker sleeps for ``seconds`` and then completes normally; used
    to manufacture stragglers for speculative re-dispatch.
``error``
    The task attempt raises :class:`ChaosError` inside the worker,
    exercising the retry/backoff path without losing the process.

A fault with ``attempt=0`` (the default) fires only on the first
execution attempt, so the retry recovers; ``attempt=None`` fires on
*every* attempt, which is how a poison task is modelled.

Whole-process crashes
---------------------
The faults above kill *workers*; the supervisor survives them.  A
:class:`CrashPoint` kills the *driving process itself* at one named
site of one durable writer, the ``n``-th time that site is reached
(epoch, seq, lsn or compaction ordinal).  Sites are namespaced by
writer, so arming one never fires in another living in the same
process:

``checkpoint:before-save`` / ``checkpoint:after-save``
    around a :class:`~repro.checkpoint.CheckpointManager` snapshot of
    epoch ``n`` (crash-mid-phase: the previous epoch must carry the
    resume; crash-at-barrier: the fresh epoch must);
``ledger:mid-append`` / ``ledger:post-append``
    a torn prefix of run-ledger record ``seq=n`` on disk / record ``n``
    durable;
``wal:mid-append`` / ``wal:post-append``
    the same two sides of service-WAL record ``lsn=n``;
``wal:mid-compact`` / ``wal:post-compact``
    compaction ``n`` before the snapshot replace / after it but before
    the log truncation.

Crash harnesses arm one point through ``REPRO_CRASH="<site>:<n>"`` and
SIGKILL-equivalently ``os._exit`` the real CLI or service process;
in-process tests inject an ``exit_fn`` that raises instead, so the
Python state dies but the files on disk remain inspectable.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, fields
from enum import Enum
from random import Random

__all__ = [
    "FaultKind",
    "Fault",
    "FaultPlan",
    "ChaosError",
    "CrashPoint",
    "CRASH_EXIT_CODE",
]

#: Exit status of an armed :class:`CrashPoint` — the classic
#: 128+SIGKILL value, so the harness can tell an injected crash from
#: any ordinary failure.
CRASH_EXIT_CODE = 137

@dataclass(frozen=True)
class CrashPoint:
    """Kill the whole driving process at one (``site``, ``n``) event.

    ``site`` is one of :data:`SITES`; ``site=None`` disarms the point
    entirely, which is the default every writer runs with.

    ``exit_fn`` exists for in-process tests: the default ``None`` means
    ``os._exit(CRASH_EXIT_CODE)`` (no atexit, no finally blocks — as
    close to SIGKILL as Python gets), while a test can substitute a
    function that raises, leaving the written files behind for a
    recovery assertion.
    """

    site: str | None = None
    n: int | None = None
    exit_fn: object = None

    SITES = (
        "checkpoint:before-save",
        "checkpoint:after-save",
        "ledger:mid-append",
        "ledger:post-append",
        "wal:mid-append",
        "wal:post-append",
        "wal:mid-compact",
        "wal:post-compact",
    )

    def __post_init__(self) -> None:
        if self.site is not None and self.site not in self.SITES:
            raise ValueError(
                f"crash site must be one of {self.SITES}, got {self.site!r}"
            )

    @classmethod
    def from_env(cls, environ: dict | None = None) -> "CrashPoint":
        """An armed point from ``REPRO_CRASH="<site>:<n>"``, or a
        disarmed one when the variable is absent or malformed."""
        env = os.environ if environ is None else environ
        site, sep, number = env.get("REPRO_CRASH", "").rpartition(":")
        if not sep or site not in cls.SITES:
            return cls()
        try:
            return cls(site, int(number))
        except ValueError:
            return cls()

    def fire(self, site: str, n: int) -> None:
        """Die iff this point is armed for exactly (``site``, ``n``)."""
        if self.site != site or self.n != n:
            return
        if self.exit_fn is not None:
            self.exit_fn(CRASH_EXIT_CODE)
            return
        os._exit(CRASH_EXIT_CODE)


class ChaosError(RuntimeError):
    """Raised inside a worker by an ``error`` fault."""


class FaultKind(str, Enum):
    """What an injected fault does to the worker executing the task."""

    KILL = "kill"
    HANG = "hang"
    STALL = "stall"
    DELAY = "delay"
    ERROR = "error"


@dataclass(frozen=True)
class Fault:
    """One injection rule.

    ``None`` for ``task``, ``attempt``, ``worker`` or ``phase`` means
    "match any".  ``seconds`` parameterizes ``hang``/``delay``.
    """

    kind: FaultKind
    task: int | None = None
    attempt: int | None = 0
    worker: int | None = None
    phase: int | None = None
    seconds: float = 30.0

    def matches(
        self, phase: int, task: int, attempt: int, worker: int
    ) -> bool:
        return (
            (self.task is None or self.task == task)
            and (self.attempt is None or self.attempt == attempt)
            and (self.worker is None or self.worker == worker)
            and (self.phase is None or self.phase == phase)
        )

    def as_dict(self) -> dict:
        out = {"kind": self.kind.value}
        for f in fields(self):
            if f.name == "kind":
                continue
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Fault":
        data = dict(data)
        data["kind"] = FaultKind(data["kind"])
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of fault rules, optionally derived from a seed."""

    faults: tuple[Fault, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def lookup(
        self, phase: int, task: int, attempt: int, worker: int
    ) -> Fault | None:
        """First fault matching this execution attempt, or ``None``."""
        for fault in self.faults:
            if fault.matches(phase, task, attempt, worker):
                return fault
        return None

    def apply(self, phase: int, task: int, attempt: int, worker: int) -> None:
        """Fire the matching fault (if any) inside the worker process."""
        fault = self.lookup(phase, task, attempt, worker)
        if fault is None:
            return
        if fault.kind is FaultKind.KILL:
            os._exit(23)
        elif fault.kind is FaultKind.STALL:
            os.kill(os.getpid(), signal.SIGSTOP)
        elif fault.kind in (FaultKind.HANG, FaultKind.DELAY):
            time.sleep(fault.seconds)
        elif fault.kind is FaultKind.ERROR:
            raise ChaosError(
                f"injected fault: task {task} attempt {attempt} "
                f"(worker {worker}, phase {phase})"
            )

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_seed(
        cls,
        seed: int,
        *,
        tasks: int = 16,
        kills: int = 0,
        hangs: int = 0,
        delays: int = 0,
        errors: int = 0,
        poison: int = 0,
        phase: int | None = None,
        seconds: float = 30.0,
    ) -> "FaultPlan":
        """Sample distinct task indices for each fault kind from ``seed``.

        The same ``(seed, tasks, counts)`` always produce the same plan;
        indices are drawn without replacement so at most ``tasks`` faults
        fit.  ``poison`` kills fire on every attempt (a quarantinable
        task); plain ``kills`` fire only on attempt 0 (recoverable).
        """
        want = kills + hangs + delays + errors + poison
        if want > tasks:
            raise ValueError(
                f"cannot place {want} faults on {tasks} task indices"
            )
        rng = Random(seed)
        picked = rng.sample(range(tasks), want)
        it = iter(picked)
        plan: list[Fault] = []
        for _ in range(kills):
            plan.append(Fault(FaultKind.KILL, task=next(it), phase=phase))
        for _ in range(hangs):
            plan.append(
                Fault(FaultKind.HANG, task=next(it), phase=phase, seconds=seconds)
            )
        for _ in range(delays):
            plan.append(
                Fault(FaultKind.DELAY, task=next(it), phase=phase, seconds=seconds)
            )
        for _ in range(errors):
            plan.append(Fault(FaultKind.ERROR, task=next(it), phase=phase))
        for _ in range(poison):
            plan.append(
                Fault(FaultKind.KILL, task=next(it), attempt=None, phase=phase)
            )
        return cls(faults=tuple(plan), seed=seed)

    @classmethod
    def poison(cls, task: int, *, phase: int | None = None) -> "FaultPlan":
        """A plan whose single task kills its worker on every attempt."""
        return cls(
            faults=(Fault(FaultKind.KILL, task=task, attempt=None, phase=phase),)
        )

    # -- serialization ----------------------------------------------------

    def as_dict(self) -> dict:
        out: dict = {"faults": [f.as_dict() for f in self.faults]}
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            faults=tuple(Fault.from_dict(f) for f in data.get("faults", ())),
            seed=data.get("seed"),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a CLI ``--chaos-plan`` value.

        Accepts a path to a JSON plan file (``.save`` output) or a
        compact ``key=value`` spec, e.g. ``seed=42,tasks=16,kill=2`` —
        keys: ``seed``, ``tasks``, ``kill``, ``hang``, ``delay``,
        ``error``, ``poison``, ``phase``, ``seconds``.
        """
        if os.path.exists(spec) or spec.endswith(".json"):
            return cls.load(spec)
        kwargs: dict = {"seed": 0}
        aliases = {
            "kill": "kills",
            "hang": "hangs",
            "delay": "delays",
            "error": "errors",
        }
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad chaos spec field {part!r}: expected key=value"
                )
            key, _, value = part.partition("=")
            key = aliases.get(key.strip(), key.strip())
            if key == "seconds":
                kwargs[key] = float(value)
            else:
                kwargs[key] = int(value)
        seed = kwargs.pop("seed")
        return cls.from_seed(seed, **kwargs)
