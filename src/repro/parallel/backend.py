"""Execution backends for the phase/task/commit model.

ppSCAN's phases are executed through a small protocol:

* ``run_task(beg, end) -> (writes, TaskCost)`` — performs the vertex
  computations of one task.  Reads shared state freely; buffers its writes.
* ``commit(writes)`` — applies a task's buffered writes to shared state.

A run hands the backend every phase body it will execute up front —
``with backend.pool(bodies):`` — and then calls ``run_phase`` once per
phase; a ``run_phase`` outside a pool opens a one-phase pool for itself.

``SerialBackend`` commits after every task, which is one legal
interleaving of the paper's lock-free execution (later tasks observe
earlier tasks' similarity values, maximizing reuse — this is the canonical
backend whose counts the figures report).

``ProcessBackend`` runs each phase's tasks in forked worker processes and
commits all writes at the phase barrier (bulk-synchronous).  That is the
*weakest* write visibility the paper's correctness proofs admit (Theorems
4.1–4.5 hold under any interleaving, including "none within a phase" and
re-executing a task), so results are identical; only the amount of
intra-phase similarity reuse can differ.

The worker pool lives for one ``pool`` block, not one phase.  Workers fork
at the block's first non-empty phase, so they inherit the bodies, the CSR
arrays and the run state as it stands then, copy-on-write; no graph data
is pickled.  From then on the parent changes run state only through
``commit``: at each barrier it sends the phase's task payloads, in task
order, to every live worker, which applies them with the same ``commit``
before it runs anything of the next phase.  Every worker therefore starts
each phase with exactly the parent's state.  (Caches a worker fills for
itself, such as a similarity-store entry, hold exact values: they change
a task's cost, never its result.)  A worker forked later (a
respawn, or a lane topped up at a phase start) copies the parent's
current state and needs no replay.  The block's exit kills the workers,
on success or on any fault: they hold nothing that needs a clean exit.

Every process phase runs under one supervised event loop:

* the parent pushes tasks to each worker's command pipe in cost-balanced
  batches (guided self-scheduling: half an even share of the remaining
  modelled cost at a time); the worker reports synchronous
  ``start``/``done``/``err`` messages per task, plus heartbeats, over its
  own result pipe, so a crash is attributed to the attempt it
  interrupted.  Every message carries the phase number, so a late
  completion from an earlier phase (a speculative loser) is dropped;
* a per-task deadline — ``policy.task_timeout`` scaled by the task's
  modelled cost share — catches hung tasks whose heartbeats still beat,
  and a heartbeat gap catches frozen processes;
* dead or hung workers are killed and respawned (bounded by
  ``policy.max_respawns`` per phase); the attempt they were running is
  retried with exponential backoff under a bounded retry budget, and the
  tasks they had been sent but not started go back to the queue;
* a task whose attempts kill ``policy.poison_threshold`` workers in a
  row is *quarantined*: the phase aborts with a structured
  :class:`~repro.parallel.supervisor.QuarantineReport`;
* when every worker is gone and the respawn budget is exhausted, the
  remaining tasks run serially in the parent (fault injection is
  worker-scoped, so this always makes progress);
* near the phase barrier, still-running stragglers are speculatively
  re-dispatched to idle workers; the first completion wins.

The parent commits once per task at the barrier, in task order, and
drops duplicate completions, so none of this can change the clustering.
Every recovery action is appended to ``ProcessBackend.recovery_events``
and, when a tracer is ambient, mirrored as ``supervisor.*`` counters and
``recovery:*`` spans; every fork counts ``backend.process.spawns``.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import select
import struct
import threading
import time
import traceback
from collections import deque
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Callable, ContextManager, Iterator, Protocol, Sequence

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None

from ..metrics.records import TaskCost
from ..obs.progress import current_progress
from ..obs.tracer import current_tracer
from .chaos import FaultPlan
from .supervisor import (
    ExecutionFaultError,
    FaultTolerancePolicy,
    PoisonTaskError,
    QuarantineReport,
    RecoveryEvent,
    RetryBudgetExhaustedError,
    TaskFailure,
)

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "commit_arc_states",
]


def commit_arc_states(
    sim: np.ndarray,
    rev: np.ndarray,
    arcs: np.ndarray,
    states: np.ndarray,
) -> None:
    """Batch-aware commit of vectorized similarity writes.

    The batched execution mode buffers a task's similarity results as one
    ``(arc ids, int8 states)`` array pair; applying them (and their
    reverse-arc mirrors — pSCAN's similarity-reuse invariant) is two
    fancy-indexed stores instead of a Python loop per arc.  Process
    workers ship the same two arrays back through their result pipe,
    so the per-arc commit cost is independent of the batch size.
    """
    if len(arcs) == 0:
        return
    sim[arcs] = states
    sim[rev[arcs]] = states

TaskFn = Callable[[int, int], tuple[Any, TaskCost]]
CommitFn = Callable[[Any], None]
Body = tuple[TaskFn, CommitFn]


class ExecutionBackend(Protocol):
    """Anything that can execute a run's phases."""

    def pool(self, bodies: Sequence[Body]) -> ContextManager[None]:
        """Scope one run: every ``(run_task, commit)`` pair the block's
        ``run_phase`` calls will use."""
        ...

    def run_phase(
        self,
        tasks: Sequence[tuple[int, int]],
        run_task: TaskFn,
        commit: CommitFn,
    ) -> list[TaskCost]: ...


class SerialBackend:
    """Execute tasks in submission order, committing after each task."""

    name = "serial"

    def pool(self, bodies: Sequence[Body]) -> ContextManager[None]:
        """Nothing to keep warm: every phase runs in this process."""
        return nullcontext()

    def run_phase(
        self,
        tasks: Sequence[tuple[int, int]],
        run_task: TaskFn,
        commit: CommitFn,
    ) -> list[TaskCost]:
        records: list[TaskCost] = []
        tracer = current_tracer()
        progress = current_progress()
        if not (tracer.enabled or progress.enabled):
            # The hot path: no span objects, no clock reads per task.
            for beg, end in tasks:
                writes, cost = run_task(beg, end)
                commit(writes)
                records.append(cost)
            return records
        # Serial cost model: vertex-range width (the scheduler's floor).
        progress.phase_begin(
            float(sum(end - beg for beg, end in tasks))
        )
        for beg, end in tasks:
            with tracer.span("task", lane=0, beg=beg, stop=end):
                writes, cost = run_task(beg, end)
                commit(writes)
            records.append(cost)
            progress.advance(float(end - beg))
        progress.phase_end()
        tracer.count("backend.serial.tasks", len(tasks))
        return records


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _worker_peak_rss_kb() -> int:
    """This process's peak RSS in kB (0 where ``resource`` is missing).

    Shipped back piggybacked on each ``done`` message's timing tuple so
    the parent can expose per-lane memory high-water marks without any
    extra IPC round trip.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _worker_main(
    worker_id: int,
    inbox_fd: int,
    conn,
    hb_interval: float,
    bodies: Sequence[Body],
    plan: FaultPlan | None,
) -> None:
    """Worker loop: read commands from the inbox, report on ``conn``.

    The worker is forked, so ``bodies`` and ``plan`` arrive through the
    inherited address space; only task ranges and payloads travel through
    the pipes.  A command is ``("run", phase, body, [(task, attempt, beg,
    end), ...])`` or ``("commit", phase, body, [payload, ...])``, where
    each payload is a task's pickled ``(writes, cost)``, replayed through
    ``bodies[body]``'s commit; the parent ends a worker by killing it.
    Messages go
    through a per-worker pipe with *synchronous* sends (``Connection.send``
    writes before returning), so a worker that dies immediately after
    reporting ``start`` cannot lose the message — crash attribution stays
    exact.  A lock serializes the heartbeat thread and the task loop on
    the pipe; the heartbeat thread also ends a worker whose parent died.
    """
    # Everything inherited stays out of this process's collections: a
    # full collection would write to every inherited object's header and
    # so copy the parent's whole heap page by page.
    gc.freeze()
    inbox = connection.Connection(inbox_fd, writable=False)
    parent = os.getppid()
    stop = threading.Event()
    send_lock = threading.Lock()

    def send(msg) -> bool:
        try:
            with send_lock:
                conn.send(msg)
            return True
        except OSError:  # parent reaped this worker's channel
            return False

    def beat() -> None:
        while not stop.wait(hb_interval):
            if os.getppid() != parent:
                os._exit(0)  # orphaned: nobody will read our results
            if not send(("hb",)):
                return

    beater = threading.Thread(target=beat, daemon=True)
    beater.start()
    try:
        while True:
            try:
                command = inbox.recv()
            except EOFError:
                return
            kind, phase, body, items = command
            run_task, commit = bodies[body]
            if kind == "commit":
                for blob in items:
                    commit(pickle.loads(blob)[0])
                continue
            for task_idx, attempt, beg, end in items:
                if not send(("start", phase, task_idx, attempt)):
                    return
                try:
                    if plan is not None:
                        plan.apply(phase, task_idx, attempt, worker_id)
                    t0 = time.perf_counter()
                    blob = _dumps(run_task(beg, end))
                    t1 = time.perf_counter()
                    send(
                        (
                            "done",
                            phase,
                            task_idx,
                            attempt,
                            blob,
                            (t0, t1, _worker_peak_rss_kb()),
                        )
                    )
                except BaseException as exc:  # noqa: BLE001 - shipped to parent
                    send(
                        (
                            "err",
                            phase,
                            task_idx,
                            attempt,
                            f"{type(exc).__name__}: {exc}",
                            traceback.format_exc(limit=8),
                        )
                    )
    finally:
        stop.set()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


#: Command-pipe capacity asked for: Linux's default ceiling for an
#: unprivileged process (``/proc/sys/fs/pipe-max-size``).
_COMMAND_PIPE_BYTES = 1 << 20


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)


def _frame(msg) -> tuple[bytes, memoryview]:
    """``msg`` pickled and length-prefixed the way ``Connection.recv``
    reads it, as (header, body) so a large body is never copied."""
    blob = _dumps(msg)
    n = len(blob)
    header = struct.pack("!i", n) if n <= 0x7FFFFFFF else struct.pack("!iQ", -1, n)
    return header, memoryview(blob)


@dataclass
class _TaskState:
    index: int
    beg: int
    end: int
    weight: float
    attempts: int = 0  # dispatches so far
    consecutive_kills: int = 0
    completed: bool = False
    speculated: bool = False
    backoff_spent: float = 0.0  # total backoff wall-clock accumulated
    failures: list[TaskFailure] = field(default_factory=list)


@dataclass
class _Flight:
    """One dispatched attempt of one task of one phase."""

    phase: int
    task: int
    attempt: int
    timeout: float | None  # the task's cost-scaled deadline budget
    started: float | None = None  # set when the 'start' message arrives

    @property
    def key(self) -> tuple[int, int, int]:
        return self.phase, self.task, self.attempt


@dataclass
class _Lane:
    """One live worker process and the parent's ends of its two pipes.

    The command pipe is written non-blocking through ``out``, so a
    stalled worker can never block the supervisor.
    """

    id: int
    proc: Any
    conn: Any  # worker -> parent messages
    inbox: int  # parent -> worker commands (raw fd, non-blocking)
    last_seen: float
    out: deque = field(default_factory=deque)  # chunks not yet written
    #: Attempts sent and not finished, by key, in dispatch order — the
    #: order the worker runs them in.
    flights: dict[tuple[int, int, int], _Flight] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._poll = select.poll()
        self._poll.register(self.conn.fileno(), select.POLLIN)

    def readable(self) -> bool:
        """A message (or EOF) is waiting on the result pipe."""
        return bool(self._poll.poll(0))

    def post(self, chunks) -> None:
        self.out.extend(chunks)
        self.flush()

    def flush(self) -> None:
        while self.out:
            head = self.out[0]
            try:
                n = os.write(self.inbox, head)
            except BlockingIOError:
                return
            except OSError:  # the worker is gone; the liveness check reaps it
                self.out.clear()
                return
            if n < len(head):
                self.out[0] = memoryview(head)[n:]
                return
            self.out.popleft()

    def oldest(self) -> _Flight | None:
        """The attempt running now, or the next one to run."""
        return next(iter(self.flights.values()), None)

    def ready(self, phase: int) -> bool:
        """Ready for more of ``phase``: it runs nothing late from an
        earlier phase and has started every attempt it was sent (the
        newest one, as it runs them in order)."""
        if not self.flights:
            return True
        newest = next(reversed(self.flights.values()))
        return self.oldest().phase == phase and newest.started is not None

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.kill()

    def close(self) -> None:
        self.kill()
        self.proc.join(timeout=2.0)
        os.close(self.inbox)
        self.conn.close()


@dataclass
class _Pool:
    """The run's phase bodies and its live workers, keyed by worker id."""

    ctx: Any  # the fork context, or None where fork is unavailable
    bodies: list[Body]
    lanes: dict[int, _Lane] = field(default_factory=dict)
    next_id: int = 0

    def body(self, run_task: TaskFn, commit: CommitFn) -> int:
        for i, (r, c) in enumerate(self.bodies):
            if r is run_task and c is commit:
                return i
        raise ValueError(
            "run_phase got a (run_task, commit) pair its pool was not given"
        )


class ProcessBackend:
    """Fork-based, supervised, bulk-synchronous phase execution.

    ``policy`` tunes the recovery loop (the
    :class:`~repro.parallel.supervisor.FaultTolerancePolicy` defaults
    when ``None``); ``chaos`` installs a deterministic
    :class:`~repro.parallel.chaos.FaultPlan`.  ``cost_model(beg, end)``
    models a task's cost (e.g. its arc count): it balances dispatch
    batches, weights progress and scales per-task deadlines, defaulting
    to the vertex-range width.

    Phases are numbered from 0 in call order (fault plans match on the
    number); a pool numbers its workers from 0 in fork order and never
    reuses a number.  ``recovery_events`` accumulates every recovery
    action of every phase; ``degraded`` turns true once a phase has
    fallen back to serial execution in the parent.  Falls back to serial execution when
    ``fork`` is unavailable (non-POSIX).
    """

    name = "process"
    _TICK = 0.02

    def __init__(
        self,
        workers: int | None = None,
        *,
        policy: FaultTolerancePolicy | None = None,
        chaos: FaultPlan | None = None,
        cost_model: Callable[[int, int], float] | None = None,
    ) -> None:
        if workers is None:
            workers = max(1, (os.cpu_count() or 1))
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.policy = policy if policy is not None else FaultTolerancePolicy()
        self.chaos = chaos
        self.cost_model = cost_model
        #: Recovery actions accumulated across this backend's phases.
        self.recovery_events: list[RecoveryEvent] = []
        self.degraded = False
        self._phase = -1  # index of the phase running (or last run)
        self._pool: _Pool | None = None

    def _event(
        self,
        kind: str,
        *,
        task: int | None = None,
        attempt: int | None = None,
        worker: int | None = None,
        detail: str = "",
    ) -> None:
        self.recovery_events.append(
            RecoveryEvent(
                kind=kind,
                phase=self._phase,
                task=task,
                attempt=attempt,
                worker=worker,
                detail=detail,
            )
        )
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count(f"supervisor.{kind}", 1)
            now = time.perf_counter()
            tracer.add_span(
                f"recovery:{kind}",
                now,
                now,
                lane=0,
                depth=2,
                phase=self._phase,
                task=task,
                attempt=attempt,
                worker=worker,
                detail=detail,
            )

    # -- the pool -----------------------------------------------------------

    @contextmanager
    def pool(self, bodies: Sequence[Body]) -> Iterator[None]:
        """Keep one worker pool for the phases run inside the block.

        ``bodies`` are every ``(run_task, commit)`` pair those phases
        use; workers fork at the first non-empty phase and are killed
        when the block exits, however it exits.
        """
        if self._pool is not None:
            raise RuntimeError("this backend already has an open pool")
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            ctx = None
        self._pool = _Pool(ctx, list(bodies))
        try:
            yield
        finally:
            pool, self._pool = self._pool, None
            for lane in pool.lanes.values():
                lane.kill()  # all at once: their exits overlap
            for lane in pool.lanes.values():
                lane.close()

    def _spawn(self) -> _Lane:
        """Fork one worker from the parent's current state."""
        pool = self._pool
        worker_id = pool.next_id
        pool.next_id += 1
        recv_end, send_end = pool.ctx.Pipe(duplex=False)
        inbox_r, inbox_w = os.pipe()
        proc = pool.ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                inbox_r,
                send_end,
                self.policy.heartbeat_interval,
                pool.bodies,
                self.chaos,
            ),
            daemon=True,
        )
        proc.start()
        send_end.close()  # the worker holds the only write end now
        os.close(inbox_r)
        os.set_blocking(inbox_w, False)
        # Room for a phase's replay, so an idle worker reads it while the
        # parent commits instead of at the next phase's first dispatch
        # (Linux only; elsewhere the pipe keeps its default capacity).
        with suppress(AttributeError, OSError):
            fcntl.fcntl(inbox_w, fcntl.F_SETPIPE_SZ, _COMMAND_PIPE_BYTES)
        lane = _Lane(worker_id, proc, recv_end, inbox_w, time.perf_counter())
        pool.lanes[worker_id] = lane
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("backend.process.spawns", 1)
        return lane

    # -- one phase ----------------------------------------------------------

    def run_phase(
        self,
        tasks: Sequence[tuple[int, int]],
        run_task: TaskFn,
        commit: CommitFn,
    ) -> list[TaskCost]:
        if self._pool is not None:
            return self._supervise(tasks, run_task, commit)
        with self.pool([(run_task, commit)]):
            return self._supervise(tasks, run_task, commit)

    def _supervise(
        self,
        tasks: Sequence[tuple[int, int]],
        run_task: TaskFn,
        commit: CommitFn,
    ) -> list[TaskCost]:
        self._phase += 1
        phase = self._phase
        if not tasks:
            return []
        pool = self._pool
        body = pool.body(run_task, commit)
        if pool.ctx is None:  # pragma: no cover - non-POSIX hosts
            self._event(
                "degrade", detail="fork unavailable; serial execution"
            )
            self.degraded = True
            results = {
                i: run_task(beg, end) for i, (beg, end) in enumerate(tasks)
            }
            return _commit_all(tasks, results, commit)

        policy = self.policy
        first_event = len(self.recovery_events)
        weights = [
            float(self.cost_model(beg, end))
            if self.cost_model is not None
            else float(end - beg)
            for beg, end in tasks
        ]
        mean_w = max(sum(weights) / len(weights), 1e-12)
        states = [
            _TaskState(i, beg, end, weights[i])
            for i, (beg, end) in enumerate(tasks)
        ]

        lanes = pool.lanes
        wanted = min(self.workers, len(tasks))
        pending: deque[_Flight] = deque()  # attempts not yet sent
        backoff: list[tuple[float, _TaskState]] = []  # (eligible_at, state)
        respawns_left = policy.respawn_budget(wanted)
        results: dict[int, tuple[Any, TaskCost]] = {}
        blobs: dict[int, bytes] = {}  # pickled results, replayed verbatim
        timings: dict[int, tuple[int, float, float, int]] = {}
        completed = 0
        fatal: ExecutionFaultError | None = None
        tracer = current_tracer()
        progress = current_progress()
        progress.phase_begin(sum(weights))

        def enqueue(state: _TaskState) -> _Flight:
            attempt = state.attempts
            state.attempts += 1
            timeout = policy.task_timeout
            if timeout is not None:
                timeout *= max(state.weight / mean_w, 1.0)
            return _Flight(phase, state.index, attempt, timeout)

        def send(lane: _Lane, batch: list[_Flight]) -> None:
            lane.flights.update((fl.key, fl) for fl in batch)
            lane.post(
                _frame(
                    (
                        "run",
                        phase,
                        body,
                        [
                            (fl.task, fl.attempt, tasks[fl.task][0],
                             tasks[fl.task][1])
                            for fl in batch
                        ],
                    )
                )
            )

        def dispatch() -> None:
            """Guided self-scheduling: each ready lane gets the next run
            of pending tasks worth half an even share of their cost."""
            for lane in list(lanes.values()):
                if not pending:
                    return
                if not lane.ready(phase):
                    continue
                share = sum(weights[fl.task] for fl in pending) / (
                    2 * max(len(lanes), wanted)
                )
                batch: list[_Flight] = []
                cost = 0.0
                while pending and (not batch or cost < share):
                    batch.append(pending.popleft())
                    cost += weights[batch[-1].task]
                send(lane, batch)

        def fail_attempt(
            state: _TaskState, attempt: int, kind: str,
            worker: int | None, detail: str,
        ) -> None:
            """Record one failed attempt and retry or give up."""
            nonlocal fatal
            state.failures.append(
                TaskFailure(state.index, attempt, worker, kind, detail)
            )
            if state.completed:
                return  # a speculative twin already finished this task
            if kind in ("crash", "timeout", "heartbeat_gap"):
                state.consecutive_kills += 1
            else:
                state.consecutive_kills = 0
            if (
                kind == "crash"
                and state.consecutive_kills >= policy.poison_threshold
            ):
                report = QuarantineReport(
                    task=state.index,
                    task_range=(state.beg, state.end),
                    phase=phase,
                    workers_killed=state.consecutive_kills,
                    failures=list(state.failures),
                )
                self._event(
                    "quarantine",
                    task=state.index,
                    attempt=attempt,
                    worker=worker,
                    detail=report.describe().splitlines()[0],
                )
                if fatal is None:
                    fatal = PoisonTaskError(
                        report,
                        failures=list(state.failures),
                    )
                return
            if state.attempts > policy.max_retries:
                if fatal is None:
                    fatal = RetryBudgetExhaustedError(
                        f"task {state.index} failed {state.attempts} "
                        f"attempt(s) (budget: 1 + {policy.max_retries} "
                        f"retries); last: {kind} — {detail}",
                        failures=list(state.failures),
                    )
                return
            delay = policy.backoff(state.attempts, task=state.index)
            if (
                policy.max_retry_wall is not None
                and state.backoff_spent + delay > policy.max_retry_wall
            ):
                if fatal is None:
                    fatal = RetryBudgetExhaustedError(
                        f"task {state.index} exhausted its retry "
                        f"wall-clock budget ({policy.max_retry_wall:.2f}s: "
                        f"{state.backoff_spent:.2f}s spent + {delay:.2f}s "
                        f"next backoff); last: {kind} — {detail}",
                        failures=list(state.failures),
                    )
                return
            state.backoff_spent += delay
            self._event(
                "retry",
                task=state.index,
                attempt=state.attempts,
                worker=worker,
                detail=f"after {kind}; backoff {delay * 1e3:.0f}ms",
            )
            backoff.append((time.perf_counter() + delay, state))

        def handle_msg(lane: _Lane, msg) -> None:
            nonlocal completed
            lane.last_seen = time.perf_counter()
            kind = msg[0]
            if kind == "hb":
                return
            msg_phase, task_idx, attempt = msg[1:4]
            key = (msg_phase, task_idx, attempt)
            if kind == "start":
                flight = lane.flights.get(key)
                if flight is not None:
                    flight.started = lane.last_seen
                return
            lane.flights.pop(key, None)
            if msg_phase != phase:
                # A speculative loser finishing after its phase's barrier.
                if tracer.enabled:
                    tracer.count("backend.process.late_results", 1)
                return
            state = states[task_idx]
            if kind == "done":
                blob, timing = msg[4], msg[5]
                if state.completed:
                    return  # duplicate (speculative) completion
                state.completed = True
                state.consecutive_kills = 0
                results[task_idx] = pickle.loads(blob)
                blobs[task_idx] = blob
                timings[task_idx] = (
                    lane.id % self.workers + 1, timing[0], timing[1],
                    int(timing[2]),
                )
                completed += 1
                progress.advance(weights[task_idx])
            elif kind == "err":
                detail = msg[4]
                self._event(
                    "task_error",
                    task=task_idx,
                    attempt=attempt,
                    worker=lane.id,
                    detail=detail,
                )
                fail_attempt(state, attempt, "error", lane.id, detail)

        def drain(lane: _Lane) -> None:
            """Process every message the worker has sent so far (a dying
            worker's synchronous ``start`` is what makes crash attribution
            exact)."""
            while lane.readable():
                try:
                    msg = lane.conn.recv()
                except (EOFError, OSError):
                    return
                except Exception:  # torn write from a killed worker
                    return
                handle_msg(lane, msg)

        def handle_worker_death(lane: _Lane, kind: str, detail: str) -> None:
            drain(lane)
            del lanes[lane.id]
            lane.close()
            mine = [
                fl
                for fl in lane.flights.values()
                if fl.phase == phase and not states[fl.task].completed
            ]
            # Attempts it was sent but never started go back to the
            # queue unchanged; the one it was running failed.
            pending.extendleft(
                reversed([fl for fl in mine if fl.started is None])
            )
            flight = next((fl for fl in mine if fl.started is not None), None)
            self._event(
                kind,
                task=flight.task if flight else None,
                attempt=flight.attempt if flight else None,
                worker=lane.id,
                detail=detail,
            )
            if flight is not None:
                fail_attempt(
                    states[flight.task], flight.attempt, kind, lane.id, detail
                )
            if fatal is not None:
                return
            # A lane that died mid-task is always replaced, so recovery
            # does not depend on how far the survivors got before the
            # death was seen; an idle one only while work outnumbers the
            # live workers.
            outstanding = len(tasks) - completed
            if (flight is not None or outstanding > len(lanes)) and respawns():
                return

        def respawns() -> bool:
            """Respawn a replacement lane if the budget allows; report it."""
            nonlocal respawns_left
            if respawns_left <= 0:
                return False
            respawns_left -= 1
            lane = self._spawn()
            self._event(
                "respawn",
                worker=lane.id,
                detail=f"{respawns_left} respawn(s) left",
            )
            return True

        for state in states:
            pending.append(enqueue(state))
        # Heartbeats (and late results) that queued up between phases:
        # a worker's silence is timed from here, not from the last phase.
        for lane in list(lanes.values()):
            drain(lane)
        dispatch()
        while len(lanes) < wanted:
            self._spawn()  # each new lane starts on its batch at once
            dispatch()

        while completed < len(tasks) and fatal is None:
            now = time.perf_counter()

            # Release retry-eligible tasks from backoff.
            if backoff:
                still: list[tuple[float, _TaskState]] = []
                for eligible_at, state in backoff:
                    if state.completed:
                        continue
                    if now >= eligible_at:
                        pending.append(enqueue(state))
                    else:
                        still.append((eligible_at, state))
                backoff[:] = still

            # Per-task deadlines (hung tasks whose heartbeats beat on).
            if policy.task_timeout is not None:
                for lane in list(lanes.values()):
                    late = lane.oldest()
                    if (
                        late is not None
                        and late.started is not None
                        and now > late.started + late.timeout
                    ):
                        handle_worker_death(
                            lane,
                            "timeout",
                            f"task {late.task} of phase {late.phase} "
                            f"exceeded its deadline of {late.timeout:.2f}s",
                        )

            # Heartbeat-gap detection (frozen processes).
            if policy.heartbeat_timeout is not None:
                for lane in list(lanes.values()):
                    if now - lane.last_seen > policy.heartbeat_timeout:
                        handle_worker_death(
                            lane,
                            "heartbeat_gap",
                            f"no heartbeat for {now - lane.last_seen:.2f}s",
                        )

            # Liveness: a worker that died without a message.
            for lane in list(lanes.values()):
                if not lane.proc.is_alive():
                    handle_worker_death(
                        lane,
                        "crash",
                        f"worker exited with code {lane.proc.exitcode}",
                    )

            if fatal is not None:
                break

            # Pool collapse → degrade to serial execution in-parent.
            if len(lanes) < policy.min_workers and not respawns():
                self._event(
                    "degrade",
                    detail=(
                        f"pool collapsed ({len(lanes)} alive, "
                        "respawn budget exhausted); running "
                        f"{len(tasks) - completed} remaining "
                        "task(s) serially in the parent"
                    ),
                )
                self.degraded = True
                for state in states:
                    if state.completed:
                        continue
                    t0 = time.perf_counter()
                    results[state.index] = run_task(state.beg, state.end)
                    timings[state.index] = (
                        0, t0, time.perf_counter(), _worker_peak_rss_kb(),
                    )
                    state.completed = True
                    completed += 1
                    progress.advance(weights[state.index])
                break

            dispatch()

            # Speculative straggler re-dispatch near the barrier: every
            # attempt is sent and started, and a worker sits idle.
            idle = [lane for lane in lanes.values() if not lane.flights]
            if policy.speculative and idle and not pending and not backoff:
                running = [
                    fl
                    for lane in lanes.values()
                    for fl in lane.flights.values()
                    if fl.phase == phase
                ]
                candidates = [
                    fl
                    for fl in running
                    if fl.started is not None
                    and not states[fl.task].speculated
                    and not states[fl.task].completed
                    and now - fl.started > policy.straggler_after
                ]
                if candidates and all(fl.started is not None for fl in running):
                    slowest = max(candidates, key=lambda fl: now - fl.started)
                    state = states[slowest.task]
                    state.speculated = True
                    twin = enqueue(state)
                    self._event(
                        "speculative",
                        task=state.index,
                        attempt=twin.attempt,
                        detail="straggler re-dispatched near the phase barrier",
                    )
                    send(idle[0], [twin])

            # Wait for messages, and for room in any command pipe with
            # unsent bytes.
            poller = select.poll()
            by_fd: dict[int, _Lane] = {}
            for lane in lanes.values():
                by_fd[lane.conn.fileno()] = lane
                poller.register(lane.conn.fileno(), select.POLLIN)
                if lane.out:
                    by_fd[lane.inbox] = lane
                    poller.register(lane.inbox, select.POLLOUT)
            for fd, _ in poller.poll(self._TICK * 1e3):
                lane = by_fd[fd]
                if fd == lane.inbox:
                    lane.flush()
                    continue
                # The liveness check reaps a worker whose pipe broke.
                drain(lane)
                if fatal is not None:
                    break

        progress.phase_end()
        if fatal is not None:
            fatal.events = self.recovery_events[first_event:]
            raise fatal

        # Barrier: send the phase's payloads to every live worker (they
        # apply them while the parent commits), then commit each task's
        # writes here once, in task order.
        if lanes:
            replay = _frame(
                (
                    "commit",
                    phase,
                    body,
                    [
                        blobs[i]
                        if i in blobs
                        else _dumps(results[i])
                        for i in range(len(tasks))
                    ],
                )
            )
            for lane in lanes.values():
                lane.post(replay)
        if tracer.enabled:
            lane_rss: dict[int, int] = {}
            for task_idx, (lane_no, t0, t1, rss_kb) in sorted(timings.items()):
                beg, end = tasks[task_idx]
                tracer.add_span(
                    "task", t0, t1, lane=lane_no, depth=1, beg=beg, stop=end
                )
                if rss_kb > 0:
                    lane_rss[lane_no] = max(lane_rss.get(lane_no, 0), rss_kb)
            for lane_no, rss_kb in sorted(lane_rss.items()):
                tracer.gauge(f"memory.lane.{lane_no}.peak_rss_kb", rss_kb)
            tracer.count("backend.process.tasks", len(tasks))
            with tracer.span("commit", lane=0, tasks=len(tasks)):
                return _commit_all(tasks, results, commit)
        return _commit_all(tasks, results, commit)


def _commit_all(tasks, results, commit) -> list[TaskCost]:
    """Barrier commit: each task's writes once, in task order."""
    records: list[TaskCost] = []
    for task_idx in range(len(tasks)):
        writes, cost = results[task_idx]
        commit(writes)
        records.append(cost)
    return records
