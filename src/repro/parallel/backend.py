"""Execution backends for the phase/task/commit model.

ppSCAN's phases are executed through a small protocol:

* ``run_task(beg, end) -> (writes, TaskCost)`` — performs the vertex
  computations of one task.  Reads shared state freely; buffers its writes.
* ``commit(writes)`` — applies a task's buffered writes to shared state.

``SerialBackend`` commits after every task, which is one legal
interleaving of the paper's lock-free execution (later tasks observe
earlier tasks' similarity values, maximizing reuse — this is the canonical
backend whose counts the figures report).

``ProcessBackend`` runs each phase's tasks in forked worker processes and
commits all writes at the phase barrier (bulk-synchronous).  That is the
*weakest* write visibility the paper's correctness proofs admit (Theorems
4.1–4.5 hold under any interleaving, including "none within a phase" and
re-executing a task), so results are identical; only the amount of
intra-phase similarity reuse can differ.  Fork-based workers inherit the
shared CSR arrays copy-on-write, so no graph data is pickled.

Every process phase runs under one supervised event loop:

* workers pull ``(task, attempt)`` pairs from a shared queue and report
  synchronous ``start``/``done``/``err`` messages plus heartbeats over a
  per-worker pipe, so a crash is attributed to the attempt it interrupted;
* a per-task deadline — ``policy.task_timeout`` scaled by the task's
  modelled cost share — catches hung tasks whose heartbeats still beat,
  and a heartbeat gap catches frozen processes;
* dead or hung workers are killed and respawned (bounded by
  ``policy.max_respawns``) and their in-flight task is re-queued with
  exponential backoff under a bounded retry budget;
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
``recovery:*`` spans.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Callable, Protocol, Sequence

import numpy as np

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


class ExecutionBackend(Protocol):
    """Anything that can execute one phase's task list."""

    def run_phase(
        self,
        tasks: Sequence[tuple[int, int]],
        run_task: TaskFn,
        commit: CommitFn,
    ) -> list[TaskCost]: ...


class SerialBackend:
    """Execute tasks in submission order, committing after each task."""

    name = "serial"

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
    task_q,
    conn,
    hb_interval: float,
    fn: TaskFn,
    plan: FaultPlan | None,
    phase: int,
) -> None:
    """Worker loop: pull tasks from the shared queue, report on ``conn``.

    The worker is forked, so ``fn`` and ``plan`` arrive through the
    inherited address space; only small tuples travel through the queue.
    Messages go through a per-worker pipe with *synchronous* sends
    (``Connection.send`` writes before returning, unlike ``mp.Queue``'s
    feeder thread), so a worker that dies immediately after reporting
    ``start`` cannot lose the message — crash attribution stays exact.
    A lock serializes the heartbeat thread and the task loop on the pipe.
    """
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
            if not send(("hb", worker_id, time.perf_counter())):
                return

    beater = threading.Thread(target=beat, daemon=True)
    beater.start()
    try:
        while True:
            item = task_q.get()
            if item is None:
                send(("bye", worker_id))
                return
            task_idx, attempt, beg, end = item
            if not send(
                ("start", worker_id, task_idx, attempt, time.perf_counter())
            ):
                return
            try:
                if plan is not None:
                    plan.apply(phase, task_idx, attempt, worker_id)
                t0 = time.perf_counter()
                payload = fn(beg, end)
                t1 = time.perf_counter()
                send(
                    (
                        "done",
                        worker_id,
                        task_idx,
                        attempt,
                        payload,
                        (t0, t1, _worker_peak_rss_kb()),
                    )
                )
            except BaseException as exc:  # noqa: BLE001 - shipped to parent
                send(
                    (
                        "err",
                        worker_id,
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
    task: int
    attempt: int
    worker: int | None = None  # None until the 'start' message arrives
    started: float | None = None
    deadline: float | None = None
    enqueued_at: float = 0.0


class ProcessBackend:
    """Fork-based, supervised, bulk-synchronous phase execution.

    ``policy`` tunes the recovery loop (the
    :class:`~repro.parallel.supervisor.FaultTolerancePolicy` defaults
    when ``None``); ``chaos`` installs a deterministic
    :class:`~repro.parallel.chaos.FaultPlan`.  ``cost_model(beg, end)``
    models a task's cost (e.g. its arc count): it weights progress and
    scales per-task deadlines, defaulting to the vertex-range width.

    Phases are numbered from 0 in call order (fault plans match on the
    number).  ``recovery_events`` accumulates every recovery action of
    every phase; ``degraded`` turns true once a phase has fallen back to
    serial execution in the parent.  Falls back to serial execution when
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

    def run_phase(
        self,
        tasks: Sequence[tuple[int, int]],
        run_task: TaskFn,
        commit: CommitFn,
    ) -> list[TaskCost]:
        self._phase += 1
        if not tasks:
            return []
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
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

        lanes = min(self.workers, len(tasks))
        task_q = ctx.Queue()
        procs: dict[int, multiprocessing.process.BaseProcess] = {}
        conns: dict[int, Any] = {}  # per-worker parent-side pipe ends
        last_seen: dict[int, float] = {}
        worker_flight: dict[int, _Flight | None] = {}
        flights: dict[tuple[int, int], _Flight] = {}
        backoff: list[tuple[float, _TaskState]] = []  # (eligible_at, state)
        respawns_left = policy.respawn_budget(lanes)
        results: dict[int, tuple[Any, TaskCost]] = {}
        timings: dict[int, tuple[int, float, float, int]] = {}
        completed = 0
        fatal: ExecutionFaultError | None = None
        progress = current_progress()
        progress.phase_begin(sum(weights))

        def spawn(worker_id: int) -> None:
            recv_end, send_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    task_q,
                    send_end,
                    policy.heartbeat_interval,
                    run_task,
                    self.chaos,
                    self._phase,
                ),
                daemon=True,
            )
            proc.start()
            send_end.close()  # the worker holds the only write end now
            procs[worker_id] = proc
            conns[worker_id] = recv_end
            last_seen[worker_id] = time.perf_counter()
            worker_flight[worker_id] = None

        def enqueue(state: _TaskState, *, speculative: bool = False) -> None:
            attempt = state.attempts
            state.attempts += 1
            flights[(state.index, attempt)] = _Flight(
                state.index, attempt, enqueued_at=time.perf_counter()
            )
            task_q.put((state.index, attempt, state.beg, state.end))
            if speculative:
                state.speculated = True
                self._event(
                    "speculative",
                    task=state.index,
                    attempt=attempt,
                    detail="straggler re-dispatched near the phase barrier",
                )

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
                    phase=self._phase,
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

        def handle_msg(msg) -> None:
            kind = msg[0]
            if kind == "hb":
                _, worker_id, _t = msg
                if worker_id in last_seen:
                    last_seen[worker_id] = time.perf_counter()
            elif kind == "start":
                _, worker_id, task_idx, attempt, _t_start = msg
                flight = flights.get((task_idx, attempt))
                if worker_id not in procs:
                    # The worker is already reaped; its synchronous 'start'
                    # outlived it.  Fail the attempt so the task retries.
                    if flight is not None:
                        flights.pop((task_idx, attempt), None)
                        fail_attempt(
                            states[task_idx],
                            attempt,
                            "crash",
                            worker_id,
                            "worker died while executing the task",
                        )
                    return
                last_seen[worker_id] = time.perf_counter()
                if flight is None:
                    # A stale attempt the parent gave up on: the worker is
                    # executing it anyway, so track it again (its result is
                    # as good as any other attempt's).
                    flight = _Flight(task_idx, attempt)
                    flights[(task_idx, attempt)] = flight
                flight.worker = worker_id
                flight.started = time.perf_counter()
                if policy.task_timeout is not None:
                    scale = max(states[task_idx].weight / mean_w, 1.0)
                    flight.deadline = (
                        flight.started + policy.task_timeout * scale
                    )
                worker_flight[worker_id] = flight
            elif kind == "done":
                nonlocal completed
                _, worker_id, task_idx, attempt, payload, timing = msg
                t0, t1 = timing[0], timing[1]
                rss_kb = int(timing[2]) if len(timing) > 2 else 0
                if worker_id in last_seen:
                    last_seen[worker_id] = time.perf_counter()
                flights.pop((task_idx, attempt), None)
                if worker_flight.get(worker_id) is not None:
                    worker_flight[worker_id] = None
                state = states[task_idx]
                if state.completed:
                    return  # duplicate (speculative) completion
                state.completed = True
                state.consecutive_kills = 0
                results[task_idx] = payload
                timings[task_idx] = (worker_id % lanes + 1, t0, t1, rss_kb)
                completed += 1
                progress.advance(weights[task_idx])
            elif kind == "err":
                _, worker_id, task_idx, attempt, detail, _tb = msg
                if worker_id in last_seen:
                    last_seen[worker_id] = time.perf_counter()
                flights.pop((task_idx, attempt), None)
                if worker_flight.get(worker_id) is not None:
                    worker_flight[worker_id] = None
                self._event(
                    "task_error",
                    task=task_idx,
                    attempt=attempt,
                    worker=worker_id,
                    detail=detail,
                )
                fail_attempt(
                    states[task_idx], attempt, "error", worker_id, detail
                )

        def drain_conn(worker_id: int) -> None:
            """Process messages a dying worker managed to send (its
            synchronous ``start`` is what makes crash attribution exact)."""
            conn = conns.get(worker_id)
            if conn is None:
                return
            while True:
                try:
                    if not conn.poll(0):
                        return
                    msg = conn.recv()
                except (EOFError, OSError):
                    return
                except Exception:  # torn write from a killed worker
                    return
                handle_msg(msg)

        def handle_worker_death(worker_id: int, kind: str, detail: str) -> None:
            drain_conn(worker_id)
            proc = procs.pop(worker_id, None)
            if proc is not None:
                if proc.is_alive():
                    proc.kill()
                proc.join(timeout=2.0)
            conn = conns.pop(worker_id, None)
            if conn is not None:
                conn.close()
            last_seen.pop(worker_id, None)
            flight = worker_flight.pop(worker_id, None)
            if flight is not None and states[flight.task].completed:
                flight = None  # its last act was finishing the task
            self._event(
                kind,
                task=flight.task if flight else None,
                attempt=flight.attempt if flight else None,
                worker=worker_id,
                detail=detail,
            )
            if flight is not None:
                flights.pop((flight.task, flight.attempt), None)
                state = states[flight.task]
                fail_attempt(state, flight.attempt, "crash" if kind == "crash"
                             else kind, worker_id, detail)
            if fatal is not None:
                return
            # A lane that died mid-task is always replaced, so recovery
            # does not depend on how far the survivors got before the
            # death was seen; an idle one only while work outnumbers the
            # live workers.
            outstanding = len(tasks) - completed
            if (flight is not None or outstanding > len(procs)) and respawns():
                return

        def respawns() -> bool:
            """Respawn a replacement lane if the budget allows; report it."""
            nonlocal respawns_left
            if respawns_left <= 0:
                return False
            respawns_left -= 1
            worker_id = max(list(procs) + [lanes - 1]) + 1
            spawn(worker_id)
            self._event(
                "respawn",
                worker=worker_id,
                detail=f"{respawns_left} respawn(s) left",
            )
            return True

        try:
            for wid in range(lanes):
                spawn(wid)
            for state in states:
                enqueue(state)

            while completed < len(tasks) and fatal is None:
                now = time.perf_counter()

                # Release retry-eligible tasks from backoff.
                if backoff:
                    still: list[tuple[float, _TaskState]] = []
                    for eligible_at, state in backoff:
                        if state.completed:
                            continue
                        if now >= eligible_at:
                            enqueue(state)
                        else:
                            still.append((eligible_at, state))
                    backoff[:] = still

                # Per-task deadlines (hung tasks whose heartbeats beat on).
                if policy.task_timeout is not None:
                    for flight in list(flights.values()):
                        if (
                            flight.deadline is not None
                            and flight.worker is not None
                            and now > flight.deadline
                            and not states[flight.task].completed
                        ):
                            handle_worker_death(
                                flight.worker,
                                "timeout",
                                f"task {flight.task} exceeded its "
                                f"deadline of "
                                f"{flight.deadline - flight.started:.2f}s",
                            )

                # Heartbeat-gap detection (frozen processes).
                if policy.heartbeat_timeout is not None:
                    for worker_id, seen in list(last_seen.items()):
                        if now - seen > policy.heartbeat_timeout:
                            handle_worker_death(
                                worker_id,
                                "heartbeat_gap",
                                f"no heartbeat for {now - seen:.2f}s",
                            )

                # Liveness: a worker that died without a message.
                for worker_id, proc in list(procs.items()):
                    if not proc.is_alive():
                        handle_worker_death(
                            worker_id,
                            "crash",
                            f"worker exited with code {proc.exitcode}",
                        )

                if fatal is not None:
                    break

                # Pool collapse → degrade to serial execution in-parent.
                if len(procs) < policy.min_workers:
                    if not respawns():
                        self._event(
                            "degrade",
                            detail=(
                                f"pool collapsed ({len(procs)} alive, "
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
                                0, t0, time.perf_counter(),
                                _worker_peak_rss_kb(),
                            )
                            state.completed = True
                            completed += 1
                            progress.advance(weights[state.index])
                        break

                # Requeue claims lost with their worker: a task pulled from
                # the queue whose worker died before the 'start' message
                # (sub-millisecond window, but a real crash can hit it).
                if completed < len(tasks) and not backoff and procs:
                    unstarted = [
                        fl for fl in flights.values() if fl.worker is None
                    ]
                    if unstarted and all(
                        fl is None for fl in worker_flight.values()
                    ):
                        grace = max(0.5, policy.heartbeat_interval * 2)
                        for fl in unstarted:
                            if now - fl.enqueued_at <= grace:
                                continue
                            flights.pop((fl.task, fl.attempt), None)
                            if not states[fl.task].completed:
                                self._event(
                                    "requeue_lost",
                                    task=fl.task,
                                    attempt=fl.attempt,
                                    detail="dispatched attempt lost with "
                                    "its worker",
                                )
                                enqueue(states[fl.task])

                # Speculative straggler re-dispatch near the barrier.
                if (
                    policy.speculative
                    and not backoff
                    and completed < len(tasks)
                    and not any(fl.worker is None for fl in flights.values())
                ):
                    idle = [
                        wid for wid, fl in worker_flight.items() if fl is None
                    ]
                    if idle:
                        candidates = [
                            fl
                            for fl in flights.values()
                            if fl.started is not None
                            and not states[fl.task].speculated
                            and not states[fl.task].completed
                            and now - fl.started > policy.straggler_after
                        ]
                        if candidates:
                            slowest = max(
                                candidates, key=lambda fl: now - fl.started
                            )
                            enqueue(states[slowest.task], speculative=True)

                # Drain the message stream (one pipe per worker; a torn
                # write from a killed worker poisons only that pipe).
                if not conns:
                    time.sleep(self._TICK)
                    continue
                try:
                    ready = connection.wait(
                        list(conns.values()), timeout=self._TICK
                    )
                except OSError:  # a pipe closed under us mid-wait
                    continue
                if not ready:
                    continue
                by_conn = {conn: wid for wid, conn in conns.items()}
                for conn in ready:
                    worker_id = by_conn.get(conn)
                    if worker_id is None or worker_id not in conns:
                        continue
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        continue  # the liveness check will reap it
                    except Exception:  # torn pickle from a killed worker
                        continue
                    handle_msg(msg)
                    if fatal is not None:
                        break
        finally:
            for _ in range(len(procs) + 1):
                try:
                    task_q.put_nowait(None)
                except Exception:  # pragma: no cover - full queue
                    break
            deadline = time.monotonic() + 1.0
            for proc in procs.values():
                proc.join(timeout=max(deadline - time.monotonic(), 0.05))
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=1.0)
            for conn in conns.values():
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
            task_q.cancel_join_thread()
            task_q.close()

        progress.phase_end()
        if fatal is not None:
            fatal.events = self.recovery_events[first_event:]
            raise fatal

        # Barrier commit, in task order, exactly once per task.
        tracer = current_tracer()
        if tracer.enabled:
            lane_rss: dict[int, int] = {}
            for task_idx, (lane, t0, t1, rss_kb) in sorted(timings.items()):
                beg, end = tasks[task_idx]
                tracer.add_span(
                    "task", t0, t1, lane=lane, depth=1, beg=beg, stop=end
                )
                if rss_kb > 0:
                    lane_rss[lane] = max(lane_rss.get(lane, 0), rss_kb)
            for lane, rss_kb in sorted(lane_rss.items()):
                tracer.gauge(f"memory.lane.{lane}.peak_rss_kb", rss_kb)
            tracer.count("backend.process.tasks", len(tasks))
            with tracer.span("commit", lane=0, tasks=len(tasks)):
                records = _commit_all(tasks, results, commit)
        else:
            records = _commit_all(tasks, results, commit)
        return records


def _commit_all(tasks, results, commit) -> list[TaskCost]:
    """Barrier commit: each task's writes once, in task order."""
    records: list[TaskCost] = []
    for task_idx in range(len(tasks)):
        writes, cost = results[task_idx]
        commit(writes)
        records.append(cost)
    return records
