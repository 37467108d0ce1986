"""The checkpointed phase runner shared by ppSCAN, SCAN-XP and anySCAN.

Each algorithm is a sequence of barrier-separated *sites*.  A scheduled
site cuts degree-bundled tasks (Algorithm 5), executes them through an
:class:`~repro.parallel.backend.ExecutionBackend` and records one
:class:`~repro.metrics.records.StageRecord`; an inline site is one
data-parallel computation that records its stage directly.

An algorithm runs its scheduled sites inside one :meth:`PhaseRunner.pool`
block that names every site's ``(run_task, commit)`` up front, so a
process backend forks its workers once per run.  Once the first scheduled
site has run, run state changes only through ``commit`` (inline sites
before it are free to write): that is what lets the backend keep its
workers in step by replaying the commits.

With a :class:`~repro.checkpoint.CheckpointManager` attached the runner
snapshots the resumable state — ``sim``, ``roles``, the union-find
parents, store coverage, the op counter and the stage records — at every
site barrier.  With ``checkpoint.every`` set it also runs a scheduled
site in chunks of that many tasks and snapshots between chunks, storing
the *remaining* tasks explicitly: they cannot be re-derived on resume,
because committed chunks already changed the roles the schedule was cut
from.  The resume cursor is ``len(stages)``: a snapshot taken mid-site
(before the append) re-runs that site's pending tasks, one taken at a
barrier starts the next site.  A fatal
:class:`~repro.parallel.supervisor.ExecutionFaultError` first writes a
final snapshot and re-raises as
:class:`~repro.parallel.supervisor.ResumableAbort`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, ContextManager, MutableSequence

import numpy as np

from ..metrics.records import StageRecord, TaskCost
from ..obs.tracer import current_tracer
from ..parallel.backend import ExecutionBackend, SerialBackend
from ..parallel.scheduler import degree_based_tasks
from ..parallel.supervisor import ExecutionFaultError, ResumableAbort

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache import SimilarityStore
    from ..checkpoint import Checkpoint, CheckpointManager
    from ..graph.csr import CSRGraph
    from ..intersect import OpCounter
    from .context import RunContext

__all__ = [
    "PhaseRunner",
    "restore_counter",
    "restore_store",
    "store_arrays",
]

Task = tuple[int, int]


def store_arrays(store: "SimilarityStore", graph: "CSRGraph") -> dict:
    """The store entry's overlaps and packed coverage, snapshot-ready."""
    entry = store.entry_for(graph)
    return {
        "store_overlap": entry.overlap,
        "store_coverage": np.packbits(entry.coverage),
    }


def restore_store(
    store: "SimilarityStore", graph: "CSRGraph", arrays
) -> None:
    """Inverse of :func:`store_arrays` (a no-op for store-less snapshots)."""
    if "store_overlap" not in arrays:
        return
    entry = store.entry_for(graph)
    entry.overlap = np.asarray(arrays["store_overlap"], dtype=np.int64).copy()
    entry.coverage = np.unpackbits(
        np.asarray(arrays["store_coverage"], dtype=np.uint8),
        count=entry.num_arcs,
    ).astype(bool)
    entry.dirty = True


def restore_counter(counter: "OpCounter", saved) -> None:
    """Reload an op counter from its snapshotted ``as_dict()``."""
    if isinstance(saved, dict):
        for field, value in saved.items():
            if field in type(counter).__slots__:
                setattr(counter, field, int(value))


def _assign(target: MutableSequence, values: np.ndarray) -> None:
    """Overwrite ``target`` in place (an int8 array or a plain list)."""
    target[:] = values if isinstance(target, np.ndarray) else values.tolist()


class PhaseRunner:
    """Schedules, executes, records and checkpoints one run's sites.

    ``sim`` and ``roles`` are the run's mutable state (int8 arrays, or
    plain lists for the list-based anySCAN); the runner only ever
    updates them in place, so task bodies may close over them.
    ``extra_arrays`` adds algorithm-specific snapshot members; the
    algorithm restores those itself from :attr:`restored`.
    """

    def __init__(
        self,
        algorithm: str,
        ctx: "RunContext",
        *,
        sim: MutableSequence,
        roles: MutableSequence,
        uf,
        threshold: int,
        backend: ExecutionBackend | None = None,
        checkpoint: "CheckpointManager | None" = None,
        bind_extra: dict | None = None,
        extra_arrays: Callable[[], dict] | None = None,
    ) -> None:
        self.algorithm = algorithm
        self.graph = ctx.graph
        self.counter = ctx.engine.counter
        self.store = ctx.engine.store
        self.sim = sim
        self.roles = roles
        self.uf = uf
        self.threshold = threshold
        self.backend = backend if backend is not None else SerialBackend()
        self.checkpoint = checkpoint
        self.extra_arrays = extra_arrays
        self.tracer = current_tracer()
        self.stages: list[StageRecord] = []
        #: The snapshot this run resumed from (``None`` for a fresh run).
        self.restored: "Checkpoint | None" = None
        self._site = 0  # index of the next site in execution order
        self._cursor = 0  # first site not covered by the snapshot
        self._pending: list[Task] | None = None
        self._partial: list[TaskCost] = []
        if checkpoint is not None:
            extra = dict(bind_extra or {}) | {"threshold": int(threshold)}
            if ctx.engine.sketch is not None:
                # Part of the resume identity: a sketch-folded run must
                # not resume an exact run's snapshot, nor vice versa.
                extra["sketch"] = ctx.engine.sketch.key()
            checkpoint.bind(
                ctx.graph,
                ctx.params,
                algorithm=algorithm,
                exec_mode=ctx.engine.exec_mode,
                extra=extra,
            )
            self._restore(checkpoint.load_latest())

    # -- task costs -----------------------------------------------------

    def mark(self) -> tuple[int, int, int, int]:
        """The op counter's kernel tallies, for :meth:`cost`."""
        c = self.counter
        return (c.scalar_cmp, c.vector_ops, c.bound_updates, c.invocations)

    def cost(self, mark: tuple[int, int, int, int], **fields) -> TaskCost:
        """A task's cost: the kernel work since ``mark`` plus ``fields``."""
        c = self.counter
        return TaskCost(
            scalar_cmp=c.scalar_cmp - mark[0],
            vector_ops=c.vector_ops - mark[1],
            bound_updates=c.bound_updates - mark[2],
            compsims=c.invocations - mark[3],
            **fields,
        )

    # -- snapshots ------------------------------------------------------

    def save(
        self,
        phase: str,
        pending: list[Task] | None = None,
        partial: list[TaskCost] | None = None,
    ) -> int:
        """Write one snapshot of the run state; returns its epoch."""
        arrays: dict[str, np.ndarray] = {
            "sim": np.array(self.sim, dtype=np.int8),
            "roles": np.array(self.roles, dtype=np.int8),
            "uf_parent": self.uf.snapshot()["parent"],
        }
        if self.extra_arrays is not None:
            arrays.update(self.extra_arrays())
        if self.store is not None:
            arrays.update(store_arrays(self.store, self.graph))
        meta: dict[str, Any] = {
            "cursor": len(self.stages),
            "stage_records": [s.as_dict() for s in self.stages],
            "counter": self.counter.as_dict(),
        }
        if pending is not None:
            arrays["pending"] = np.asarray(pending, dtype=np.int64).reshape(
                -1, 2
            )
            meta["partial_records"] = [r.as_dict() for r in (partial or [])]
        return self.checkpoint.save(arrays=arrays, meta=meta, phase=phase)

    def _restore(self, snap: "Checkpoint | None") -> None:
        if snap is None:
            return
        self.restored = snap
        self._cursor = int(snap.meta["cursor"])
        _assign(self.sim, np.asarray(snap.arrays["sim"], dtype=np.int8))
        _assign(self.roles, np.asarray(snap.arrays["roles"], dtype=np.int8))
        self.uf.restore({"parent": snap.arrays["uf_parent"]})
        if self.store is not None:
            restore_store(self.store, self.graph, snap.arrays)
        self.stages.extend(
            StageRecord.from_dict(d) for d in snap.meta.get("stage_records", [])
        )
        restore_counter(self.counter, snap.meta.get("counter"))
        if "pending" in snap.arrays:
            self._pending = [
                (int(b), int(e))
                for b, e in np.asarray(snap.arrays["pending"])
                .reshape(-1, 2)
                .tolist()
            ]
            self._partial = [
                TaskCost.from_dict(d)
                for d in snap.meta.get("partial_records", [])
            ]

    # -- sites ----------------------------------------------------------

    def pool(self, *bodies: tuple[Callable, Callable]) -> ContextManager[None]:
        """Hand the backend every scheduled site's ``(run_task, commit)``
        before the first one runs; the block is the lifetime of the run's
        worker pool (a no-op on the serial backend)."""
        return self.backend.pool(bodies)

    def claim(self) -> bool:
        """Take the next site; ``False`` when the snapshot already covers
        it (its effects and record were restored)."""
        site = self._site
        self._site += 1
        return site >= self._cursor

    def record(
        self, name: str, tasks: list[TaskCost], t_stage: float, **attrs
    ) -> None:
        """Append a stage measured from ``t_stage`` and trace it."""
        t_end = time.perf_counter()
        self.stages.append(StageRecord(name, tasks, t_end - t_stage))
        if self.tracer.enabled:
            self.tracer.add_span(
                name, t_stage, t_end, lane=0, depth=1, tasks=len(tasks), **attrs
            )

    def finish(
        self, name: str, tasks: list[TaskCost], t_stage: float, **attrs
    ) -> None:
        """Close an inline site: record its stage, then snapshot."""
        self.record(name, tasks, t_stage, **attrs)
        if self.checkpoint is not None:
            self.save(name)

    def run(
        self,
        name: str,
        run_task: Callable[[int, int], tuple[object, TaskCost]],
        commit: Callable[[object], None],
        *,
        needs_role: int | None = None,
        tasks: Callable[[], list[Task]] | None = None,
    ) -> None:
        """Run one scheduled site: cut its tasks, execute them in
        checkpoint chunks, commit, and record the stage.

        The tasks are ``tasks()`` or else Algorithm 5's degree-bundled
        ranges over the vertices whose role is ``needs_role`` (every
        vertex when ``None``).
        """
        if not self.claim():
            return
        t_stage = time.perf_counter()
        if self._site - 1 == self._cursor and self._pending is not None:
            todo, records = self._pending, list(self._partial)
            self._pending, self._partial = None, []
        elif tasks is not None:
            todo, records = tasks(), []
        else:
            needs = (
                None
                if needs_role is None
                else np.asarray(self.roles) == needs_role
            )
            todo = degree_based_tasks(self.graph.degrees, needs, self.threshold)
            records = []
        ck = self.checkpoint
        chunk = len(todo) if ck is None or ck.every is None else max(1, ck.every)
        tracer = self.tracer
        pos = 0
        try:
            while pos < len(todo):
                batch = todo[pos : pos + chunk]
                if tracer.enabled:
                    with tracer.span(name, lane=0, tasks=len(batch)):
                        recs = self.backend.run_phase(batch, run_task, commit)
                else:
                    recs = self.backend.run_phase(batch, run_task, commit)
                records.extend(recs)
                pos += len(batch)
                if ck is not None and pos < len(todo):
                    self.save(name, pending=todo[pos:], partial=records)
        except ExecutionFaultError as exc:
            located = exc.locate(stage=name, algorithm=self.algorithm)
            if ck is not None:
                # Everything committed so far is durable; the failed
                # chunk never committed, so its tasks stay pending.
                epoch = self.save(name, pending=todo[pos:], partial=records)
                raise ResumableAbort.from_fault(
                    located, epoch=epoch, directory=ck.directory
                )
            raise located
        self.stages.append(
            StageRecord(name, records, time.perf_counter() - t_stage)
        )
        if ck is not None:
            self.save(name)
