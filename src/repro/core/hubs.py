"""Hub/outlier classification as its own parallel phase.

The paper (§2, after Definition 2.10) notes that hubs and outliers "can be
found by exploring all the neighbors of vertices not in any cluster with a
time complexity O(|E| + |V|)".  This module runs that rule's one copy,
:func:`~repro.core.result.peripheral_labels`, as a task-parallel phase in
ppSCAN's execution model — vertex-range tasks through an execution
backend, with per-task work records — so the post-processing step can be
costed alongside the clustering stages.
"""

from __future__ import annotations

import time

import numpy as np

from ..graph.csr import CSRGraph
from ..metrics.records import RunRecord, StageRecord, TaskCost
from ..parallel.backend import ExecutionBackend, SerialBackend
from ..parallel.scheduler import degree_based_tasks
from ..types import CORE
from .ppscan import auto_task_threshold
from .result import ClusteringResult, peripheral_labels

__all__ = ["classify_peripherals"]


def classify_peripherals(
    graph: CSRGraph,
    result: ClusteringResult,
    backend: ExecutionBackend | None = None,
    task_threshold: int | None = None,
) -> tuple[np.ndarray, RunRecord]:
    """Parallel hub/outlier classification (Definition 2.10).

    Returns ``(classification, record)`` where ``classification`` matches
    :meth:`ClusteringResult.classify` exactly: CORE, cluster-member
    NONCORE, HUB, or OUTLIER per vertex.
    """
    t0 = time.perf_counter()
    if graph.num_vertices != result.num_vertices:
        raise ValueError("graph does not match this result")
    backend = backend if backend is not None else SerialBackend()
    threshold = (
        task_threshold
        if task_threshold is not None
        else auto_task_threshold(graph.num_arcs)
    )
    roles = result.roles
    offsets, ids = result.memberships
    out = np.empty(graph.num_vertices, dtype=np.int8)

    def run_task(beg: int, end: int):
        span = np.arange(beg, end)
        labels, arcs = peripheral_labels(graph, roles, offsets, ids, span)
        return (beg, labels), TaskCost(arcs=int(arcs.sum()))

    def commit(writes) -> None:
        beg, labels = writes
        out[beg : beg + labels.size] = labels

    # Degree-based tasks over the whole vertex set; vertices that are
    # trivially classified contribute no degree (the needs mask mirrors
    # Algorithm 5's role check).
    unclustered = (roles != CORE) & (offsets[1:] == offsets[:-1])
    tasks = degree_based_tasks(graph.degrees, unclustered, threshold)
    records = backend.run_phase(tasks, run_task, commit)
    record = RunRecord(
        algorithm="hub/outlier classification",
        stages=[
            StageRecord(
                "peripheral classification",
                records,
                time.perf_counter() - t0,
            )
        ],
        wall_seconds=time.perf_counter() - t0,
    )
    return out, record
