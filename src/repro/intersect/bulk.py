"""Bulk NumPy common-neighbor kernel.

A vectorized whole-graph path used by the fast execution mode and by the
reference implementations in tests: for one source vertex it marks the
neighborhood in a boolean scratch array and counts hits for many candidate
neighbors with single NumPy reductions.  It produces *exact counts* (no
early termination) and therefore also serves as the oracle that the
early-terminating kernels are property-tested against.  The counting
itself is :meth:`~repro.intersect.BatchIntersector.group_counts`; this
module only groups arbitrary ``(u, v)`` rows by source.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .batch import BatchIntersector

__all__ = ["BulkIntersector", "common_neighbor_counts"]


class BulkIntersector:
    """Reusable per-graph scratch space for common-neighbor counting."""

    def __init__(self, graph: CSRGraph) -> None:
        self._graph = graph
        self._batch = BatchIntersector(graph)

    def counts_from(self, u: int, candidates: np.ndarray) -> np.ndarray:
        """``out[i] = |N(u) ∩ N(candidates[i])|`` for each candidate.

        ``candidates`` are vertex ids (typically a subset of ``N(u)``),
        counted by one mark-and-count pass of
        :meth:`BatchIntersector.group_counts`.
        """
        return self._batch.group_counts(u, candidates)

    def counts_from_loop(self, u: int, candidates: np.ndarray) -> np.ndarray:
        """Reference implementation of :meth:`counts_from` (one
        ``np.count_nonzero`` per candidate) — kept as the test oracle for
        the gathered/segmented fast path."""
        graph = self._graph
        mark = np.zeros(graph.num_vertices, dtype=bool)
        mark[graph.neighbors(u)] = True
        out = np.empty(len(candidates), dtype=np.int64)
        offsets, dst = graph.offsets, graph.dst
        for i, v in enumerate(candidates):
            out[i] = int(np.count_nonzero(mark[dst[offsets[v] : offsets[v + 1]]]))
        return out


def common_neighbor_counts(graph: CSRGraph, edges: np.ndarray) -> np.ndarray:
    """``|N(u) ∩ N(v)|`` for every row ``(u, v)`` of ``edges``.

    Rows are grouped by source vertex (boundaries from ``np.diff`` of the
    stably sorted sources) so each neighborhood is marked once.
    """
    edges = np.asarray(edges)
    if edges.size == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(edges[:, 0], kind="stable")
    srcs = edges[order, 0]
    bounds = np.concatenate(
        ([0], np.flatnonzero(np.diff(srcs)) + 1, [order.size])
    ).tolist()
    inter = BatchIntersector(graph)
    out = np.empty(order.size, dtype=np.int64)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        idx = order[lo:hi]
        out[idx] = inter.group_counts(int(srcs[lo]), edges[idx, 1])
    return out
