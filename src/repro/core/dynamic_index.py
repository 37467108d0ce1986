"""Incrementally-maintained GS*-Index over a dynamic graph.

The GS*-Index paper supports edge updates with local index maintenance;
this module reproduces that capability on top of
:class:`~repro.graph.dynamic.DynamicGraph`.  Let ``T`` be the touched
vertices (endpoints of effective edits):

* an overlap can change only on an edge incident to ``T``.  The per-edge
  :meth:`~DynamicGSIndex.insert_edge` / :meth:`~DynamicGSIndex.remove_edge`
  apply O(d(u)+d(v)) membership deltas; :func:`apply_edit_batch`
  (behind :meth:`~DynamicGSIndex.apply_batch`, and run directly by the
  array-native streaming engine) recomputes every such edge once, in one
  bulk :class:`~repro.intersect.BatchIntersector` pass over the
  post-batch CSR snapshot;
* a similarity key ``σ(w, t)`` can change only if ``w`` or ``t`` is in
  ``T``, so :meth:`~DynamicGSIndex.refresh` repairs neighbor orders in
  two tiers: each vertex of ``T`` is re-sorted exactly, and every other
  vertex ``w`` keeps its order and only moves its entries for
  ``T ∩ N(w)``, each by bisection;
* queries are exact for any (ε, µ), verified against rebuilding a static
  :class:`~repro.core.gsindex.GSIndex` from a snapshot.

Similarity keys stay exact rationals (``overlap² / ((d(u)+1)(d(v)+1))``)
so boundary queries agree with every other implementation.  Orders run
by σ descending, then neighbor id ascending.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.dynamic import DynamicGraph
from ..intersect import BatchIntersector
from ..intersect.batch import concat_ranges
from ..metrics.records import RunRecord, StageRecord, TaskCost
from ..types import CORE, NONCORE, ScanParams
from .gsindex import (
    _eps_squared,
    arc_order,
    bulk_overlaps,
    descending_order,
    edge_overlaps,
)
from .result import ClusteringResult, assemble_clustering

__all__ = [
    "BatchMaintenance",
    "DynamicGSIndex",
    "OrderRepair",
    "apply_edit_batch",
]


def _overlap_closed(adj_u: list[int], adj_v: list[int]) -> int:
    """Closed-neighborhood overlap of an *adjacent* pair: |N∩N| + 2."""
    i = j = common = 0
    na, nb = len(adj_u), len(adj_v)
    while i < na and j < nb:
        x, y = adj_u[i], adj_v[j]
        if x < y:
            i += 1
        elif x > y:
            j += 1
        else:
            common += 1
            i += 1
            j += 1
    return common + 2


def _contains(sorted_list: list[int], x: int) -> bool:
    from bisect import bisect_left

    i = bisect_left(sorted_list, x)
    return i < len(sorted_list) and sorted_list[i] == x


@dataclass(frozen=True)
class BatchMaintenance:
    """What one :func:`apply_edit_batch` pass actually did.

    ``frontier`` is the affected-arc frontier — every undirected pair
    ``(u, v)`` with ``u < v`` whose closed-neighborhood overlap was
    recomputed because an endpoint's adjacency changed; ``touched`` is
    the set of vertices whose adjacency itself changed (endpoints of
    effective edits); ``dirty`` additionally includes their
    post-batch neighbors (the vertices whose neighbor orders must be
    refreshed, since their similarity keys involve changed degrees).
    ``removed_edges`` are the pairs an edit removed that stay absent.

    ``snapshot`` is the post-batch CSR graph the overlaps were computed
    on (``None`` when no edit took effect).  Row ``i`` of
    ``frontier_arcs`` holds the arc ids of ``u → v`` and ``v → u`` in it
    for ``frontier[i] == (u, v)``, whose overlap is
    ``frontier_overlaps[i]``.
    """

    inserted: int
    removed: int
    skipped: int
    touched: tuple[int, ...]
    frontier: tuple[tuple[int, int], ...]
    dirty: tuple[int, ...] = field(default=())
    removed_edges: tuple[tuple[int, int], ...] = field(
        default=(), compare=False, repr=False
    )
    snapshot: CSRGraph | None = field(default=None, compare=False, repr=False)
    frontier_arcs: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int64),
        compare=False,
        repr=False,
    )
    frontier_overlaps: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64),
        compare=False,
        repr=False,
    )

    @property
    def effective(self) -> int:
        return self.inserted + self.removed


def apply_edit_batch(graph: DynamicGraph, edits) -> BatchMaintenance:
    """Apply a batch of ``(insert, u, v)`` edits to ``graph`` and
    recompute every overlap the batch can have changed, in one pass.

    Instead of repairing overlaps after every edit (the per-edge
    :meth:`DynamicGSIndex.insert_edge` / :meth:`DynamicGSIndex.remove_edge`
    path), the batch is applied to the graph first and repaired once:

    * an arc's closed-neighborhood overlap can only change if one of
      its endpoints' adjacency changed, so the affected-arc frontier is
      exactly the arcs incident to the touched-vertex set ``T``;
    * every frontier edge's overlap is recomputed once, by one bulk
      :func:`~repro.core.gsindex.edge_overlaps` pass over the post-batch
      snapshot, no matter how many edits touched it.

    The whole batch is validated up front, so an invalid edit raises
    (``IndexError`` / ``ValueError``) before any mutation happens.
    Duplicate inserts and absent removes are counted as ``skipped``.
    """
    ops: list[tuple[bool, int, int]] = []
    for op in edits:
        insert, u, v = bool(op[0]), int(op[1]), int(op[2])
        graph._check(u, v)
        ops.append((insert, u, v))

    inserted = removed = skipped = 0
    touched: set[int] = set()
    removed_pairs: set[tuple[int, int]] = set()
    for insert, u, v in ops:
        pair = (u, v) if u < v else (v, u)
        if insert:
            if graph.insert_edge(u, v):
                inserted += 1
                touched.update(pair)
                removed_pairs.discard(pair)
            else:
                skipped += 1
        else:
            if graph.remove_edge(u, v):
                removed += 1
                touched.update(pair)
                removed_pairs.add(pair)
            else:
                skipped += 1
    if not touched:
        return BatchMaintenance(inserted, removed, skipped, (), ())

    # Every frontier edge once, as its u < v arc of the snapshot.
    snapshot = graph.snapshot()
    inter = BatchIntersector(snapshot)
    src, dst, keys = inter.arc_src, snapshot.dst, inter.arc_keys
    tv = np.fromiter(sorted(touched), dtype=np.int64, count=len(touched))
    out = concat_ranges(snapshot.offsets[tv], snapshot.offsets[tv + 1])
    a, b = src[out], dst[out]
    back = np.searchsorted(keys, b * np.int64(snapshot.num_vertices) + a)
    upper = a < b
    arcs, first = np.unique(np.where(upper, out, back), return_index=True)
    rev = np.where(upper, back, out)[first]
    overlaps = edge_overlaps(snapshot, arcs, rev, inter)
    return BatchMaintenance(
        inserted=inserted,
        removed=removed,
        skipped=skipped,
        touched=tuple(tv.tolist()),
        frontier=tuple(zip(src[arcs].tolist(), dst[arcs].tolist())),
        dirty=tuple(np.union1d(tv, b).tolist()),
        removed_edges=tuple(sorted(removed_pairs)),
        snapshot=snapshot,
        frontier_arcs=np.column_stack((arcs, rev)),
        frontier_overlaps=overlaps,
    )


class OrderRepair(NamedTuple):
    """What one :meth:`DynamicGSIndex.refresh` changed.

    ``resorted`` vertices got a whole new order; every vertex ``w`` in
    ``moved`` kept its order except for the listed entries, given as
    ``(rank before the move, σ² numerator, σ² denominator)``.
    """

    resorted: list[int]
    moved: dict[int, list[tuple[int, int, int]]]


class DynamicGSIndex:
    """GS*-Index with incremental edge maintenance."""

    def __init__(self, graph: DynamicGraph) -> None:
        self.graph = graph
        # Pending order repairs: touched vertices to re-sort whole, and
        # for every other vertex the touched neighbors whose entries move.
        self._dirty: set[int] = set()
        self._moved: dict[int, set[int]] = {}
        self.maintenance_ops = 0
        # Seed overlaps and neighbor orders from the static index's bulk
        # pass over the start state: arcs of u ascend with v, so the
        # sorted arc order's targets are the (exact descending, v
        # ascending) vertex order that refresh maintains.  Keys
        # and orders share one int object per vertex id, which keeps the
        # index as small as the per-edge construction left it.
        snapshot = graph.snapshot()
        overlap, _ = bulk_overlaps(snapshot)
        src, dst = snapshot.arc_source(), snapshot.dst
        upper = src < dst
        vertex = list(range(graph.num_vertices)).__getitem__
        self._overlap: dict[tuple[int, int], int] = dict(
            zip(
                zip(
                    map(vertex, src[upper].tolist()),
                    map(vertex, dst[upper].tolist()),
                ),
                overlap[upper].tolist(),
            )
        )
        flat = list(map(vertex, dst[arc_order(snapshot, overlap)[0]].tolist()))
        off = snapshot.offsets.tolist()
        self._order: list[list[int]] = [
            flat[off[u] : off[u + 1]] for u in range(graph.num_vertices)
        ]

    # -- similarity keys -------------------------------------------------

    def _key(self, u: int, v: int) -> tuple[int, int]:
        """Exact similarity² of edge (u, v) as (numerator, denominator)."""
        edge = (u, v) if u < v else (v, u)
        overlap = self._overlap[edge]
        return (
            overlap * overlap,
            (self.graph.degree(u) + 1) * (self.graph.degree(v) + 1),
        )

    def _similar(self, u: int, v: int, eps_num: int, eps_den: int) -> bool:
        num, den = self._key(u, v)
        return num * eps_den >= eps_num * den

    # -- maintenance ------------------------------------------------------

    def insert_edge(self, u: int, v: int) -> bool:
        """Insert ``{u, v}`` and repair the index locally."""
        if not self.graph.insert_edge(u, v):
            return False
        adj_u, adj_v = self.graph.neighbors(u), self.graph.neighbors(v)
        # The new edge's own overlap.
        self._overlap[(min(u, v), max(u, v))] = _overlap_closed(adj_u, adj_v)
        self.maintenance_ops += len(adj_u) + len(adj_v)
        # N(u) gained v: every edge (u, w) with v in N(w) gains a common
        # neighbor; symmetrically for v.
        for a, b in ((u, v), (v, u)):
            adj_a = self.graph.neighbors(a)
            for w in adj_a:
                if w == b:
                    continue
                self.maintenance_ops += 1
                if _contains(self.graph.neighbors(w), b):
                    edge = (a, w) if a < w else (w, a)
                    self._overlap[edge] += 1
        self._mark((u, v))
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove ``{u, v}`` and repair the index locally.

        Validates ``(u, v)`` first so invalid endpoints raise exactly as
        :meth:`insert_edge` does (``IndexError`` out of range,
        ``ValueError`` on a self loop) instead of reporting the edge as
        merely absent.
        """
        self.graph._check(u, v)
        if not self.graph.has_edge(u, v):
            return False
        # Decrement overlaps before the removal mutates the lists.
        for a, b in ((u, v), (v, u)):
            for w in self.graph.neighbors(a):
                if w == b:
                    continue
                self.maintenance_ops += 1
                if _contains(self.graph.neighbors(w), b):
                    edge = (a, w) if a < w else (w, a)
                    self._overlap[edge] -= 1
        self.graph.remove_edge(u, v)
        del self._overlap[(min(u, v), max(u, v))]
        self._mark((u, v))
        return True

    def apply_batch(self, edits) -> BatchMaintenance:
        """Apply a batch of ``(insert, u, v)`` edits in one repair pass.

        :func:`apply_edit_batch` applies the edits and recomputes every
        frontier overlap once; the index then adopts those overlaps,
        drops the keys of removed edges and queues the order repairs of
        ``T ∪ N(T)`` (the vertices whose similarity keys involve a
        changed overlap or degree) for :meth:`refresh`.
        """
        stats = apply_edit_batch(self.graph, edits)
        if not stats.touched:
            return stats
        for pair in stats.removed_edges:
            self._overlap.pop(pair, None)
        self._overlap.update(zip(stats.frontier, stats.frontier_overlaps.tolist()))
        snapshot = stats.snapshot
        self.maintenance_ops += int(
            snapshot.degrees[snapshot.dst[stats.frontier_arcs]].sum()
        )
        self._mark(stats.touched)
        return stats

    def overlap(self, u: int, v: int) -> int:
        """Exact closed-neighborhood overlap of the existing edge ``{u, v}``."""
        return self._overlap[(u, v) if u < v else (v, u)]

    def overlaps(self):
        """Iterate ``((u, v), overlap)`` over every edge (``u < v``)."""
        return iter(self._overlap.items())

    def _mark(self, touched) -> None:
        """Queue the order repairs an adjacency change at ``touched``
        needs: σ moved only on arcs incident to a touched vertex."""
        self._dirty.update(touched)
        for t in touched:
            for w in self.graph.neighbors(t):
                self._moved.setdefault(w, set()).add(t)

    def refresh(self) -> OrderRepair:
        """Repair every pending neighbor order (idempotent).

        Each pending touched vertex is re-sorted exactly.  Every other
        vertex keeps its order: the entries whose σ did not change are
        still sorted, so only the moved entries leave and are re-inserted
        by bisection.
        """
        resorted = sorted(self._dirty)
        pending = [
            (w, ts) for w, ts in self._moved.items() if w not in self._dirty
        ]
        self._dirty.clear()
        self._moved.clear()
        if resorted:
            self._resort(resorted)
        return OrderRepair(
            resorted, {w: self._move(w, ts) for w, ts in pending}
        )

    def _resort(self, vertices: list[int]) -> None:
        """Exact re-sort of ``vertices``' orders in one descending_order."""
        adj, overlap = self.graph.adjacency, self._overlap
        lists = [adj[u] for u in vertices]
        sizes = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
        flat = list(chain.from_iterable(lists))
        src = np.repeat(np.asarray(vertices, dtype=np.int64), sizes)
        dst = np.asarray(flat, dtype=np.int64)
        pairs = zip(np.minimum(src, dst).tolist(), np.maximum(src, dst).tolist())
        ov = np.fromiter(
            map(overlap.__getitem__, pairs), dtype=np.int64, count=len(flat)
        )
        deg = np.fromiter(
            map(len, map(adj.__getitem__, flat)), dtype=np.int64, count=len(flat)
        )
        order = descending_order(
            ov * ov,
            (sizes + 1).repeat(sizes) * (deg + 1),
            np.arange(len(vertices)).repeat(sizes),
        )
        # The adjacency's own int objects, in sorted order.
        ranked = list(map(flat.__getitem__, order.tolist()))
        end = 0
        for u, size in zip(vertices, sizes.tolist()):
            self._order[u] = ranked[end : end + size]
            end += size

    def _move(self, w: int, moved: set[int]) -> list[tuple[int, int, int]]:
        """Re-insert ``w``'s entries for ``moved`` at their new keys, each
        by bisection; returns ``(rank before the move, σ² numerator,
        σ² denominator)`` per moved entry."""
        order = self._order[w]
        ranked = sorted([(order.index(t), t) for t in moved])
        for rank, _ in reversed(ranked):
            del order[rank]
        overlap, adj = self._overlap, self.graph.adjacency
        dw1 = len(adj[w]) + 1
        out = []
        for rank, t in ranked:
            o = overlap[(w, t) if w < t else (t, w)]
            num, dt1 = o * o, len(adj[t]) + 1
            lo, hi = 0, len(order)
            while lo < hi:
                mid = (lo + hi) // 2
                x = order[mid]
                ox = overlap[(w, x) if w < x else (x, w)]
                # x goes after t iff σ(w, x) < σ(w, t), or they tie and
                # x > t; the common factor d(w) + 1 cancels.
                lhs, rhs = ox * ox * dt1, num * (len(adj[x]) + 1)
                if lhs < rhs or (lhs == rhs and x > t):
                    hi = mid
                else:
                    lo = mid + 1
            order.insert(lo, t)
            out.append((rank, num, dw1 * dt1))
        return out

    @property
    def orders(self) -> list[list[int]]:
        """Every vertex's neighbor order (refreshed; do not mutate)."""
        return self._order

    def prefix_length(self, u: int, eps_num: int, eps_den: int) -> int:
        """Length of ``u``'s ε-similar prefix, by bisection on its order.

        Callers must :meth:`refresh` first; ``eps_num`` / ``eps_den``
        are the squared ε fraction's numerator and denominator (the same
        integers :meth:`query` compares against).
        """
        order = self._order[u]
        lo, hi = 0, len(order)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._similar(u, order[mid], eps_num, eps_den):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def similar_prefix(
        self, u: int, eps_num: int, eps_den: int
    ) -> list[int]:
        """The ε-similar prefix of ``u``'s neighbor order (descending σ);
        arguments as for :meth:`prefix_length`."""
        return self._order[u][: self.prefix_length(u, eps_num, eps_den)]

    def repair_prefix_lengths(
        self, lengths: list[int], repair: OrderRepair, eps_num: int, eps_den: int
    ) -> None:
        """Bring ``lengths`` (each vertex's ε-similar prefix length before
        ``repair``) up to date in place.

        A re-sorted vertex bisects its new order.  A vertex with moved
        entries changed only in them: it loses those that ranked inside
        its old prefix and gains those that are similar now.
        """
        for u in repair.resorted:
            lengths[u] = self.prefix_length(u, eps_num, eps_den)
        for w, moves in repair.moved.items():
            old = k = lengths[w]
            for rank, num, den in moves:
                k += (num * eps_den >= eps_num * den) - (rank < old)
            lengths[w] = k

    # -- queries ------------------------------------------------------------

    def query(self, params: ScanParams) -> ClusteringResult:
        """Exact SCAN clustering of the current graph state.

        A vertex is a core iff its ε-similar prefix reaches µ; the
        cores' prefixes go to
        :func:`~repro.core.result.assemble_clustering`.  The record
        charges one arc per vertex plus the prefix arcs walked.
        """
        t0 = time.perf_counter()
        self.refresh()
        eps = _eps_squared(params)
        n = self.graph.num_vertices
        length = np.fromiter(
            (self.prefix_length(u, *eps) for u in range(n)), np.int64, n
        )
        roles = np.where(length >= params.mu, CORE, NONCORE).astype(np.int8)
        cores = np.flatnonzero(roles == CORE)
        counts = length[cores]
        total = int(counts.sum())
        orders = self._order
        dst = np.fromiter(
            chain.from_iterable(
                orders[u][:k] for u, k in zip(cores.tolist(), counts.tolist())
            ),
            np.int64,
            total,
        )
        result, merges = assemble_clustering(
            "DynamicGS*-Index", params, roles, np.repeat(cores, counts), dst
        )
        result.record = RunRecord(
            algorithm="DynamicGS*-Index (query)",
            stages=[
                StageRecord(
                    "index query", [TaskCost(arcs=n + total, atomics=merges)]
                )
            ],
            wall_seconds=time.perf_counter() - t0,
        )
        result.record.apportion_wall()
        return result
