"""Incrementally-maintained GS*-Index over a dynamic graph.

The GS*-Index paper supports edge updates with local index maintenance;
this module reproduces that capability on top of
:class:`~repro.graph.dynamic.DynamicGraph`:

* inserting/removing edge ``{u, v}`` updates exactly the affected state —
  the overlap of ``{u, v}`` itself, the overlaps of edges incident to
  ``u`` or ``v`` whose common-neighbor count changed (an O(d(u)+d(v))
  membership sweep), and the neighbor orders of ``{u, v} ∪ N(u) ∪ N(v)``
  (the only vertices whose similarity keys involve the changed degrees);
* queries are exact for any (ε, µ), verified against rebuilding a static
  :class:`~repro.core.gsindex.GSIndex` from a snapshot.

Similarity keys stay exact rationals (``overlap² / ((d(u)+1)(d(v)+1))``)
so boundary queries agree with every other implementation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..graph.dynamic import DynamicGraph
from ..metrics.records import RunRecord, StageRecord, TaskCost
from ..types import CORE, NONCORE, ScanParams
from ..unionfind import UnionFind
from .gsindex import arc_order, bulk_overlaps
from .result import ClusteringResult

__all__ = ["BatchMaintenance", "DynamicGSIndex"]


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
    """What one :meth:`DynamicGSIndex.apply_batch` call actually did.

    ``frontier`` is the affected-arc frontier — every undirected pair
    ``(u, v)`` with ``u < v`` whose closed-neighborhood overlap was
    recomputed because an endpoint's adjacency changed; ``touched`` is
    the set of vertices whose adjacency itself changed (endpoints of
    effective edits); ``dirty`` additionally includes their
    post-batch neighbors (the vertices whose neighbor orders must be
    refreshed, since their similarity keys involve changed degrees).
    """

    inserted: int
    removed: int
    skipped: int
    touched: tuple[int, ...]
    frontier: tuple[tuple[int, int], ...]
    dirty: tuple[int, ...] = field(default=())

    @property
    def effective(self) -> int:
        return self.inserted + self.removed


class DynamicGSIndex:
    """GS*-Index with incremental edge maintenance."""

    def __init__(self, graph: DynamicGraph) -> None:
        self.graph = graph
        self._dirty: set[int] = set()
        self.maintenance_ops = 0
        # Seed overlaps and neighbor orders from the static index's bulk
        # pass over the start state: arcs of u ascend with v, so the
        # sorted arc order's targets are the (exact descending, v
        # ascending) vertex order that _refresh_orders maintains.  Keys
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
        self._mark_dirty(u, v)
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
        self._mark_dirty(u, v)
        return True

    def apply_batch(self, edits) -> BatchMaintenance:
        """Apply a batch of ``(insert, u, v)`` edits in one repair pass.

        Instead of repairing overlaps after every edit (the per-edge
        :meth:`insert_edge` / :meth:`remove_edge` path), the batch is
        applied to the graph first and the index is repaired once:

        * an arc's closed-neighborhood overlap can only change if one of
          its endpoints' adjacency changed, so the affected-arc frontier
          is exactly the arcs incident to the touched-vertex set ``T``;
        * each frontier arc's overlap is recomputed by a single sorted
          merge — once per arc, no matter how many edits touched its
          endpoints;
        * neighbor orders need refreshing only for ``T ∪ N(T)`` (the
          vertices whose similarity keys involve a changed degree).

        The whole batch is validated up front, so an invalid edit raises
        (``IndexError`` / ``ValueError``) before any mutation happens.
        Duplicate inserts and absent removes are counted as ``skipped``.
        """
        graph = self.graph
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

        # Overlap keys of edges that no longer exist.
        for pair in removed_pairs:
            self._overlap.pop(pair, None)

        # Recompute every frontier arc's overlap exactly once.
        frontier: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for a in touched:
            for b in graph.neighbors(a):
                pair = (a, b) if a < b else (b, a)
                if pair in seen:
                    continue
                seen.add(pair)
                self._overlap[pair] = _overlap_closed(
                    graph.neighbors(pair[0]), graph.neighbors(pair[1])
                )
                self.maintenance_ops += graph.degree(pair[0]) + graph.degree(
                    pair[1]
                )
                frontier.append(pair)

        dirty = set(touched)
        for a in touched:
            dirty.update(graph.neighbors(a))
        self._dirty.update(dirty)
        return BatchMaintenance(
            inserted=inserted,
            removed=removed,
            skipped=skipped,
            touched=tuple(sorted(touched)),
            frontier=tuple(sorted(frontier)),
            dirty=tuple(sorted(dirty)),
        )

    def overlap(self, u: int, v: int) -> int:
        """Exact closed-neighborhood overlap of the existing edge ``{u, v}``."""
        return self._overlap[(u, v) if u < v else (v, u)]

    def overlaps(self):
        """Iterate ``((u, v), overlap)`` over every edge (``u < v``)."""
        return iter(self._overlap.items())

    def _mark_dirty(self, u: int, v: int) -> None:
        self._dirty.add(u)
        self._dirty.add(v)
        self._dirty.update(self.graph.neighbors(u))
        self._dirty.update(self.graph.neighbors(v))

    def _refresh_orders(self) -> None:
        graph = self.graph
        overlap = self._overlap
        for u in self._dirty:
            # Precompute each neighbor's exact key once: re-deriving it
            # per comparison dominates batched maintenance otherwise.
            du1 = graph.degree(u) + 1
            keyed = []
            for v in graph.neighbors(u):
                o = overlap[(u, v) if u < v else (v, u)]
                keyed.append((o * o, du1 * (graph.degree(v) + 1), v))
            keyed.sort(key=lambda t: -(t[0] / t[1]))
            # Exact repair of float-key near-ties (descending).
            for i in range(1, len(keyed)):
                j = i
                while j > 0:
                    na, da, _ = keyed[j - 1]
                    nb, db, _ = keyed[j]
                    if na * db < nb * da:
                        keyed[j - 1], keyed[j] = keyed[j], keyed[j - 1]
                        j -= 1
                    else:
                        break
            self._order[u] = [t[2] for t in keyed]
        self._dirty.clear()

    def refresh(self) -> None:
        """Re-sort every dirty vertex's neighbor order (idempotent)."""
        self._refresh_orders()

    def similar_prefix(
        self, u: int, eps_num: int, eps_den: int
    ) -> list[int]:
        """The ε-similar prefix of ``u``'s neighbor order (descending σ).

        Callers must :meth:`refresh` first; ``eps_num`` / ``eps_den``
        are the squared ε fraction's numerator and denominator (the same
        integers :meth:`query` compares against).
        """
        prefix: list[int] = []
        for v in self._order[u]:
            if not self._similar(u, v, eps_num, eps_den):
                break
            prefix.append(v)
        return prefix

    # -- queries ------------------------------------------------------------

    def query(self, params: ScanParams) -> ClusteringResult:
        """Exact SCAN clustering of the current graph state."""
        t0 = time.perf_counter()
        self._refresh_orders()
        graph = self.graph
        n = graph.num_vertices
        frac = params.eps_fraction
        eps_num = frac.numerator * frac.numerator
        eps_den = frac.denominator * frac.denominator

        arcs_walked = n
        roles = np.full(n, NONCORE, dtype=np.int8)
        for u in range(n):
            order = self._order[u]
            if len(order) >= params.mu and self._similar(
                u, order[params.mu - 1], eps_num, eps_den
            ):
                roles[u] = CORE

        uf = UnionFind(n)
        pairs: list[tuple[int, int]] = []
        for u in np.flatnonzero(roles == CORE).tolist():
            for v in self._order[u]:
                if not self._similar(u, v, eps_num, eps_den):
                    break
                arcs_walked += 1
                if roles[v] == CORE:
                    if u < v:
                        uf.union(u, v)
                else:
                    pairs.append((u, v))

        cluster_id: dict[int, int] = {}
        labels = np.full(n, -1, dtype=np.int64)
        for u in np.flatnonzero(roles == CORE).tolist():
            root = uf.find(u)
            if root not in cluster_id:
                cluster_id[root] = u
            labels[u] = cluster_id[root]
        pair_rows = [(int(labels[u]), v) for u, v in pairs]

        record = RunRecord(
            algorithm="DynamicGS*-Index (query)",
            stages=[
                StageRecord(
                    "index query",
                    [TaskCost(arcs=arcs_walked, atomics=uf.num_unions)],
                )
            ],
            wall_seconds=time.perf_counter() - t0,
        )
        record.apportion_wall()
        return ClusteringResult(
            algorithm="DynamicGS*-Index",
            params=params,
            roles=roles,
            core_labels=labels,
            noncore_pairs=pair_rows,
            record=record,
        )
