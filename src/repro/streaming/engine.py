"""Batched streaming maintenance of the GS*-Index and its query state.

The :class:`StreamingEngine` owns one evolving graph and keeps three
layers consistent across batches of edge edits.  Let ``T`` be the
touched vertices (endpoints of the batch's effective edits):

1. **Index** — :meth:`~repro.core.dynamic_index.DynamicGSIndex.apply_batch`
   recomputes the overlaps of the edges incident to ``T`` in one bulk
   pass over the post-batch snapshot, which the engine adopts as its
   own; ``refresh`` re-sorts the orders of ``T`` and, for every other
   neighbor of ``T``, moves only its entries for ``T``.
2. **SimilarityStore** — every snapshot has its own content fingerprint,
   so a batch *moves* the store entry: overlaps of arcs untouched by the
   batch are migrated to the new fingerprint's entry (their exact values
   cannot have changed), touched arcs are deliberately dropped
   (invalidated), frontier arcs are re-recorded from the batch's bulk
   overlap pass, and the superseded entry is discarded.
3. **Materialized (ε, µ) points** — for every point a query has
   materialized, the engine keeps each vertex's ε-similar prefix
   length.  A batch repairs only the lengths of the repaired orders
   (bisection for ``T``, the moved entries elsewhere), then rebuilds
   roles / core labels / non-core pairs from them with the cluster
   assembly every GS*-Index query shares
   (:meth:`~repro.core.dynamic_index.DynamicGSIndex.cluster_prefixes`),
   bit-identical to a from-scratch
   :class:`~repro.core.gsindex.GSIndex` query (verified by the
   differential harness in :mod:`repro.streaming.differential`).

The index and prefix repairs scale with the batch's footprint; the
snapshot, fingerprint and store migration are O(n + m) array passes,
and the label rebuild is one array connectivity pass over the cores'
prefixes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..cache.store import SimilarityStore, StoreEntry, graph_fingerprint
from ..core.dynamic_index import BatchMaintenance, DynamicGSIndex, OrderRepair
from ..core.result import ClusteringResult
from ..graph.csr import CSRGraph
from ..graph.dynamic import DynamicGraph
from ..obs.tracer import current_tracer
from ..types import ScanParams
from .edits import EditBatch

__all__ = ["BatchReport", "StreamingEngine"]


@dataclass(frozen=True)
class BatchReport:
    """Everything one applied batch changed, for ledgers and callers."""

    batch: int
    inserted: int
    removed: int
    skipped: int
    arcs_repaired: int
    vertices_reclustered: int
    points_repaired: int
    overlaps_carried: int
    fingerprint: str
    num_vertices: int
    num_edges: int
    wall_seconds: float

    @property
    def effective(self) -> int:
        return self.inserted + self.removed

    def as_dict(self) -> dict:
        return {
            "batch": self.batch,
            "inserted": self.inserted,
            "removed": self.removed,
            "skipped": self.skipped,
            "arcs_repaired": self.arcs_repaired,
            "vertices_reclustered": self.vertices_reclustered,
            "points_repaired": self.points_repaired,
            "overlaps_carried": self.overlaps_carried,
            "fingerprint": self.fingerprint,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "wall_seconds": self.wall_seconds,
        }


class _PointState:
    """One materialized (ε, µ) point: per-vertex similar prefix lengths
    plus the result.

    A vertex's ε-similar prefix is the head of its neighbor order, so
    its length is all a point keeps.  After a batch only the repaired
    orders' lengths can change (see
    :meth:`~repro.core.dynamic_index.DynamicGSIndex.repair_prefix_lengths`);
    everything downstream (roles, labels, pairs) is rebuilt from them.
    """

    __slots__ = ("params", "eps_num", "eps_den", "lengths", "result")

    def __init__(self, params: ScanParams, index: DynamicGSIndex) -> None:
        self.params = params
        frac = params.eps_fraction
        self.eps_num = frac.numerator * frac.numerator
        self.eps_den = frac.denominator * frac.denominator
        n = index.graph.num_vertices
        self.lengths: list[int] = [
            index.prefix_length(u, self.eps_num, self.eps_den)
            for u in range(n)
        ]
        self.result = self._rebuild(index)

    def repair(self, index: DynamicGSIndex, repair: OrderRepair) -> int:
        """Repair the changed prefix lengths, rebuild the result."""
        index.repair_prefix_lengths(
            self.lengths, repair, self.eps_num, self.eps_den
        )
        self.result = self._rebuild(index)
        return len(repair.resorted) + len(repair.moved)

    def _rebuild(self, index: DynamicGSIndex) -> ClusteringResult:
        """Roles / labels / pairs from the cached prefix lengths, by the
        same :meth:`~repro.core.dynamic_index.DynamicGSIndex.cluster_prefixes`
        assembly a from-scratch query runs."""
        return index.cluster_prefixes(
            self.params,
            self.lengths,
            time.perf_counter(),
            algorithm="StreamingEngine",
            task="recluster",
            stage="scoped recluster",
        )


class StreamingEngine:
    """Serve exact (ε, µ) queries while batches of edits stream in."""

    def __init__(
        self,
        graph: CSRGraph | DynamicGraph,
        *,
        store: SimilarityStore | None = None,
        record_frontier: bool = True,
        label: str | None = None,
    ) -> None:
        if isinstance(graph, DynamicGraph):
            self._dyn = graph
            snapshot = graph.snapshot()
        else:
            snapshot = graph
            self._dyn = DynamicGraph.from_csr(graph)
        self._index = DynamicGSIndex(self._dyn)
        self._index.refresh()
        self.store = store
        self.record_frontier = record_frontier
        self.label = label
        self._snapshot = snapshot
        self._fingerprint = graph_fingerprint(snapshot)
        self._points: dict[tuple, _PointState] = {}
        self.batches_applied = 0
        self.edits_applied = 0
        self.edits_skipped = 0
        self.arcs_repaired = 0
        self.vertices_reclustered = 0
        self.overlaps_carried = 0
        if self.store is not None:
            self._seed_store()

    # -- identity --------------------------------------------------------

    @property
    def graph(self) -> DynamicGraph:
        return self._dyn

    @property
    def snapshot(self) -> CSRGraph:
        """CSR snapshot of the current state (refreshed per batch)."""
        return self._snapshot

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    @property
    def num_points(self) -> int:
        return len(self._points)

    # -- queries ---------------------------------------------------------

    def _point_key(self, params: ScanParams) -> tuple:
        frac = params.eps_fraction
        return (frac.numerator, frac.denominator, params.mu)

    def query(self, params: ScanParams) -> ClusteringResult:
        """Exact clustering at ``params``, memoized and batch-maintained."""
        key = self._point_key(params)
        state = self._points.get(key)
        if state is None:
            state = _PointState(params, self._index)
            self._points[key] = state
        return state.result

    def materialized(self) -> dict[tuple, ClusteringResult]:
        """Current results for every materialized point (post-repair)."""
        return {key: st.result for key, st in self._points.items()}

    # -- batches ---------------------------------------------------------

    def apply(self, edits) -> BatchReport:
        """Apply one batch of edits and repair index, store and points."""
        batch = EditBatch.coerce(edits)
        t0 = time.perf_counter()
        tracer = current_tracer()
        with tracer.span(
            "stream:apply",
            batch=self.batches_applied,
            ops=len(batch),
            fingerprint=self._fingerprint[:12],
        ):
            stats = self._index.apply_batch(batch)
            repair = self._index.refresh()

            carried = 0
            if stats.effective:
                old_snapshot = self._snapshot
                old_fingerprint = self._fingerprint
                self._snapshot = stats.snapshot
                if self.store is None:
                    self._fingerprint = graph_fingerprint(self._snapshot)
                else:
                    # entry_for hashes the snapshot; reuse its fingerprint.
                    new_entry = self.store.entry_for(self._snapshot)
                    self._fingerprint = new_entry.fingerprint
                    carried = self._migrate_store(
                        old_snapshot, old_fingerprint, new_entry, stats
                    )

            points_repaired = 0
            reclustered = 0
            if stats.dirty:
                for state in self._points.values():
                    reclustered += state.repair(self._index, repair)
                    points_repaired += 1

        wall = time.perf_counter() - t0
        self.batches_applied += 1
        self.edits_applied += stats.effective
        self.edits_skipped += stats.skipped
        self.arcs_repaired += len(stats.frontier)
        self.vertices_reclustered += reclustered
        self.overlaps_carried += carried
        if tracer.enabled:
            tracer.count("stream.batches", 1)
            tracer.count("stream.edits_applied", stats.effective)
            tracer.count("stream.edits_skipped", stats.skipped)
            tracer.count("stream.arcs_repaired", len(stats.frontier))
            tracer.count("stream.reclustered", reclustered)
            tracer.count("stream.overlaps_carried", carried)
        return BatchReport(
            batch=self.batches_applied - 1,
            inserted=stats.inserted,
            removed=stats.removed,
            skipped=stats.skipped,
            arcs_repaired=len(stats.frontier),
            vertices_reclustered=reclustered,
            points_repaired=points_repaired,
            overlaps_carried=carried,
            fingerprint=self._fingerprint,
            num_vertices=self._snapshot.num_vertices,
            num_edges=self._snapshot.num_edges,
            wall_seconds=wall,
        )

    # -- store maintenance ----------------------------------------------

    def _seed_store(self) -> None:
        """Commit the freshly built index's overlaps for the start state."""
        graph = self._snapshot
        entry = self.store.entry_for(graph)
        items = list(self._index.overlaps())
        if items:
            # Arc ids in one vectorized binary search over the sorted
            # ``src * n + dst`` keys of the CSR arcs.
            edges = np.array([edge for edge, _ in items], dtype=np.int64)
            n = np.int64(graph.num_vertices)
            keys = graph.arc_source() * n + graph.dst
            entry.record(
                np.searchsorted(keys, edges[:, 0] * n + edges[:, 1]),
                np.array([overlap for _, overlap in items], dtype=np.int64),
            )

    def _migrate_store(
        self,
        old_snapshot: CSRGraph,
        old_fingerprint: str,
        new_entry: StoreEntry,
        stats: BatchMaintenance,
    ) -> int:
        """Move the store entry across one batch's fingerprint change.

        Exactness argument: a batch only mutates the adjacency of its
        touched vertices, so for every arc whose endpoints are both
        untouched the source vertex's neighbor list is byte-identical in
        both snapshots — the arc's position merely shifts by the source's
        offset delta, and its overlap (a function of the two unchanged
        closed neighborhoods) carries over verbatim.  Arcs incident to a
        touched vertex are *not* migrated: their old values may be stale,
        so they miss until recomputed (``record_frontier`` re-records
        them immediately from the batch's bulk overlap pass).  Both arcs
        of every edge are written directly, so no reverse-arc index is
        built.  Returns the number of edges carried.
        """
        store = self.store
        new_snapshot = self._snapshot
        old_entry = store.peek(old_fingerprint)
        carried = 0
        if old_entry is not None and old_entry.covered:
            untouched = np.ones(new_snapshot.num_vertices, dtype=bool)
            untouched[list(stats.touched)] = False
            src = new_snapshot.arc_source()
            dst = new_snapshot.dst
            arcs_new = np.flatnonzero(untouched[src] & untouched[dst])
            src = src[arcs_new]
            arcs_old = arcs_new + (
                old_snapshot.offsets[src] - new_snapshot.offsets[src]
            )
            covered = old_entry.coverage[arcs_old]
            new_entry.record_arcs(
                arcs_new[covered], old_entry.overlap[arcs_old[covered]]
            )
            carried = int(np.count_nonzero(covered & (src < dst[arcs_new])))
        if self.record_frontier and stats.frontier:
            new_entry.record_arcs(
                stats.frontier_arcs.ravel(),
                stats.frontier_overlaps.repeat(2),
            )
        store.discard(old_fingerprint)
        return carried

    # -- reporting -------------------------------------------------------

    def stats(self) -> dict:
        """JSON-able counters over the engine's lifetime."""
        return {
            "fingerprint": self._fingerprint,
            "label": self.label,
            "num_vertices": self._snapshot.num_vertices,
            "num_edges": self._snapshot.num_edges,
            "batches_applied": self.batches_applied,
            "edits_applied": self.edits_applied,
            "edits_skipped": self.edits_skipped,
            "arcs_repaired": self.arcs_repaired,
            "vertices_reclustered": self.vertices_reclustered,
            "overlaps_carried": self.overlaps_carried,
            "points_materialized": len(self._points),
        }
