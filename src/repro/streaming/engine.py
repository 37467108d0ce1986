"""Batched streaming maintenance of exact SCAN clusterings.

The :class:`StreamingEngine` owns one evolving graph and keeps three
layers consistent across batches of edge edits.  Let ``T`` be the
touched vertices (endpoints of the batch's effective edits):

1. **Overlaps** — the engine runs on one
   :class:`~repro.core.dynamic_index.DynamicGSIndex`: one exact
   closed-neighborhood overlap per arc of the current CSR snapshot.
   :meth:`~repro.core.dynamic_index.DynamicGSIndex.apply_batch` applies
   the edits, recomputes the overlaps of the edges incident to ``T`` in
   one bulk pass over the post-batch snapshot, and carries every other
   arc's overlap by the source's offset shift.
2. **SimilarityStore** — every snapshot has its own content fingerprint,
   so a batch *moves* the store entry: overlaps of arcs untouched by the
   batch are migrated to the new fingerprint's entry (their exact values
   cannot have changed), touched arcs are deliberately dropped
   (invalidated), frontier arcs are re-recorded from the batch's bulk
   overlap pass, and the superseded entry is discarded.
3. **Materialized (ε, µ) points** — a point keeps only its result, and
   each batch re-derives it by the index's exact point pass: the
   ε-similar arcs, the cores by ``np.bincount``, and the cluster
   assembly every GS*-Index query shares
   (:func:`~repro.core.result.assemble_clustering`), bit-identical to a
   from-scratch :class:`~repro.core.gsindex.GSIndex` query (verified by
   the differential harness in :mod:`repro.streaming.differential`).

The overlap pass scales with the batch's footprint; the snapshot,
fingerprint, overlap carry, store migration and every point's pass
are O(n + m) array work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..cache.store import SimilarityStore, StoreEntry, graph_fingerprint
from ..core.dynamic_index import BatchMaintenance, DynamicGSIndex, cluster_arcs
from ..core.gsindex import GSIndex, bulk_overlaps
from ..core.result import ClusteringResult
from ..graph.csr import CSRGraph
from ..graph.dynamic import DynamicGraph
from ..obs.tracer import current_tracer
from ..types import ScanParams
from .edits import EditBatch

__all__ = ["BatchReport", "StreamingEngine"]

#: How a repaired point's record names its pass (algorithm, kind, stage).
_RECLUSTER = ("StreamingEngine", "recluster", "scoped recluster")


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


class StreamingEngine:
    """Serve exact (ε, µ) queries while batches of edits stream in.

    ``graph`` may also be a :class:`~repro.core.gsindex.GSIndex` or a
    :class:`~repro.api.GraphVersion`: whatever exact per-arc ``overlap``
    of its ``graph`` it holds seeds the engine with no overlap pass, and
    a version's ``fingerprint`` is reused rather than hashed again.
    """

    def __init__(
        self,
        graph: CSRGraph | DynamicGraph | GSIndex,
        *,
        store: SimilarityStore | None = None,
        record_frontier: bool = True,
        label: str | None = None,
    ) -> None:
        overlap = fingerprint = None
        if not isinstance(graph, (CSRGraph, DynamicGraph)):
            overlap = graph.overlap
            fingerprint = getattr(graph, "fingerprint", None)
            graph = graph.graph
        if not isinstance(graph, DynamicGraph):
            graph = DynamicGraph.from_csr(graph)
        if overlap is None:
            # With a store the seeding pass reads the entry an earlier
            # index build filled and records any misses, so the store
            # covers the start state.
            overlap, _ = bulk_overlaps(graph.snapshot(), store)
        self.store = store
        self.record_frontier = record_frontier
        self.label = label
        self._index = DynamicGSIndex(graph, overlap)
        self._fingerprint = fingerprint or graph_fingerprint(
            self._index.snapshot
        )
        self._points: dict[tuple, ClusteringResult] = {}
        self.batches_applied = 0
        self.edits_applied = 0
        self.edits_skipped = 0
        self.arcs_repaired = 0
        self.vertices_reclustered = 0
        self.overlaps_carried = 0

    # -- identity --------------------------------------------------------

    @property
    def graph(self) -> DynamicGraph:
        return self._index.graph

    @property
    def snapshot(self) -> CSRGraph:
        """CSR snapshot of the current state (refreshed per batch)."""
        return self._index.snapshot

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    @property
    def arc_overlap(self) -> np.ndarray:
        """Exact overlap of every arc of :attr:`snapshot` (replaced, never
        written in place, by each batch)."""
        return self._index.arc_overlap

    @property
    def arc_keys(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The :func:`~repro.core.gsindex.arc_keys` of :attr:`snapshot` if
        a repair has computed them since the last batch, else ``None``."""
        return self._index.keys

    @property
    def num_points(self) -> int:
        return len(self._points)

    # -- queries ---------------------------------------------------------

    def query(self, params: ScanParams) -> ClusteringResult:
        """Exact clustering at ``params``, memoized and batch-maintained."""
        key = params.point_key
        result = self._points.get(key)
        if result is None:
            result = self._points[key] = self._recluster(params)
        return result

    def track(self, result: ClusteringResult) -> None:
        """Materialize ``result``'s point, the exact clustering of
        :attr:`snapshot` computed elsewhere, without recomputing it."""
        self._points.setdefault(result.params.point_key, result)

    def materialized(self) -> dict[tuple, ClusteringResult]:
        """Current results for every materialized point (post-repair)."""
        return dict(self._points)

    def _recluster(self, params: ScanParams) -> ClusteringResult:
        """The index's exact point pass, recorded as the engine's."""
        keys = self._index.refresh()
        return cluster_arcs(self.snapshot, keys, params, *_RECLUSTER)

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

            points_repaired = 0
            reclustered = 0
            if stats.dirty:
                for key, result in self._points.items():
                    self._points[key] = self._recluster(result.params)
                    reclustered += len(stats.dirty)
                    points_repaired += 1

            # The store moves last, once nothing of the batch can fail: a
            # batch that raises leaves the published version's entry.
            carried = 0
            if stats.effective:
                old_fingerprint = self._fingerprint
                if self.store is None:
                    self._fingerprint = graph_fingerprint(stats.snapshot)
                else:
                    # entry_for hashes the snapshot; reuse its fingerprint.
                    new_entry = self.store.entry_for(stats.snapshot)
                    self._fingerprint = new_entry.fingerprint
                    carried = self._migrate_store(
                        old_fingerprint, new_entry, stats
                    )

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
        snapshot = self.snapshot
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
            num_vertices=snapshot.num_vertices,
            num_edges=snapshot.num_edges,
            wall_seconds=wall,
        )

    # -- store maintenance ----------------------------------------------

    def _migrate_store(
        self,
        old_fingerprint: str,
        new_entry: StoreEntry,
        stats: BatchMaintenance,
    ) -> int:
        """Move the store entry across one batch's fingerprint change.

        The covered arcs of ``stats.carried`` (the index's
        :func:`~repro.core.dynamic_index.carried_arcs`: both endpoints
        untouched, so their overlaps cannot have changed) are copied to
        the new entry.  Arcs incident to a touched vertex are *not*
        migrated: their old values may be stale, so they miss until
        recomputed (``record_frontier`` re-records them immediately from
        the batch's bulk overlap pass).  Both arcs of every edge are
        written directly, so no reverse-arc index is built.  Returns the
        number of edges carried.
        """
        store = self.store
        old_entry = store.peek(old_fingerprint)
        carried = 0
        if old_entry is not None and old_entry.covered:
            arcs_new, arcs_old, src = stats.carried
            covered = old_entry.coverage[arcs_old]
            new_entry.record_arcs(
                arcs_new[covered], old_entry.overlap[arcs_old[covered]]
            )
            upper = src < stats.snapshot.dst[arcs_new]
            carried = int(np.count_nonzero(covered & upper))
        if self.record_frontier and stats.frontier:
            new_entry.record_arcs(
                stats.frontier_arcs.ravel(),
                stats.frontier_overlaps.repeat(2),
            )
        store.discard(old_fingerprint)
        return carried

    # -- reporting -------------------------------------------------------

    def memory_bytes(self) -> int:
        """Rough resident footprint of the engine's index
        (:meth:`~repro.core.dynamic_index.DynamicGSIndex.memory_bytes`)."""
        return self._index.memory_bytes()

    def stats(self) -> dict:
        """JSON-able counters over the engine's lifetime."""
        snapshot = self.snapshot
        return {
            "fingerprint": self._fingerprint,
            "label": self.label,
            "num_vertices": snapshot.num_vertices,
            "num_edges": snapshot.num_edges,
            "batches_applied": self.batches_applied,
            "edits_applied": self.edits_applied,
            "edits_skipped": self.edits_skipped,
            "arcs_repaired": self.arcs_repaired,
            "vertices_reclustered": self.vertices_reclustered,
            "overlaps_carried": self.overlaps_carried,
            "points_materialized": len(self._points),
        }
