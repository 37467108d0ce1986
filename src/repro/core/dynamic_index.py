"""Exact SCAN index over a dynamic graph: one overlap per arc.

:class:`DynamicGSIndex` keeps, over a
:class:`~repro.graph.dynamic.DynamicGraph`, its current CSR snapshot and
the exact closed-neighborhood overlap of every arc of it — the flat
per-edge layout of Tseng, Dhulipala & Shun's parallel index-based SCAN.
Let ``T`` be the touched vertices (endpoints of a batch's effective
edits):

* an overlap can change only on an edge incident to ``T``.
  :func:`apply_edit_batch` applies the edits and recomputes every such
  edge once, in one bulk :class:`~repro.intersect.BatchIntersector` pass
  over the post-batch snapshot;
* every other arc keeps its overlap and, in the new snapshot, shifts by
  its source's offset delta (:func:`carried_arcs`), so
  :meth:`~DynamicGSIndex.apply_batch` carries it over verbatim;
* a query for any (ε, µ) is one exact pass over the arcs: the ε-similar
  arcs (:func:`similar_mask`), then the cores and clusters of that mask
  (:func:`~repro.core.result.cluster_similar_arcs`).  Results are
  bit-identical to a static :class:`~repro.core.gsindex.GSIndex` built
  from the snapshot.

Similarity keys stay exact rationals (``overlap² / ((d(u)+1)(d(v)+1))``)
so boundary queries agree with every other implementation.  The
GS*-Index neighbor and core orders live in the static index only, where
a query reads them without maintaining them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.dynamic import DynamicGraph
from ..intersect import BatchIntersector
from ..intersect.batch import concat_ranges
from ..metrics.records import RunRecord, StageRecord, TaskCost
from ..types import ScanParams
from .gsindex import _eps_squared, arc_keys, bulk_overlaps, edge_overlaps, similar_mask
from .result import ClusteringResult, cluster_similar_arcs

__all__ = [
    "BatchMaintenance",
    "DynamicGSIndex",
    "apply_edit_batch",
    "carried_arcs",
    "cluster_arcs",
    "similar_mask",
]


@dataclass(frozen=True)
class BatchMaintenance:
    """What one :func:`apply_edit_batch` pass actually did.

    ``frontier`` is the affected-arc frontier — every undirected pair
    ``(u, v)`` with ``u < v`` whose closed-neighborhood overlap was
    recomputed because an endpoint's adjacency changed; ``touched`` is
    the set of vertices whose adjacency itself changed (endpoints of
    effective edits); ``dirty`` additionally includes their
    post-batch neighbors (the vertices whose similar-neighbor count the
    batch can change, since their similarity keys involve a changed
    overlap or degree).

    ``snapshot`` is the post-batch CSR graph the overlaps were computed
    on (``None`` when no edit took effect).  Row ``i`` of
    ``frontier_arcs`` holds the arc ids of ``u → v`` and ``v → u`` in it
    for ``frontier[i] == (u, v)``, whose overlap is
    ``frontier_overlaps[i]``.  ``carried`` is the :func:`carried_arcs`
    of the batch, filled in by :meth:`DynamicGSIndex.apply_batch`.
    """

    inserted: int
    removed: int
    skipped: int
    touched: tuple[int, ...]
    frontier: tuple[tuple[int, int], ...]
    dirty: tuple[int, ...] = field(default=())
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
    carried: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def effective(self) -> int:
        return self.inserted + self.removed


def apply_edit_batch(graph: DynamicGraph, edits) -> BatchMaintenance:
    """Apply a batch of edits to ``graph`` and recompute every overlap
    the batch can have changed, in one pass.

    ``edits`` is anything :meth:`~repro.streaming.edits.EditBatch.coerce`
    accepts: ``(kind, u, v)`` triples with kind ``"+"``/``"-"`` (or
    ``insert``/``remove``/``delete``, or a bool), or an
    :class:`~repro.streaming.edits.EditBatch`.  The batch is applied to
    the graph first and repaired once:

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
    # Imported here: repro.streaming imports its engine, which imports
    # this module.
    from ..streaming.edits import EditBatch

    batch = EditBatch.coerce(edits)
    batch.check(graph.num_vertices)
    ops = batch.ops

    inserted = removed = skipped = 0
    touched: set[int] = set()
    for insert, u, v in ops:
        if insert:
            changed = graph.insert_edge(u, v)
            inserted += changed
        else:
            changed = graph.remove_edge(u, v)
            removed += changed
        if changed:
            touched.update((u, v))
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
        snapshot=snapshot,
        frontier_arcs=np.column_stack((arcs, rev)),
        frontier_overlaps=overlaps,
    )


def carried_arcs(
    old: CSRGraph, new: CSRGraph, touched
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(arcs in new, same arcs in old, their sources)`` for every arc
    whose endpoints are both untouched by a batch.

    Such an arc's source list is byte-identical in both snapshots, so
    its position merely shifts by the source's offset delta, and its
    overlap (a function of two unchanged closed neighborhoods) carries
    over verbatim.
    """
    untouched = np.ones(new.num_vertices, dtype=bool)
    untouched[list(touched)] = False
    src = new.arc_source()
    arcs_new = np.flatnonzero(untouched[src] & untouched[new.dst])
    src = src[arcs_new]
    return arcs_new, arcs_new + (old.offsets[src] - new.offsets[src]), src


class DynamicGSIndex:
    """Exact per-arc overlaps of a :class:`DynamicGraph`, maintained by
    edit batches and queried for any (ε, µ).

    ``overlap`` seeds :attr:`arc_overlap` with the exact overlap of every
    arc of ``graph.snapshot()`` (a :class:`~repro.core.gsindex.GSIndex`
    of that snapshot already holds it); without one a
    :func:`~repro.core.gsindex.bulk_overlaps` pass computes it.
    """

    def __init__(
        self, graph: DynamicGraph, overlap: np.ndarray | None = None
    ) -> None:
        self.graph = graph
        self.snapshot = graph.snapshot()
        if overlap is None:
            overlap, _ = bulk_overlaps(self.snapshot)
        #: Exact overlap of every arc of :attr:`snapshot`.  Replaced, never
        #: written in place, by each batch, so a reader may keep it.
        self.arc_overlap = overlap
        #: :func:`~repro.core.gsindex.arc_keys` of :attr:`snapshot` once
        #: :meth:`refresh` computed them, else ``None``.
        self.keys: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self.maintenance_ops = 0

    # -- maintenance ------------------------------------------------------

    def apply_batch(self, edits) -> BatchMaintenance:
        """Apply a batch of edits in one repair pass.

        :func:`apply_edit_batch` applies the edits and recomputes every
        frontier overlap once; every other overlap is carried to its arc
        of the new snapshot.  The returned stats carry that
        :func:`carried_arcs` triple for callers that move their own
        per-arc state the same way.
        """
        stats = apply_edit_batch(self.graph, edits)
        if not stats.touched:
            return stats
        new = stats.snapshot
        kept = carried_arcs(self.snapshot, new, stats.touched)
        overlap = np.empty(new.num_arcs, dtype=np.int64)
        overlap[kept[0]] = self.arc_overlap[kept[1]]
        frontier = stats.frontier_arcs
        overlap[frontier.ravel()] = stats.frontier_overlaps.repeat(2)
        self.snapshot, self.arc_overlap, self.keys = new, overlap, None
        self.maintenance_ops += int(new.degrees[new.dst[frontier]].sum())
        return replace(stats, carried=kept)

    def refresh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`~repro.core.gsindex.arc_keys` of the current snapshot,
        computed once per batch and shared by every query."""
        if self.keys is None:
            self.keys = arc_keys(self.snapshot, self.arc_overlap)
        return self.keys

    def overlap(self, u: int, v: int) -> int:
        """Exact closed-neighborhood overlap of the existing edge ``{u, v}``."""
        return int(self.arc_overlap[self.snapshot.edge_offset(u, v)])

    def overlaps(self):
        """Iterate ``((u, v), overlap)`` over every edge (``u < v``)."""
        src, dst = self.snapshot.arc_source(), self.snapshot.dst
        upper = src < dst
        return zip(
            zip(src[upper].tolist(), dst[upper].tolist()),
            self.arc_overlap[upper].tolist(),
        )

    def memory_bytes(self) -> int:
        """Resident footprint: the snapshot and per-arc arrays' ``nbytes``
        plus what the :class:`DynamicGraph` adjacency lists hold
        (:meth:`DynamicGraph.memory_bytes`)."""
        graph = self.snapshot
        arrays = (graph.offsets, graph.dst, self.arc_overlap, *(self.keys or ()))
        return sum(int(a.nbytes) for a in arrays) + self.graph.memory_bytes()

    # -- queries ------------------------------------------------------------

    def query(self, params: ScanParams) -> ClusteringResult:
        """Exact SCAN clustering of the current graph state."""
        return cluster_arcs(self.snapshot, self.refresh(), params)


def cluster_arcs(
    graph: CSRGraph,
    keys: tuple[np.ndarray, np.ndarray, np.ndarray],
    params: ScanParams,
    algorithm: str = "DynamicGS*-Index",
    kind: str = "query",
    stage: str = "index query",
) -> ClusteringResult:
    """The exact clustering of ``graph`` at ``params`` in one pass over
    its arcs, whose :func:`~repro.core.gsindex.arc_keys` are ``keys``.

    An arc is ε-similar iff its key reaches ``ε²``, and
    :func:`~repro.core.result.cluster_similar_arcs` clusters that mask.
    The record, ``"{algorithm} ({kind})"`` with one ``stage``, charges
    one arc per vertex plus each similar arc leaving a core, as a static
    index query charges its cores' similar prefixes.
    """
    t0 = time.perf_counter()
    src, num, den = keys
    similar = similar_mask(num, den, *_eps_squared(params))
    result, merges, leaving = cluster_similar_arcs(
        algorithm, params, graph, src, similar
    )
    arcs = graph.num_vertices + leaving
    result.record = RunRecord(
        algorithm=f"{algorithm} ({kind})",
        stages=[StageRecord(stage, [TaskCost(arcs=arcs, atomics=merges)])],
        wall_seconds=time.perf_counter() - t0,
    )
    result.record.apportion_wall()
    return result
