"""Batched set intersection over whole arc batches.

This is the throughput path of the batched execution mode: instead of one
interpreted kernel call per UNKNOWN arc, an array of arc ids is resolved
with a handful of NumPy primitives.

*Probe side.*  Each arc ``(u, v)`` is probed from one endpoint, whose
neighbourhood is marked or searched, and gathers the other's.  The probe
is ``u`` unless ``N(v)`` is more than :data:`PROBE_SWAP_RATIO` times
larger, in which case it is ``v`` and the arc gathers ``N(u)``; the count
is symmetric, so a leaf→hub arc costs the leaf's degree, not the hub's.
Arcs then group by probe vertex, and two complementary strategies are
chosen per group by its work:

*Mark-and-count* (heavy groups — one hub probe, many candidate arcs):

1. *mark*: scatter ``N(u)`` into a reusable per-graph boolean scratch,
2. *gather*: concatenate the candidate neighborhoods ``N(v1)..N(vk)`` with
   one vectorized multi-range ``arange`` and read the scratch at those ids,
3. *reduce*: per-candidate hit counts via a cumulative-sum segmented
   reduction (the ``np.add.reduceat`` pattern, written with ``cumsum`` so
   zero-length segments cost nothing special).

*Keyed membership* (everything else, all light groups in ONE pass): CSR
arcs are sorted by ``(src, dst)``, so ``src * n + dst`` is a globally
sorted key array; ``x ∈ N(u)`` is one binary search for ``u * n + x``.
Gathering every candidate neighborhood and searching all the query keys
at once amortizes the interpreter overhead that a per-source mark pass
would pay thousands of times on low-degree frontiers.

Counts are *exact* (no early termination), so SIM/NSIM decisions derived
from them are bit-identical to every early-terminating scalar kernel.

Cost accounting mirrors Algorithm 6's vector model: one vector block
operation per ``lanes`` elements touched (marking the probe's
neighbourhood plus gathering the candidate neighborhoods for the mark
path; the gathered candidate elements for the keyed path), one CompSim
invocation per resolved arc.  A swapped arc is charged the smaller
endpoint's neighbourhood as its gather.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..obs.tracer import current_tracer
from .counters import OpCounter

__all__ = ["BatchIntersector", "concat_ranges"]


def _segment_sums(hits: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Per-segment sums of ``hits`` for consecutive segments of ``lens``.

    ``np.add.reduceat`` when every segment is non-empty (one C call; arc
    candidates always have degree ≥ 1 because their reverse arc exists),
    falling back to the cumulative-sum difference idiom — robust to
    zero-length segments, which ``reduceat`` would mishandle.
    """
    if lens.size and bool(lens.min() > 0):
        seg_starts = lens.cumsum() - lens
        return np.add.reduceat(hits, seg_starts, dtype=np.int64)
    cs = np.concatenate(([0], hits.cumsum()))
    seg_ends = lens.cumsum()
    return cs[seg_ends] - cs[seg_ends - lens]

#: Minimum ``|N(u)| + Σ|N(v)|`` for a probe group to warrant its own
#: mark-and-count pass; smaller groups batch into the keyed pass.  Tuned
#: on the bundled standins: the mark pass costs one NumPy dispatch per
#: group, the keyed pass one binary search per gathered element.
MARK_GROUP_WORK = 768

#: An arc ``(u, v)`` is probed from ``v`` (``N(v)`` marked or searched,
#: ``N(u)`` gathered) when ``deg(v) > PROBE_SWAP_RATIO * deg(u)``, so a
#: leaf→hub arc no longer re-reads the hub's whole list.  Chosen by timing
#: batched ppSCAN and SCAN-XP on the four offline-cold stand-ins: ratio 1
#: (swap whenever the target is larger) breaks up dense source groups and
#: kept the least of the gain, 1.5 and 2 were fastest, and 3 or more gave
#: part of it back on friendster.
PROBE_SWAP_RATIO = 2


def concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], ends[i])`` integer ranges, vectorized.

    The multi-``arange`` idiom: one global ``arange`` shifted per segment
    by the repeated segment starts.

    >>> concat_ranges(np.array([0, 7]), np.array([3, 9])).tolist()
    [0, 1, 2, 7, 8]
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    lens = ends - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    seg_ends = lens.cumsum()
    return (
        np.arange(total, dtype=np.int64)
        + (starts - seg_ends + lens).repeat(lens)
    )


class BatchIntersector:
    """Reusable per-graph scratch for batched arc-group intersection."""

    def __init__(self, graph: CSRGraph) -> None:
        self._graph = graph
        self._mark = np.zeros(graph.num_vertices, dtype=bool)
        self._src = graph.arc_source()
        self._keys: np.ndarray | None = None

    @property
    def arc_src(self) -> np.ndarray:
        """Source vertex of every arc (cached ``graph.arc_source()``)."""
        return self._src

    @property
    def arc_keys(self) -> np.ndarray:
        """``src * n + dst`` per arc — globally sorted since CSR arcs are
        sorted lexicographically by ``(src, dst)``."""
        if self._keys is None:
            n = np.int64(self._graph.num_vertices)
            self._keys = (
                self._src.astype(np.int64) * n
                + self._graph.dst.astype(np.int64)
            )
        return self._keys

    def group_counts(
        self,
        u: int,
        candidates: np.ndarray,
        counter: OpCounter | None = None,
        lanes: int = 16,
    ) -> np.ndarray:
        """``out[i] = |N(u) ∩ N(candidates[i])|`` with one mark pass.

        The bulk mask kernel: candidates need not be neighbors of ``u``
        and may repeat or be isolated; every count is exact.
        """
        graph = self._graph
        candidates = np.asarray(candidates, dtype=np.int64)
        out = np.zeros(candidates.size, dtype=np.int64)
        if candidates.size == 0:
            return out
        lens = graph.degrees[candidates]
        total = int(lens.sum())
        nbrs_u = graph.neighbors(u)
        if total and nbrs_u.size:
            mark = self._mark
            mark[nbrs_u] = True
            gather = concat_ranges(
                graph.offsets[candidates], graph.offsets[candidates + 1]
            )
            hits = mark[graph.dst[gather]]
            out = _segment_sums(hits, lens)
            mark[nbrs_u] = False
        if counter is not None:
            counter.invocations += int(candidates.size)
            counter.vector_ops += (int(nbrs_u.size) + total + lanes - 1) // lanes
        return out

    def keyed_counts(
        self,
        probes: np.ndarray,
        candidates: np.ndarray,
        counter: OpCounter | None = None,
        lanes: int = 16,
    ) -> np.ndarray:
        """``out[i] = |N(probes[i]) ∩ N(candidates[i])|`` via one
        keyed-search pass.

        Gathers every element ``x`` of every ``N(candidates[i])`` and
        tests ``x ∈ N(probes[i])`` as a vectorized binary search for
        ``probes[i] * n + x`` in the sorted arc-key array — no per-probe
        loop, so thousands of low-degree groups cost one NumPy call.  As
        in :meth:`group_counts`, the pairs need not be edges and may
        repeat; every count is exact.
        """
        graph = self._graph
        probes = np.asarray(probes, dtype=np.int64)
        candidates = np.asarray(candidates, dtype=np.int64)
        out = np.zeros(probes.size, dtype=np.int64)
        if probes.size == 0:
            return out
        lens = graph.degrees[candidates].astype(np.int64)
        gather = concat_ranges(
            graph.offsets[candidates], graph.offsets[candidates + 1]
        )
        if gather.size:
            n = np.int64(graph.num_vertices)
            queries = (probes * n).repeat(lens) + graph.dst[gather]
            keys = self.arc_keys
            idx = np.searchsorted(keys, queries)
            np.minimum(idx, keys.size - 1, out=idx)
            hits = keys[idx] == queries
            out = _segment_sums(hits, lens)
        if counter is not None:
            counter.invocations += int(probes.size)
            counter.vector_ops += (int(gather.size) + lanes - 1) // lanes
        return out

    def arc_counts(
        self,
        arcs: np.ndarray,
        counter: OpCounter | None = None,
        lanes: int = 16,
        mark_group_work: int = MARK_GROUP_WORK,
    ) -> np.ndarray:
        """``out[i] = |N(src[arcs[i]]) ∩ N(dst[arcs[i]])|`` for an arc batch.

        Each arc ``(u, v)`` is probed from ``u`` (``N(u)`` marked or
        searched, ``N(v)`` gathered) unless ``N(v)`` is more than
        :data:`PROBE_SWAP_RATIO` times larger, in which case it is probed
        from ``v`` and gathers ``N(u)``; the count is symmetric.  Arcs
        are grouped by probe vertex (stable, so already-sorted unswapped
        batches — the common case, e.g. a task's arc ranges — group for
        free).  Groups with at least ``mark_group_work`` work (the probe's
        degree plus the gathered elements) each pay one mark pass; every
        other group is folded into a single keyed-membership pass.
        """
        arcs = np.asarray(arcs, dtype=np.int64)
        out = np.empty(arcs.size, dtype=np.int64)
        if arcs.size == 0:
            return out
        graph = self._graph
        deg = graph.degrees
        probes = self._src[arcs]
        cands = graph.dst[arcs]
        swap = deg[cands] > PROBE_SWAP_RATIO * deg[probes]
        n_swapped = int(np.count_nonzero(swap))
        if n_swapped:
            probes, cands = (
                np.where(swap, cands, probes),
                np.where(swap, probes, cands),
            )
        presorted = bool((np.diff(probes) >= 0).all())
        if presorted:
            order = None
        else:
            order = np.argsort(probes, kind="stable")
            probes = probes[order]
            cands = cands[order]
        bounds = np.flatnonzero(np.diff(probes)) + 1
        starts = np.concatenate(([0], bounds, [arcs.size]))
        cd_cs = np.concatenate(([0], np.cumsum(deg[cands], dtype=np.int64)))
        group_gather = cd_cs[starts[1:]] - cd_cs[starts[:-1]]
        group_u = probes[starts[:-1]]
        heavy = (deg[group_u] + group_gather) >= mark_group_work
        out_sorted = np.empty(arcs.size, dtype=np.int64)
        light_sel = ~np.repeat(heavy, np.diff(starts))
        tracer = current_tracer()
        if tracer.enabled:
            n_heavy = int(np.count_nonzero(heavy))
            tracer.count("batch.calls", 1)
            tracer.count("batch.groups_heavy", n_heavy)
            tracer.count("batch.groups_light", int(heavy.size - n_heavy))
            tracer.count("batch.arcs", int(arcs.size))
            tracer.count("batch.arcs_swapped", n_swapped)
        if light_sel.any():
            out_sorted[light_sel] = self.keyed_counts(
                probes[light_sel], cands[light_sel], counter, lanes
            )
        for i in np.flatnonzero(heavy).tolist():
            lo, hi = int(starts[i]), int(starts[i + 1])
            out_sorted[lo:hi] = self.group_counts(
                int(group_u[i]), cands[lo:hi], counter=counter, lanes=lanes
            )
        if order is None:
            return out_sorted
        out[order] = out_sorted
        return out
