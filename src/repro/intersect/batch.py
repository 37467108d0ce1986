"""Batched set intersection over whole arc batches.

This is the throughput path of the batched execution mode: instead of one
interpreted kernel call per UNKNOWN arc, an array of arc ids is resolved
with a handful of NumPy primitives.

*Probe side.*  Each arc ``(u, v)`` is probed from one endpoint, whose
neighbourhood is marked, and gathers the other's.  The probe is ``u``
unless ``N(v)`` is more than :data:`PROBE_SWAP_RATIO` times larger, in
which case it is ``v`` and the arc gathers ``N(u)``; the count is
symmetric, so a leaf→hub arc costs the leaf's degree, not the hub's.

*Slotted mark-and-count* (every arc, one pass per ``G`` probe groups):
arcs group into runs of equal probe vertex, and each group of a pass
gets a slot ``0..G-1`` in one boolean table of ``G·n`` cells, allocated
per call (``G = TABLE_CELLS // n``, at least 1, so past ``TABLE_CELLS / 2``
vertices the pass loop runs once per probe group):

1. *mark*: scatter ``slot·n + N(probe)`` for the pass's groups,
2. *gather*: read the table at ``slot·n + x`` for every ``x`` of the
   candidate neighbourhoods ``N(v1)..N(vk)`` (concatenated with one
   vectorized multi-range ``arange``), then unmark,
3. *reduce*: per-candidate hit counts, one ``np.add.reduceat`` per call.

Counts are *exact* (no early termination), so SIM/NSIM decisions derived
from them are bit-identical to every early-terminating scalar kernel.

Cost accounting mirrors Algorithm 6's vector model, not the pass: one
vector block operation per ``lanes`` elements touched, one CompSim
invocation per resolved arc.  A group with at least
:data:`MARK_GROUP_WORK` work is charged as its own mask pass (the probe's
neighbourhood plus its gather); every lighter group's gather is charged
as one keyed-membership pass per call.  A swapped arc is charged the
smaller endpoint's neighbourhood as its gather.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..obs.tracer import current_tracer
from .counters import OpCounter

__all__ = ["BatchIntersector", "concat_ranges"]


def _segment_sums(hits: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Per-segment sums of boolean ``hits`` for consecutive segments of
    ``lens``.

    ``np.add.reduceat`` over a ``uint8`` view when every segment is
    non-empty (one C call; arc candidates always have degree ≥ 1 because
    their reverse arc exists), falling back to the cumulative-sum
    difference idiom — robust to zero-length segments, which
    ``reduceat`` would mishandle.
    """
    if lens.size and bool(lens.min() > 0):
        seg_starts = lens.cumsum() - lens
        return np.add.reduceat(hits.view(np.uint8), seg_starts, dtype=np.int64)
    cs = np.concatenate(([0], hits.cumsum()))
    seg_ends = lens.cumsum()
    return cs[seg_ends] - cs[seg_ends - lens]

#: Algorithm 6's charge model only: a probe group with at least this
#: much work (``|N(u)| + Σ|N(v)|``) is charged as its own mask pass, the
#: lighter groups' gathers as one keyed pass per call.  Every group runs
#: through the same slotted mark pass either way.
MARK_GROUP_WORK = 768

#: An arc ``(u, v)`` is probed from ``v`` (``N(v)`` marked, ``N(u)``
#: gathered) when ``deg(v) > PROBE_SWAP_RATIO * deg(u)``, so a leaf→hub
#: arc no longer re-reads the hub's whole list.  Chosen by timing
#: batched ppSCAN and SCAN-XP on the four offline-cold stand-ins: ratio 1
#: (swap whenever the target is larger) breaks up dense source groups and
#: kept the least of the gain, 1.5 and 2 were fastest, and 3 or more gave
#: part of it back on friendster.
PROBE_SWAP_RATIO = 2

#: Cells of the slotted mark table: a pass marks ``TABLE_CELLS // n``
#: probe groups (at least one, never more than the call has).  On the
#: webbase and friendster stand-ins at 2¹⁸ and 2²⁰ vertices one slot,
#: with no slot offsets to add, beat ``2·n`` to ``16·n``-cell tables:
#: a larger table and an offset per gathered element cost more than the
#: passes they saved.
TABLE_CELLS = 2**18


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
    """Per-graph batched intersection: every count is one slotted pass."""

    def __init__(self, graph: CSRGraph) -> None:
        self._graph = graph
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

    def _counts(
        self, probes: np.ndarray, cands: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(out, group_u, gathered)``: ``out[i] = |N(probes[i]) ∩
        N(cands[i])|`` by slotted mark passes, plus each probe group's
        vertex and gathered element count (for the charge model).

        Pairs need not be edges and may repeat; isolated vertices count
        0.  Groups are the runs of equal probe after a stable sort (free
        for the common already-sorted batch).
        """
        graph = self._graph
        n = graph.num_vertices
        deg, offsets, dst = graph.degrees, graph.offsets, graph.dst
        order = None
        if not bool((np.diff(probes) >= 0).all()):
            order = np.argsort(probes, kind="stable")
            probes, cands = probes[order], cands[order]
        starts = np.flatnonzero(np.diff(probes)) + 1
        starts = np.concatenate(([0], starts, [probes.size]))
        group_u = probes[starts[:-1]]
        lens = deg[cands]
        cd_cs = np.concatenate(([0], lens.cumsum()))
        gathered = cd_cs[starts[1:]] - cd_cs[starts[:-1]]
        slots = min(group_u.size, max(1, TABLE_CELLS // n))
        table = np.zeros(slots * n, dtype=bool)
        marks = dst[concat_ranges(offsets[group_u], offsets[group_u + 1])]
        query = dst[concat_ranges(offsets[cands], offsets[cands + 1])]
        if slots > 1:
            # Each group's slot base, over its marks and its gather.
            base = (np.arange(group_u.size, dtype=np.int64) % slots) * n
            marks += base.repeat(deg[group_u])
            query += base.repeat(gathered)
        cuts = np.append(np.arange(0, group_u.size, slots), group_u.size)
        mark_cuts = np.concatenate(([0], deg[group_u].cumsum()))[cuts].tolist()
        pass_cuts = cd_cs[starts[cuts]].tolist()
        hits = []
        for i, (lo, hi) in enumerate(zip(pass_cuts, pass_cuts[1:])):
            m = marks[mark_cuts[i] : mark_cuts[i + 1]]
            table[m] = True
            hits.append(table.take(query[lo:hi]))
            table[m] = False
        counts = _segment_sums(np.concatenate(hits), lens)
        out = np.empty(probes.size, dtype=np.int64)
        out[slice(None) if order is None else order] = counts
        return out, group_u, gathered

    def group_counts(
        self,
        u: int,
        candidates: np.ndarray,
        counter: OpCounter | None = None,
        lanes: int = 16,
    ) -> np.ndarray:
        """``out[i] = |N(u) ∩ N(candidates[i])|``: one group, one pass.

        The bulk mask kernel: candidates need not be neighbors of ``u``
        and may repeat or be isolated; every count is exact.
        """
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.size == 0:
            return np.zeros(0, dtype=np.int64)
        probes = np.full(candidates.size, u, dtype=np.int64)
        out, _, gathered = self._counts(probes, candidates)
        if counter is not None:
            work = int(self._graph.degrees[u]) + int(gathered.sum())
            counter.invocations += int(candidates.size)
            counter.vector_ops += (work + lanes - 1) // lanes
        return out

    def keyed_counts(
        self,
        probes: np.ndarray,
        candidates: np.ndarray,
        counter: OpCounter | None = None,
        lanes: int = 16,
    ) -> np.ndarray:
        """``out[i] = |N(probes[i]) ∩ N(candidates[i])|`` for arbitrary
        pairs, charged as one keyed-membership pass over the gathered
        ``N(candidates[i])`` (Algorithm 6's light-group cost).

        As in :meth:`group_counts`, the pairs need not be edges and may
        repeat; every count is exact.
        """
        probes = np.asarray(probes, dtype=np.int64)
        candidates = np.asarray(candidates, dtype=np.int64)
        if probes.size == 0:
            return np.zeros(0, dtype=np.int64)
        out, _, gathered = self._counts(probes, candidates)
        if counter is not None:
            counter.invocations += int(probes.size)
            counter.vector_ops += (int(gathered.sum()) + lanes - 1) // lanes
        return out

    def arc_counts(
        self,
        arcs: np.ndarray,
        counter: OpCounter | None = None,
        lanes: int = 16,
        mark_group_work: int = MARK_GROUP_WORK,
    ) -> np.ndarray:
        """``out[i] = |N(src[arcs[i]]) ∩ N(dst[arcs[i]])|`` for an arc batch.

        Each arc ``(u, v)`` is probed from ``u`` (``N(u)`` marked, ``N(v)``
        gathered) unless ``N(v)`` is more than :data:`PROBE_SWAP_RATIO`
        times larger, in which case it is probed from ``v`` and gathers
        ``N(u)``; the count is symmetric.  Every arc then goes through
        one slotted mark pass.  ``mark_group_work`` only sets the charge:
        a group with at least that much work (the probe's degree plus its
        gather) is charged as its own mask pass, the rest as one keyed
        pass.
        """
        arcs = np.asarray(arcs, dtype=np.int64)
        if arcs.size == 0:
            return np.empty(0, dtype=np.int64)
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
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("batch.calls", 1)
            tracer.count("batch.arcs", int(arcs.size))
            tracer.count("batch.arcs_swapped", n_swapped)
        out, group_u, gathered = self._counts(probes, cands)
        if counter is not None:
            work = deg[group_u].astype(np.int64) + gathered
            heavy = work >= mark_group_work
            light = int(gathered[~heavy].sum())
            counter.invocations += int(arcs.size)
            counter.vector_ops += int(((work[heavy] + lanes - 1) // lanes).sum())
            counter.vector_ops += (light + lanes - 1) // lanes
        return out
