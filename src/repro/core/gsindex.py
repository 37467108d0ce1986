"""GS*-Index (Wen et al., VLDB'17) — index-based structural clustering.

The paper's related work (§3.3) positions ppSCAN against GS*-Index: an
index over *exact similarity values* answers SCAN queries for arbitrary
(ε, µ) quickly, but "the indexing phase involves exhaustive similarity
computations, which are prohibitively expensive for massive graphs".
This module implements both sides of that trade-off so the claim is
measurable:

* **Construction** computes the exact closed-neighborhood overlap of
  every edge (exhaustive, one full intersection per undirected edge, in
  one bulk array pass) and stores, per vertex, its arcs sorted by
  descending similarity — the neighbor-order structure — plus the
  per-``k`` core thresholds — the core-order structure.
* **Query(ε, µ)** finds the cores by one exact bisection of the core
  order for µ (is the µ-th best neighbor similarity ≥ ε?), every core's
  similar prefix by one segmented search of the neighbor orders, and
  hands those arcs to the shared cluster assembly
  (:func:`~repro.core.result.assemble_clustering`).  Results are
  bit-identical to ppSCAN for every (ε, µ).

Similarity values are kept exact: an edge's similarity is the rational
``overlap² / ((d(u)+1)(d(v)+1))``, compared to ``ε²`` in integer
arithmetic, so index queries agree with the online algorithms even at
threshold boundaries.
"""

from __future__ import annotations

import time
import zlib
from bisect import bisect_left
from typing import TYPE_CHECKING

import numpy as np

from ..graph.csr import CSRGraph, reverse_arc_index
from ..intersect import BatchIntersector
from ..intersect.batch import concat_ranges
from ..metrics.records import RunRecord, StageRecord, TaskCost
from ..types import CORE, NONCORE, ScanParams
from .result import ClusteringResult, assemble_clustering

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache import SimilarityStore

__all__ = ["GSIndex"]

#: Core orders are materialized for µ up to this bound (beyond it one
#: exact check of every vertex's µ-th best arc answers instead).
_CORE_ORDER_MAX_K = 64

#: Candidate-neighborhood elements one bulk overlap chunk may gather,
#: which bounds the batch kernel's temporaries to a few MB.
_CHUNK_WORK = 1 << 18


def bulk_overlaps(
    graph: CSRGraph, store: "SimilarityStore | None" = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact closed-neighborhood overlap of every arc, in one bulk pass.

    Every ``u < v`` arc goes through :func:`edge_overlaps` and is
    mirrored.  With a store, covered ``u < v`` arcs are read as hits and
    the misses committed with one ``record``.  Returns the overlaps and
    the ``u < v`` arcs actually intersected.
    """
    src = graph.arc_source()
    rev = reverse_arc_index(graph)
    upper = np.flatnonzero(src < graph.dst)
    overlap = np.zeros(graph.num_arcs, dtype=np.int64)
    entry = store.entry_for(graph) if store is not None else None
    todo = upper
    if entry is not None:
        hit = entry.coverage[upper]
        overlap[upper[hit]] = entry.overlap[upper[hit]]
        todo = upper[~hit]
        entry.hits += int(upper.size - todo.size)
    if todo.size:
        overlap[todo] = edge_overlaps(graph, todo, rev[todo])
        if entry is not None:
            entry.record(todo, overlap[todo])
            entry.misses += int(todo.size)
    overlap[rev[upper]] = overlap[upper]
    return overlap, todo


def edge_overlaps(
    graph: CSRGraph,
    arcs: np.ndarray,
    rev: np.ndarray,
    inter: BatchIntersector | None = None,
) -> np.ndarray:
    """Exact closed-neighborhood overlap of each of ``arcs`` (whose
    reverse arcs are ``rev``), by ``BatchIntersector.arc_counts`` in
    chunks.  Each edge is probed from whichever of its two arcs has the
    target with the smaller neighborhood."""
    out = np.empty(arcs.size, dtype=np.int64)
    if not arcs.size:
        return out
    deg = graph.degrees
    probe = np.where(deg[graph.dst[arcs]] > deg[graph.dst[rev]], rev, arcs)
    # Arc ids ascend with their source, so sorting groups by source.
    rank = np.argsort(probe)
    probe = probe[rank]
    work = np.cumsum(deg[graph.dst[probe]])
    cuts = np.searchsorted(work, np.arange(_CHUNK_WORK, work[-1], _CHUNK_WORK))
    bounds = [0, *cuts.tolist(), probe.size]
    inter = inter if inter is not None else BatchIntersector(graph)
    for lo, hi in zip(bounds, bounds[1:]):
        out[rank[lo:hi]] = inter.arc_counts(probe[lo:hi]) + 2
    return out


def arc_keys(
    graph: CSRGraph, overlap: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, sim_num, sim_den)``: every arc's source and its exact
    similarity key, ``overlap²`` over ``(d(u)+1)(d(v)+1)``."""
    src = graph.arc_source()
    deg1 = graph.degrees.astype(np.int64) + 1
    return src, overlap * overlap, deg1[src] * deg1[graph.dst]


def descending_order(
    num: np.ndarray, den: np.ndarray, groups: np.ndarray | None = None
) -> np.ndarray:
    """Indices by ``groups`` ascending (one group if omitted), then exact
    ``num / den`` descending, then index ascending.

    A correctly rounded quotient is monotone in the exact rational, so
    after stable sorts on the float quotients, then the groups, only
    float-equal neighbours need an exact check; a group with an unequal
    one is re-sorted by :func:`_fix_float_sort`.  Integers reaching
    ``2**53`` (quotients) or cross products past int64 use Python ints.
    """
    if groups is None:
        groups = np.zeros(num.size, dtype=np.int64)
    top = max(int(num.max(initial=0)), int(den.max(initial=0)))
    if top < 2**53:
        keys = num / den
    else:
        keys = (num.astype(object) / den.astype(object)).astype(np.float64)
    order = np.argsort(-keys, kind="stable")
    order = order[np.argsort(groups[order], kind="stable")]
    a, b = order[:-1], order[1:]
    tie = (keys[a] == keys[b]) & (groups[a] == groups[b])
    a, b = a[tie], b[tie]
    na, nb, da, db = num[a], num[b], den[a], den[b]
    if top * top >= 2**63:
        na, nb, da, db = (x.astype(object) for x in (na, nb, da, db))
    unequal = na * db != nb * da
    if unequal.any():
        num_l, den_l = num.tolist(), den.tolist()
        ranked = groups[order]
        for g in np.unique(groups[a[unequal]]).tolist():
            lo, hi = np.searchsorted(ranked, [g, g + 1]).tolist()
            order[lo:hi] = _fix_float_sort(order[lo:hi].tolist(), num_l, den_l)
    return order


def _fix_float_sort(arcs: list[int], num: list[int], den: list[int]) -> list[int]:
    """Repair a float-key sort by exact insertion sort (stable, so exact
    ties keep their input order)."""
    for i in range(1, len(arcs)):
        j = i
        while j > 0:
            a, b = arcs[j - 1], arcs[j]
            # descending: swap if sim(a) < sim(b)
            if num[a] * den[b] < num[b] * den[a]:
                arcs[j - 1], arcs[j] = b, a
                j -= 1
            else:
                break
    return arcs


def _eps_squared(params: ScanParams) -> tuple[int, int]:
    """``ε²`` as an exact (numerator, denominator) pair."""
    frac = params.eps_fraction
    return frac.numerator**2, frac.denominator**2


def similar_mask(
    num: np.ndarray, den: np.ndarray, eps_num: int, eps_den: int
) -> np.ndarray:
    """Per arc, is ``num / den >= eps_num / eps_den``, exactly.

    The cross products run in int64 when they cannot overflow and in
    Python ints otherwise (as :func:`descending_order` does).
    """
    top = max(int(num.max(initial=0)), int(den.max(initial=0)))
    if top * max(eps_num, eps_den) < 2**63:
        return num * eps_den >= eps_num * den
    big = num.astype(object) * eps_den >= eps_num * den.astype(object)
    return big.astype(bool)


def similar_prefix_lengths(
    lo: np.ndarray, hi: np.ndarray, similar
) -> np.ndarray:
    """Per segment ``[lo[i], hi[i])`` of positions whose similarity
    descends, the length of its similar prefix.

    An exponential search, vectorized over every segment in two passes
    of ``similar(positions)``, an exact boolean mask.  The first pass
    probes offsets 0, 1, 3, 7, … (``2**j - 1``) of each segment; the
    last similar probe and the first dissimilar one bracket the prefix
    end in a range no longer than the prefix, which the second pass
    checks position by position.
    """
    width = hi - lo
    if not width.any():
        return width
    count = np.frexp(width)[1]  # bit length: the offsets 2**j - 1 < width
    seg = np.repeat(np.arange(width.size), count)
    rank = np.arange(seg.size) - np.repeat(np.cumsum(count) - count, count)
    ok = similar(lo[seg] + (1 << rank) - 1)
    passed = np.bincount(seg[ok], minlength=width.size)
    known = (1 << passed) >> 1
    stop = np.where(passed < count, (1 << passed) - 1, width)
    seg = np.repeat(np.arange(width.size), stop - known)
    ok = similar(concat_ranges(lo + known, lo + stop))
    return known + np.bincount(seg[ok], minlength=width.size)


class GSIndex:
    """Similarity index supporting exact SCAN queries at any (ε, µ).

    Every structure is an int64 array:

    * ``overlap``, ``sim_num``, ``sim_den`` — per arc, its exact
      closed-neighborhood overlap and its similarity key
      (:func:`arc_keys`);
    * ``neighbor_order`` — every vertex's arcs by similarity descending,
      lined up with ``graph.offsets``;
    * ``core_flat`` / ``core_offsets`` — the core orders in CSR form:
      ``core_flat[core_offsets[k]:core_offsets[k + 1]]`` holds the
      vertices with at least ``k`` neighbors by their k-th best
      similarity descending, for ``k <= 64`` (``k = 0`` is empty).
    """

    def __init__(
        self,
        graph: CSRGraph,
        store: "SimilarityStore | None" = None,
    ) -> None:
        t0 = time.perf_counter()
        self.graph = graph
        src = graph.arc_source()
        deg = graph.degrees

        # The construction IS an exhaustive overlap pass, so it both
        # profits from and fully populates a similarity store.  The
        # record charges the paper's merge (d(u) + d(v) compares per
        # intersected edge), not the bulk kernel's vector work.
        overlap, computed = bulk_overlaps(graph, store)
        scalar_cmp = int(deg[src[computed]].sum() + deg[graph.dst[computed]].sum())
        compsims = int(computed.size)
        arcs = graph.num_edges + graph.num_arcs
        cost = TaskCost(scalar_cmp=scalar_cmp, compsims=compsims, arcs=arcs)
        self._build(overlap)

        self.construction_record = RunRecord(
            algorithm="GS*-Index (construction)",
            stages=[StageRecord("index construction", [cost])],
            wall_seconds=time.perf_counter() - t0,
        )
        self.construction_record.apportion_wall()

    def _build(self, overlap: np.ndarray) -> None:
        """Every query structure from the per-arc ``overlap``; the
        constructor and :meth:`load` share it."""
        graph = self.graph
        off, deg = graph.offsets[:-1], graph.degrees
        src, self.sim_num, self.sim_den = arc_keys(graph, overlap)
        self.overlap = overlap
        self.neighbor_order = descending_order(self.sim_num, self.sim_den, src)
        # Core orders: every vertex's k-th best arc for k <= 64, ranked
        # within each k.  Laid out vertex-major, so equal similarities
        # keep vertex id order.
        cap = np.minimum(deg, _CORE_ORDER_MAX_K)
        pos = concat_ranges(off, off + cap)
        rank = pos - np.repeat(off, cap)
        kth = self.neighbor_order[pos]
        ranked = descending_order(self.sim_num[kth], self.sim_den[kth], rank)
        self.core_flat = np.repeat(np.arange(deg.size), cap)[ranked]
        counts = np.bincount(rank, minlength=int(cap.max(initial=0)))
        self.core_offsets = np.concatenate(([0, 0], np.cumsum(counts)))

    def memory_bytes(self) -> int:
        """Resident footprint of the index: its arrays' ``nbytes``."""
        arrays = (
            self.overlap,
            self.sim_num,
            self.sim_den,
            self.neighbor_order,
            self.core_flat,
            self.core_offsets,
        )
        return sum(int(a.nbytes) for a in arrays)

    # -- predicates -------------------------------------------------------

    def _similar(self, arcs: np.ndarray, eps: tuple[int, int]) -> np.ndarray:
        """Exact ``σ(arc) >= ε`` per arc."""
        return similar_mask(self.sim_num[arcs], self.sim_den[arcs], *eps)

    def _kth_similar(self, u: int, k: int, eps: tuple[int, int]) -> bool:
        """Exact ``σ >= ε`` for ``u``'s k-th most similar arc (d(u) >= k)."""
        arc = self.neighbor_order[self.graph.offsets[u] + (k - 1)]
        return int(self.sim_num[arc]) * eps[1] >= eps[0] * int(self.sim_den[arc])

    def edge_similarity(self, u: int, v: int) -> float:
        """The raw σ(u, v) stored in the index (float view)."""
        arc = self.graph.edge_offset(u, v)
        return (int(self.sim_num[arc]) / int(self.sim_den[arc])) ** 0.5

    def is_core(self, u: int, params: ScanParams) -> bool:
        """Core predicate in O(1): the µ-th most similar neighbor decides."""
        mu = params.mu
        return bool(
            self.graph.degrees[u] >= mu
            and self._kth_similar(u, mu, _eps_squared(params))
        )

    # -- persistence ----------------------------------------------------

    def save(self, path) -> None:
        """Persist the index to an ``.npz`` file: a fingerprint of the
        graph (vertex count, arc count, adjacency checksum) and the
        per-arc overlaps.  :meth:`load` rebuilds the orders from the
        overlaps.
        """
        np.savez_compressed(
            path,
            fingerprint=self._fingerprint(self.graph),
            overlap=self.overlap,
        )

    @classmethod
    def load(cls, path, graph: CSRGraph) -> "GSIndex":
        """Load an index saved by :meth:`save` for the *same* graph.

        Raises ``ValueError`` for a file of another graph and for one
        whose overlaps no index of this graph can hold: not int64 of one
        value per arc, different on the two arcs of an edge, or outside
        ``[2, min(d(u), d(v)) + 1]``.  Older files may carry an
        ``approximate`` flag: 0 loads as usual, 1 (overlaps that are
        estimates, not exact counts) is refused.
        """
        try:
            with np.load(path) as data:
                fingerprint, overlap = data["fingerprint"], data["overlap"]
                flag = data["approximate"] if "approximate" in data.files else [0]
        except (FileNotFoundError, IsADirectoryError, PermissionError):
            raise
        except Exception as exc:  # any failure to parse the untrusted bytes
            raise ValueError(f"not a GS*-Index file: {exc!r}") from exc
        if not np.array_equal(fingerprint, cls._fingerprint(graph)):
            raise ValueError("index fingerprint does not match the supplied graph")
        if np.shape(flag) != (1,) or flag[0] not in (0, 1):
            raise ValueError("index approximate flag must be 0 or 1")
        if flag[0]:
            raise ValueError(
                "index approximate flag is set: its overlaps are estimates, "
                "not exact counts"
            )
        if overlap.dtype != np.int64 or overlap.shape != (graph.num_arcs,):
            raise ValueError(
                f"index overlap must be int64 of shape ({graph.num_arcs},), "
                f"got {overlap.dtype} of shape {overlap.shape}"
            )
        if not np.array_equal(overlap, overlap[reverse_arc_index(graph)]):
            raise ValueError("index overlap differs between an edge's two arcs")
        deg = graph.degrees
        ceiling = np.minimum(deg[graph.arc_source()], deg[graph.dst]) + 1
        if np.any(overlap < 2) or np.any(overlap > ceiling):
            raise ValueError("index overlap outside [2, min(d(u), d(v)) + 1]")
        index = cls.__new__(cls)
        index.graph = graph
        index._build(overlap)
        index.construction_record = RunRecord(
            algorithm="GS*-Index (loaded)", stages=[]
        )
        return index

    @staticmethod
    def _fingerprint(graph: CSRGraph) -> np.ndarray:
        return np.array(
            [
                graph.num_vertices,
                graph.num_arcs,
                zlib.adler32(np.ascontiguousarray(graph.dst).tobytes()),
            ],
            dtype=np.int64,
        )

    # -- query ------------------------------------------------------------

    def cores(self, params: ScanParams) -> list[int]:
        """All core vertices for (ε, µ), ascending."""
        return self._core_ids(params).tolist()

    def _core_ids(self, params: ScanParams) -> np.ndarray:
        """The cores as a sorted array: the similar prefix of
        ``core_order[µ]`` (the µ-th best similarities, descending) by one
        exact bisection, or for µ past the materialized orders one exact
        check of every vertex's µ-th best arc."""
        mu, eps = params.mu, _eps_squared(params)
        if mu + 1 < self.core_offsets.size:
            lo, hi = self.core_offsets[mu : mu + 2]
            ranked = self.core_flat[lo:hi]
            count = bisect_left(
                range(ranked.size),
                True,
                key=lambda i: not self._kth_similar(ranked[i], mu, eps),
            )
            return np.sort(ranked[:count])
        candidates = np.flatnonzero(self.graph.degrees >= mu)
        kth = self.neighbor_order[self.graph.offsets[candidates] + (mu - 1)]
        return candidates[self._similar(kth, eps)]

    def query(self, params: ScanParams) -> ClusteringResult:
        """Exact SCAN clustering for (ε, µ) from the index: every core's
        similar prefix of its neighbor order, found by one segmented
        search and assembled by :func:`assemble_clustering`."""
        t0 = time.perf_counter()
        n = self.graph.num_vertices
        eps = _eps_squared(params)
        cores = self._core_ids(params)
        roles = np.full(n, NONCORE, dtype=np.int8)
        roles[cores] = CORE
        lo, hi = self.graph.offsets[cores], self.graph.offsets[cores + 1]
        order = self.neighbor_order
        lengths = similar_prefix_lengths(
            lo, hi, lambda pos: self._similar(order[pos], eps)
        )
        arcs = order[concat_ranges(lo, lo + lengths)]
        result, merges = assemble_clustering(
            "GS*-Index",
            params,
            roles,
            np.repeat(cores, lengths),
            self.graph.dst[arcs],
        )
        cost = TaskCost(arcs=n + int(arcs.size), atomics=merges)
        result.record = RunRecord(
            algorithm="GS*-Index (query)",
            stages=[StageRecord("index query", [cost])],
            wall_seconds=time.perf_counter() - t0,
        )
        result.record.apportion_wall()
        return result
