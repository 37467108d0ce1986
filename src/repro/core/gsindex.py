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
* **Query(ε, µ)** resolves every core in O(1) per vertex (is the µ-th
  best neighbor similarity ≥ ε?), bisects each core's neighbor order
  for its similar prefix, and hands those arcs to the shared cluster
  assembly (:func:`~repro.core.result.assemble_clustering`).  Results
  are bit-identical to ppSCAN for every (ε, µ).

Similarity values are kept exact: an edge's similarity is the rational
``overlap² / ((d(u)+1)(d(v)+1))``, compared to ``ε²`` in integer
arithmetic, so index queries agree with the online algorithms even at
threshold boundaries.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from ..graph.csr import CSRGraph, reverse_arc_index
from ..intersect import BatchIntersector
from ..metrics.records import RunRecord, StageRecord, TaskCost
from ..types import CORE, NONCORE, ScanParams
from .result import ClusteringResult, assemble_clustering

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache import SimilarityStore
    from ..sketch import SketchParams

__all__ = ["GSIndex"]

#: Core orders are materialized for µ up to this bound (beyond it the
#: per-vertex neighbor-order check answers in O(µ) anyway).
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


def arc_order(
    graph: CSRGraph, overlap: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, sim_num, sim_den)``: the :func:`arc_keys` keys, and
    every vertex's arcs by that key descending, then arc id,
    concatenated in vertex order."""
    src, sim_num, sim_den = arc_keys(graph, overlap)
    return descending_order(sim_num, sim_den, src), sim_num, sim_den


def descending_order(
    num: np.ndarray, den: np.ndarray, groups: np.ndarray | None = None
) -> np.ndarray:
    """Indices by ``groups`` ascending (one group if omitted), then exact
    ``num / den`` descending, then index ascending.

    A correctly rounded quotient is monotone in the exact rational, so
    after one stable ``np.lexsort`` on float quotients only float-equal
    neighbours need an exact check; a group with an unequal one is
    re-sorted by :meth:`GSIndex._fix_float_sort`.  Integers reaching
    ``2**53`` (quotients) or cross products past int64 use Python ints.
    """
    if groups is None:
        groups = np.zeros(num.size, dtype=np.int64)
    top = max(int(num.max(initial=0)), int(den.max(initial=0)))
    if top < 2**53:
        keys = num / den
    else:
        keys = (num.astype(object) / den.astype(object)).astype(np.float64)
    order = np.lexsort((-keys, groups))
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
            order[lo:hi] = GSIndex._fix_float_sort(
                order[lo:hi].tolist(), num_l, den_l
            )
    return order


def _eps_squared(params: ScanParams) -> tuple[int, int]:
    """``ε²`` as an exact (numerator, denominator) pair."""
    frac = params.eps_fraction
    return frac.numerator**2, frac.denominator**2


def _flatten(lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``(flat, offsets)`` arrays holding ``lists`` back to back."""
    offsets = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum([len(part) for part in lists], out=offsets[1:])
    flat = np.fromiter(chain.from_iterable(lists), np.int64, int(offsets[-1]))
    return flat, offsets


def _unflatten(flat: np.ndarray, offsets: np.ndarray) -> list[list[int]]:
    """Inverse of :func:`_flatten`: one Python list per segment."""
    flat, off = flat.tolist(), offsets.tolist()
    return [flat[off[i] : off[i + 1]] for i in range(len(off) - 1)]


class GSIndex:
    """Similarity index supporting exact SCAN queries at any (ε, µ).

    With ``sketch=SketchParams(error>0)`` the construction stores sketch
    *estimates* instead of exhaustive exact overlaps (see
    ``docs/approximate.md``): construction drops from O(Σ deg(u)+deg(v))
    to O(m · sketch) while queries keep their exact integer comparison
    machinery — against approximate values.  A conservative sketch
    (``error == 0``) keeps the construction exact and is a no-op.
    """

    def __init__(
        self,
        graph: CSRGraph,
        store: "SimilarityStore | None" = None,
        sketch: "SketchParams | None" = None,
    ) -> None:
        t0 = time.perf_counter()
        self.graph = graph
        src = graph.arc_source()
        deg = graph.degrees

        #: With ``sketch`` and ``error > 0`` the stored overlaps are
        #: sketch *estimates*, so the whole index — and every query made
        #: through it — is approximate.  ``error == 0`` keeps the exact
        #: construction: with no per-query ε to gate against, a
        #: conservative sketch cannot certify overlaps and is a no-op.
        self.approximate = sketch is not None and sketch.error > 0.0

        if self.approximate:
            # Estimate every undirected edge's overlap and mirror it.  The
            # store is untouched both ways: estimates must never be
            # recorded as exact, and cached exact values would make the
            # index's accuracy depend on cache warmth.
            from ..sketch import build_sketches, estimate_overlaps

            upper = np.flatnonzero(src < graph.dst)
            overlap = np.zeros(graph.num_arcs, dtype=np.int64)
            overlap[upper] = estimate_overlaps(
                build_sketches(graph, sketch), graph, upper, src=src
            )
            overlap[reverse_arc_index(graph)[upper]] = overlap[upper]
            scalar_cmp, compsims = 0, int(upper.size)
        else:
            # The exact construction IS an exhaustive overlap pass, so it
            # both profits from and fully populates a similarity store.
            # The record charges the paper's merge (d(u) + d(v) compares
            # per intersected edge), not the bulk kernel's vector work.
            overlap, computed = bulk_overlaps(graph, store)
            scalar_cmp = int(deg[src[computed]].sum() + deg[graph.dst[computed]].sum())
            compsims = int(computed.size)
        arcs = graph.num_edges + graph.num_arcs
        cost = TaskCost(scalar_cmp=scalar_cmp, compsims=compsims, arcs=arcs)

        # Neighbor order: arcs of u by descending exact similarity, kept
        # as the integer pair overlap^2 / ((d(u)+1)(d(v)+1)).
        order, sim_num, sim_den = arc_order(graph, overlap)

        # Core orders (the index's second structure): for each k, the
        # vertices with >= k neighbors sorted by their k-th best
        # similarity, descending.  A (eps, mu) core query is then a
        # prefix of core_order[mu] instead of an O(n) scan.
        max_core_k = min(int(deg.max(initial=0)), _CORE_ORDER_MAX_K)
        self._core_orders: list[list[int]] = [[]]
        for k in range(1, max_core_k + 1):
            candidates = np.flatnonzero(deg >= k)
            kth = order[graph.offsets[candidates] + (k - 1)]
            ranked = descending_order(sim_num[kth], sim_den[kth])
            self._core_orders.append(candidates[ranked].tolist())

        # Python lists for the query loops; arrays are dropped once listed.
        self._overlap = overlap.tolist()
        self._sim_num = sim_num.tolist()
        self._sim_den = sim_den.tolist()
        del overlap, sim_num, sim_den
        self._neighbor_order = _unflatten(order, graph.offsets)
        del order

        self.construction_record = RunRecord(
            algorithm="GS*-Index (construction)",
            stages=[StageRecord("index construction", [cost])],
            wall_seconds=time.perf_counter() - t0,
        )
        self.construction_record.apportion_wall()

    def memory_bytes(self) -> int:
        """Rough resident footprint of the index structures.

        Python-list ints cost far more than 8 bytes each; 28 bytes per
        element approximates the list-slot pointer plus a small-int
        object amortized over interning.  This is a budgeting estimate
        (for the service's LRU eviction), not an exact measurement.
        """
        per_element = 28
        count = len(self._overlap) + len(self._sim_num) + len(self._sim_den)
        count += sum(len(order) for order in self._neighbor_order)
        count += sum(len(order) for order in self._core_orders)
        return per_element * count

    @staticmethod
    def _fix_float_sort(
        arcs: list[int], num: list[int], den: list[int]
    ) -> list[int]:
        """Repair a float-key sort by exact insertion sort (stable, so
        exact ties keep their input order)."""
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

    # -- predicates -------------------------------------------------------

    def _arc_similar(self, arc: int, eps_num: int, eps_den: int) -> bool:
        """Exact ``σ(arc) >= ε`` via cross multiplication of squares."""
        return (
            self._sim_num[arc] * eps_den >= eps_num * self._sim_den[arc]
        )

    def edge_similarity(self, u: int, v: int) -> float:
        """The raw σ(u, v) stored in the index (float view)."""
        arc = self.graph.edge_offset(u, v)
        return (self._sim_num[arc] / self._sim_den[arc]) ** 0.5

    def is_core(self, u: int, params: ScanParams) -> bool:
        """Core predicate in O(µ) from the neighbor order."""
        order = self._neighbor_order[u]
        if len(order) < params.mu:
            return False
        # The µ-th most similar neighbor decides.
        return self._arc_similar(order[params.mu - 1], *_eps_squared(params))

    # -- persistence ----------------------------------------------------

    def save(self, path) -> None:
        """Persist the index (overlaps, orders) to an ``.npz`` file.

        The file embeds a fingerprint of the graph (vertex count, arc
        count, adjacency checksum); :meth:`load` refuses a mismatched
        graph rather than answering queries about the wrong topology.
        """
        order_flat, order_offsets = _flatten(self._neighbor_order)
        core_flat, core_offsets = _flatten(self._core_orders)
        np.savez_compressed(
            path,
            approximate=np.array([int(self.approximate)], dtype=np.int64),
            fingerprint=self._fingerprint(self.graph),
            overlap=np.array(self._overlap, dtype=np.int64),
            sim_num=np.array(self._sim_num, dtype=np.int64),
            sim_den=np.array(self._sim_den, dtype=np.int64),
            order_flat=order_flat,
            order_offsets=order_offsets,
            core_flat=core_flat,
            core_offsets=core_offsets,
        )

    @classmethod
    def load(cls, path, graph: CSRGraph) -> "GSIndex":
        """Load an index saved by :meth:`save` for the *same* graph."""
        with np.load(path) as data:
            if not np.array_equal(data["fingerprint"], cls._fingerprint(graph)):
                raise ValueError(
                    "index fingerprint does not match the supplied graph"
                )
            index = cls.__new__(cls)
            index.graph = graph
            index.approximate = bool(
                "approximate" in data.files and int(data["approximate"][0])
            )
            index._overlap = data["overlap"].tolist()
            index._sim_num = data["sim_num"].tolist()
            index._sim_den = data["sim_den"].tolist()
            index._neighbor_order = _unflatten(
                data["order_flat"], data["order_offsets"]
            )
            index._core_orders = _unflatten(
                data["core_flat"], data["core_offsets"]
            )
            index.construction_record = RunRecord(
                algorithm="GS*-Index (loaded)", stages=[]
            )
            return index

    @staticmethod
    def _fingerprint(graph: CSRGraph) -> np.ndarray:
        import zlib

        return np.array(
            [
                graph.num_vertices,
                graph.num_arcs,
                zlib.adler32(np.ascontiguousarray(graph.dst).tobytes()),
            ],
            dtype=np.int64,
        )

    def cores(self, params: ScanParams) -> list[int]:
        """All core vertices for (ε, µ) via the core order.

        Walks the descending µ-th-best-similarity prefix of
        ``core_order[µ]``; cost is proportional to the number of cores
        (plus the exact boundary checks), not to |V|.
        """
        eps_num, eps_den = _eps_squared(params)
        mu = params.mu
        if mu < len(self._core_orders):
            out: list[int] = []
            for u in self._core_orders[mu]:
                arc = self._neighbor_order[u][mu - 1]
                if not self._arc_similar(arc, eps_num, eps_den):
                    break  # descending prefix ends here
                out.append(u)
            out.sort()
            return out
        # Degenerate µ beyond the materialized orders: per-vertex check.
        return [
            u
            for u in range(self.graph.num_vertices)
            if len(self._neighbor_order[u]) >= mu
            and self._arc_similar(
                self._neighbor_order[u][mu - 1], eps_num, eps_den
            )
        ]

    # -- query ------------------------------------------------------------

    def _similar_count(self, u: int, eps_num: int, eps_den: int) -> int:
        """Length of ``u``'s ε-similar prefix, by bisection on its
        descending neighbor order."""
        order = self._neighbor_order[u]
        lo, hi = 0, len(order)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._arc_similar(order[mid], eps_num, eps_den):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def query(self, params: ScanParams) -> ClusteringResult:
        """Exact SCAN clustering for (ε, µ) from the index: the cores'
        similar prefixes, assembled by :func:`assemble_clustering`."""
        t0 = time.perf_counter()
        n = self.graph.num_vertices
        eps_num, eps_den = _eps_squared(params)
        cores = self.cores(params)
        roles = np.full(n, NONCORE, dtype=np.int8)
        roles[cores] = CORE
        lengths = [self._similar_count(u, eps_num, eps_den) for u in cores]
        orders = self._neighbor_order
        total = sum(lengths)
        arcs = np.fromiter(
            chain.from_iterable(
                orders[u][:k] for u, k in zip(cores, lengths)
            ),
            np.int64,
            total,
        )
        result, merges = assemble_clustering(
            "GS*-Index",
            params,
            roles,
            np.repeat(np.asarray(cores, dtype=np.int64), lengths),
            self.graph.dst[arcs],
        )
        cost = TaskCost(arcs=n + total, atomics=merges)
        result.record = RunRecord(
            algorithm="GS*-Index (query)",
            stages=[StageRecord("index query", [cost])],
            wall_seconds=time.perf_counter() - t0,
        )
        result.record.apportion_wall()
        return result
