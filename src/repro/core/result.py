"""Clustering results in the canonical form shared by every algorithm.

A SCAN clustering is fully described by three pieces (Definitions 2.5,
2.9, 2.10 and Lemma 3.5):

* the role of every vertex (core / non-core),
* for every core, the id of its (unique) cluster — canonically the
  smallest core id in the cluster (Definition 3.7),
* the set of ``(cluster_id, non_core)`` membership pairs — a non-core
  border vertex may belong to several clusters, which is why ppSCAN's
  non-core stage emits pairs rather than a label array.

Two algorithms produce the same clustering iff these three pieces match,
which is what :meth:`ClusteringResult.same_clustering` compares.

:func:`assemble_clustering` derives the last two pieces from the roles
and the ε-similar arcs leaving cores; every exact path without pinned
union-find counters (the fast path and the GS*-Index family) ends in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.transform import component_labels
from ..metrics.records import RunRecord
from ..types import CORE, HUB, NONCORE, OUTLIER, ScanParams

__all__ = ["ClusteringResult", "assemble_clustering", "peripheral_labels"]


@dataclass
class ClusteringResult:
    """Output of one SCAN-family clustering run."""

    algorithm: str
    params: ScanParams
    roles: np.ndarray
    core_labels: np.ndarray
    noncore_pairs: np.ndarray
    record: RunRecord | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.roles = np.asarray(self.roles, dtype=np.int8)
        self.core_labels = np.asarray(self.core_labels, dtype=np.int64)
        pairs = np.asarray(self.noncore_pairs, dtype=np.int64).reshape(-1, 2)
        # Canonical order (lexicographic by (cid, v)) + dedup so results
        # compare bytewise; equal to ``np.unique(pairs, axis=0)``, faster.
        if pairs.size:
            pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
            fresh = np.empty(len(pairs), dtype=bool)
            fresh[0] = True
            np.any(pairs[1:] != pairs[:-1], axis=1, out=fresh[1:])
            pairs = pairs[fresh]
        self.noncore_pairs = pairs

    # -- shape ----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.roles.size

    @property
    def num_cores(self) -> int:
        return int(np.count_nonzero(self.roles == CORE))

    @property
    def cluster_ids(self) -> np.ndarray:
        """Sorted array of distinct cluster ids."""
        core_ids = self.core_labels[self.core_labels >= 0]
        pair_ids = self.noncore_pairs[:, 0]
        return np.unique(np.concatenate([core_ids, pair_ids]))

    @property
    def num_clusters(self) -> int:
        return self.cluster_ids.size

    # -- membership -------------------------------------------------------

    @cached_property
    def memberships(self) -> tuple[np.ndarray, np.ndarray]:
        """Every vertex's cluster ids as ``(offsets, ids)``: vertex ``v``
        belongs to ``ids[offsets[v]:offsets[v + 1]]``, sorted and distinct
        (empty for unclustered vertices)."""
        cores = np.flatnonzero(self.core_labels >= 0)
        vertex = np.concatenate([cores, self.noncore_pairs[:, 1]])
        ids = np.concatenate([self.core_labels[cores], self.noncore_pairs[:, 0]])
        order = np.lexsort((ids, vertex))
        vertex, ids = vertex[order], ids[order]
        fresh = (np.diff(vertex, prepend=-1) != 0) | (np.diff(ids, prepend=-1) != 0)
        vertex, ids = vertex[fresh], ids[fresh]
        return np.searchsorted(vertex, np.arange(self.num_vertices + 1)), ids

    def clusters(self) -> dict[int, np.ndarray]:
        """``cluster_id -> sorted member vertex array`` (cores + non-cores)."""
        offsets, ids = self.memberships
        vertex = np.repeat(np.arange(self.num_vertices), np.diff(offsets))
        order = np.argsort(ids, kind="stable")
        heads, at = np.unique(ids[order], return_index=True)
        return dict(zip(heads.tolist(), np.split(vertex[order], at[1:])))

    def membership(self) -> list[set[int]]:
        """Per-vertex set of cluster ids (empty for unclustered vertices)."""
        offsets, ids = self.memberships
        bounds, flat = offsets.tolist(), ids.tolist()
        return [set(flat[a:b]) for a, b in zip(bounds, bounds[1:])]

    def classify(self, graph: CSRGraph) -> np.ndarray:
        """Extended roles: CORE / NONCORE(member) / HUB / OUTLIER, by
        :func:`peripheral_labels` over every vertex."""
        if graph.num_vertices != self.num_vertices:
            raise ValueError("graph does not match this result")
        everyone = np.arange(self.num_vertices)
        return peripheral_labels(graph, self.roles, *self.memberships, everyone)[0]

    # -- comparison -------------------------------------------------------

    def canonical(self) -> tuple[bytes, bytes, bytes]:
        """Bytes triple that is equal iff two clusterings are identical."""
        return (
            self.roles.tobytes(),
            self.core_labels.tobytes(),
            self.noncore_pairs.tobytes(),
        )

    def same_clustering(self, other: "ClusteringResult") -> bool:
        return self.canonical() == other.canonical()

    def summary(self) -> str:
        return (
            f"{self.algorithm}({self.params}): |V|={self.num_vertices}, "
            f"cores={self.num_cores}, clusters={self.num_clusters}, "
            f"noncore memberships={len(self.noncore_pairs)}"
        )

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        """Persist the clustering to an ``.npz`` file (records excluded —
        they describe the run, not the clustering)."""
        np.savez_compressed(
            path,
            algorithm=np.bytes_(self.algorithm.encode()),
            eps=np.float64(self.params.eps),
            mu=np.int64(self.params.mu),
            roles=self.roles,
            core_labels=self.core_labels,
            noncore_pairs=self.noncore_pairs,
        )

    @classmethod
    def load(cls, path) -> "ClusteringResult":
        """Load a clustering persisted by :meth:`save`."""
        with np.load(path) as data:
            return cls(
                algorithm=bytes(data["algorithm"]).decode(),
                params=ScanParams(
                    eps=float(data["eps"]), mu=int(data["mu"])
                ),
                roles=data["roles"],
                core_labels=data["core_labels"],
                noncore_pairs=data["noncore_pairs"],
            )


def assemble_clustering(
    algorithm: str,
    params: ScanParams,
    roles: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> tuple[ClusteringResult, int]:
    """The canonical clustering for ``roles`` and the ε-similar arcs
    ``src[i] → dst[i]`` leaving cores, plus its merge count.

    Core labels are the smallest core id per connected component of the
    core → core arcs (Definition 3.7), from one
    :func:`~repro.graph.transform.component_labels` pass over the cores;
    each core → non-core arc adds the pair ``(label[src], dst)``.  The
    merge count, cores minus core clusters, is what a union-find over
    the same arcs counts as successful unions.
    """
    roles = np.asarray(roles, dtype=np.int8)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    cores = np.flatnonzero(roles == CORE)
    to_core = roles[dst] == CORE
    # Components over the cores' ranks: the rank order is the id order,
    # so each component's smallest rank is its smallest core id.
    ranks = np.arange(cores.size)
    rank_of = np.zeros(roles.size, dtype=np.int64)
    rank_of[cores] = ranks
    comp = component_labels(
        cores.size, rank_of[src[to_core]], rank_of[dst[to_core]]
    )
    labels = np.full(roles.size, -1, dtype=np.int64)
    labels[cores] = cores[comp]
    merges = cores.size - int(np.count_nonzero(comp == ranks))
    to_noncore = ~to_core
    result = ClusteringResult(
        algorithm=algorithm,
        params=params,
        roles=roles,
        core_labels=labels,
        noncore_pairs=np.column_stack((labels[src[to_noncore]], dst[to_noncore])),
    )
    return result, merges


def cluster_similar_arcs(
    algorithm: str,
    params: ScanParams,
    graph: CSRGraph,
    src: np.ndarray,
    similar: np.ndarray,
) -> tuple[ClusteringResult, int, int]:
    """The clustering whose ε-similar arcs are the mask ``similar`` (arc
    sources ``src``): a core has at least µ of them, and those leaving
    cores go to :func:`assemble_clustering`.  Returns it, its merge
    count and the number of similar arcs leaving cores."""
    counts = np.bincount(src[similar], minlength=graph.num_vertices)
    roles = np.where(counts >= params.mu, CORE, NONCORE).astype(np.int8)
    leaving = np.flatnonzero(similar & (roles[src] == CORE))
    result, merges = assemble_clustering(
        algorithm, params, roles, src[leaving], graph.dst[leaving]
    )
    return result, merges, leaving.size


def peripheral_labels(
    graph: CSRGraph,
    roles: np.ndarray,
    offsets: np.ndarray,
    ids: np.ndarray,
    vertices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Definition 2.10 for the array ``vertices``: each one's extended role
    and the arcs it scanned, over :attr:`ClusteringResult.memberships`.

    An unclustered vertex is a HUB iff some clustered neighbour after its
    first one conflicts with that one (either is in several clusters, or
    their single ids differ); it scans up to and including that neighbour,
    else all its arcs (an OUTLIER).  Cores and members scan nothing.
    """
    labels = np.where(roles[vertices] == CORE, CORE, NONCORE).astype(np.int8)
    arcs = np.zeros(vertices.size, dtype=np.int64)
    empty = offsets[vertices + 1] == offsets[vertices]
    free = ((labels == NONCORE) & empty).nonzero()[0]
    # Every arc of the unclustered vertices, grouped per vertex in order.
    first_arc = graph.offsets[vertices[free]]
    degree = graph.offsets[vertices[free] + 1] - first_arc
    start = degree.cumsum() - degree
    seg = np.arange(free.size).repeat(degree)
    nbr = graph.dst[np.arange(seg.size) + (first_arc - start).repeat(degree)]
    lo = offsets[nbr]
    size = offsets[nbr + 1] - lo
    # Each clustered neighbour against its vertex's first clustered one.
    hit = size.nonzero()[0]
    many, one = size[hit] > 1, ids[lo[hit]]
    lead = np.searchsorted(hit, start)[seg[hit]]
    conflict = (lead != np.arange(hit.size)) & (many[lead] | many | (one[lead] != one))
    # The first conflict of each hub ends its scan.
    stop = hit[conflict]
    first = np.ones(stop.size, dtype=bool)
    first[1:] = seg[stop[1:]] != seg[stop[:-1]]
    stop = stop[first]
    hubs = seg[stop]
    labels[free] = OUTLIER
    arcs[free] = degree
    labels[free[hubs]] = HUB
    arcs[free[hubs]] = stop - start[hubs] + 1
    return labels, arcs
