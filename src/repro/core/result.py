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

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.transform import component_labels
from ..metrics.records import RunRecord
from ..types import CORE, HUB, NONCORE, OUTLIER, ScanParams

__all__ = ["ClusteringResult", "assemble_clustering"]


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

    def clusters(self) -> dict[int, np.ndarray]:
        """``cluster_id -> sorted member vertex array`` (cores + non-cores)."""
        members: dict[int, list[int]] = {}
        for v in np.flatnonzero(self.core_labels >= 0):
            members.setdefault(int(self.core_labels[v]), []).append(int(v))
        for cid, v in self.noncore_pairs:
            members.setdefault(int(cid), []).append(int(v))
        return {
            cid: np.unique(np.array(vs, dtype=np.int64))
            for cid, vs in sorted(members.items())
        }

    def membership(self) -> list[set[int]]:
        """Per-vertex set of cluster ids (empty for unclustered vertices)."""
        out: list[set[int]] = [set() for _ in range(self.num_vertices)]
        for v in np.flatnonzero(self.core_labels >= 0):
            out[v].add(int(self.core_labels[v]))
        for cid, v in self.noncore_pairs:
            out[int(v)].add(int(cid))
        return out

    def classify(self, graph: CSRGraph) -> np.ndarray:
        """Extended roles: CORE / NONCORE(member) / HUB / OUTLIER.

        Per Definition 2.10, an unclustered vertex is a hub iff two of its
        neighbors belong to different clusters (two *distinct* neighbors,
        drawing one cluster each).
        """
        if graph.num_vertices != self.num_vertices:
            raise ValueError("graph does not match this result")
        member = self.membership()
        out = np.empty(self.num_vertices, dtype=np.int8)
        for v in range(self.num_vertices):
            if self.roles[v] == CORE:
                out[v] = CORE
            elif member[v]:
                out[v] = NONCORE
            else:
                out[v] = (
                    HUB if _is_hub(graph.neighbors(v), member) else OUTLIER
                )
        return out

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


def _is_hub(neighbors: np.ndarray, member: list[set[int]]) -> bool:
    """Does this unclustered vertex bridge two different clusters?

    True iff among its clustered neighbors there exist two distinct
    neighbors ``v != w`` and clusters ``c1 in member[v]``,
    ``c2 in member[w]`` with ``c1 != c2`` — equivalently, the clustered
    neighbors do not all share one identical singleton membership.
    """
    first: set[int] | None = None
    for v in neighbors:
        sets = member[int(v)]
        if not sets:
            continue
        if first is None:
            first = sets
            continue
        if len(first) > 1 or len(sets) > 1 or first != sets:
            return True
    return False
