"""Cross-algorithm validation and an independent brute-force oracle.

``brute_force_scan`` computes the clustering straight from the definitions
in §2 with Python sets — no shared kernels, no pruning, no CSR tricks —
so agreement with it is meaningful evidence that the optimized algorithms
are exact.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..graph.csr import CSRGraph, validate_graph
from ..similarity.threshold import min_cn_threshold
from ..types import CORE, NONCORE, ScanParams
from .result import ClusteringResult

__all__ = ["brute_force_scan", "assert_same_clustering", "validate_graph"]


def brute_force_scan(graph: CSRGraph, params: ScanParams) -> ClusteringResult:
    """Definition-level SCAN clustering (quadratic-ish; small graphs only)."""
    n = graph.num_vertices
    eps = params.eps_fraction
    mu = params.mu
    nbr_sets = [set(graph.neighbors(u).tolist()) for u in range(n)]
    deg = graph.degrees

    def similar(u: int, v: int) -> bool:
        overlap = len(nbr_sets[u] & nbr_sets[v]) + 2  # closed neighborhoods
        return overlap >= min_cn_threshold(eps, int(deg[u]), int(deg[v]))

    eps_nbrs: list[list[int]] = [
        [v for v in sorted(nbr_sets[u]) if similar(u, v)] for u in range(n)
    ]
    roles = np.array(
        [CORE if len(eps_nbrs[u]) >= mu else NONCORE for u in range(n)],
        dtype=np.int8,
    )

    # Clusters: connected components of cores under similar adjacency.
    labels = np.full(n, -1, dtype=np.int64)
    for seed in range(n):
        if roles[seed] != CORE or labels[seed] != -1:
            continue
        component = [seed]
        labels[seed] = seed
        queue = deque([seed])
        while queue:
            u = queue.popleft()
            for v in eps_nbrs[u]:
                if roles[v] == CORE and labels[v] == -1:
                    labels[v] = seed
                    component.append(v)
                    queue.append(v)
        cid = min(component)
        for v in component:
            labels[v] = cid

    pairs = sorted(
        {
            (int(labels[u]), v)
            for u in range(n)
            if roles[u] == CORE
            for v in eps_nbrs[u]
            if roles[v] != CORE
        }
    )
    return ClusteringResult(
        algorithm="brute-force",
        params=params,
        roles=roles,
        core_labels=labels,
        noncore_pairs=pairs,
    )


def assert_same_clustering(
    expected: ClusteringResult, actual: ClusteringResult
) -> None:
    """Raise ``AssertionError`` with a diagnostic diff on mismatch."""
    if expected.same_clustering(actual):
        return
    problems: list[str] = []
    if not np.array_equal(expected.roles, actual.roles):
        diff = np.flatnonzero(expected.roles != actual.roles)[:10]
        problems.append(f"roles differ at vertices {diff.tolist()}")
    if not np.array_equal(expected.core_labels, actual.core_labels):
        diff = np.flatnonzero(expected.core_labels != actual.core_labels)[:10]
        problems.append(f"core labels differ at vertices {diff.tolist()}")
    if not np.array_equal(expected.noncore_pairs, actual.noncore_pairs):
        exp = {tuple(r) for r in expected.noncore_pairs.tolist()}
        act = {tuple(r) for r in actual.noncore_pairs.tolist()}
        problems.append(
            f"membership pairs differ: missing={sorted(exp - act)[:10]}, "
            f"extra={sorted(act - exp)[:10]}"
        )
    raise AssertionError(
        f"{actual.algorithm} disagrees with {expected.algorithm} "
        f"({expected.params}): " + "; ".join(problems)
    )
