"""Fast exact structural clustering via whole-graph NumPy kernels.

The counted kernels in :mod:`repro.core.ppscan` exist to *study* the
paper's algorithms (operation counts drive the machine models).  When the
goal is simply the clustering of a large graph on this substrate, the
idiomatic-NumPy path below is the fastest way to the exact same result:

* thresholds and predicate pruning for all arcs at once (§3.2.2 as array
  arithmetic),
* one bulk overlap pass over the surviving ``u < v`` arcs with the
  GS*-Index build's kernel (:func:`~repro.core.gsindex.edge_overlaps`:
  each undirected edge intersected exactly once — Theorem 4.1's bound,
  met trivially),
* roles, core labels and membership pairs from the similar-arc mask
  (:func:`~repro.core.result.cluster_similar_arcs`).

Exactness against every other implementation is enforced by the
cross-validation tests.
"""

from __future__ import annotations

import time

import numpy as np

from ..graph.csr import CSRGraph, reverse_arc_index
from ..metrics.records import RunRecord, StageRecord, TaskCost
from ..similarity.bulk import min_cn_arcs, predicate_prune_arcs
from ..types import NSIM, SIM, UNKNOWN, ScanParams
from .gsindex import edge_overlaps
from .result import ClusteringResult, cluster_similar_arcs

__all__ = ["fast_structural_clustering"]


def fast_structural_clustering(
    graph: CSRGraph, params: ScanParams
) -> ClusteringResult:
    """Exact SCAN clustering, vectorized end to end."""
    t0 = time.perf_counter()
    src = graph.arc_source()

    # -- similarity of every arc ------------------------------------------
    mcn = min_cn_arcs(graph, params.eps_fraction)
    state = predicate_prune_arcs(graph, mcn)
    forward_unknown = np.flatnonzero((state == UNKNOWN) & (src < graph.dst))
    rev = reverse_arc_index(graph)[forward_unknown]
    similar = edge_overlaps(graph, forward_unknown, rev) >= mcn[forward_unknown]
    state[forward_unknown] = np.where(similar, SIM, NSIM)
    state[rev] = state[forward_unknown]

    # -- roles and clusters ------------------------------------------------
    result, merges, _ = cluster_similar_arcs(
        "fast-exact", params, graph, src, state == SIM
    )

    cost = TaskCost(
        arcs=graph.num_arcs, compsims=int(forward_unknown.size), atomics=merges
    )
    result.record = RunRecord(
        algorithm="fast-exact",
        stages=[StageRecord("bulk clustering", [cost])],
        wall_seconds=time.perf_counter() - t0,
    )
    result.record.apportion_wall()
    return result
