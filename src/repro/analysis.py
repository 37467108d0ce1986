"""Dataset analysis: similarity distributions and pruning effectiveness.

The evaluation's behaviour is driven by two dataset properties — the
distribution of structural similarity over edges, and how much of the
workload the §3.2.2 predicate pruning resolves for free.  This module
measures both, powering the dataset-profiling example and giving
downstream users the tools to predict parameter ranges before clustering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph.csr import CSRGraph
from .similarity.bulk import min_cn_arcs, predicate_prune_arcs
from .types import NSIM, SIM, UNKNOWN, ScanParams
from .core.fastscan import fast_structural_clustering
from .core.gsindex import bulk_overlaps
from .types import CORE

__all__ = [
    "edge_similarities",
    "similarity_histogram",
    "PruningProfile",
    "pruning_profile",
    "core_ratio_curve",
]


def edge_similarities(graph: CSRGraph) -> np.ndarray:
    """Exact σ(u, v) for every undirected edge (Definition 2.2).

    Returns a float array aligned with ``graph.edge_list()``.
    """
    src = graph.arc_source()
    upper = src < graph.dst
    overlap = bulk_overlaps(graph)[0][upper]
    deg = graph.degrees
    denom = np.sqrt(
        (deg[src[upper]] + 1).astype(np.float64)
        * (deg[graph.dst[upper]] + 1).astype(np.float64)
    )
    return overlap / denom


def similarity_histogram(
    graph: CSRGraph, bins: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of edge similarities over [0, 1]."""
    sims = edge_similarities(graph)
    return np.histogram(sims, bins=bins, range=(0.0, 1.0))


@dataclass(frozen=True)
class PruningProfile:
    """Predicate-pruning effectiveness at one (ε, µ)."""

    eps: float
    mu: int
    num_arcs: int
    pruned_sim: int
    pruned_nsim: int
    unknown: int
    roles_settled: int
    num_vertices: int

    @property
    def arcs_resolved_fraction(self) -> float:
        if self.num_arcs == 0:
            return 1.0
        return (self.pruned_sim + self.pruned_nsim) / self.num_arcs

    @property
    def roles_settled_fraction(self) -> float:
        return self.roles_settled / self.num_vertices if self.num_vertices else 1.0


def pruning_profile(
    graph: CSRGraph, params: ScanParams
) -> PruningProfile:
    """How much the similarity-predicate pruning phase resolves for free."""
    mcn = min_cn_arcs(graph, params.eps_fraction)
    state = predicate_prune_arcs(graph, mcn)
    n = graph.num_vertices
    src = graph.arc_source()
    sd0 = np.bincount(src[state == SIM], minlength=n)
    nsim0 = np.bincount(src[state == NSIM], minlength=n)
    ed0 = graph.degrees - nsim0
    settled = int(np.count_nonzero((sd0 >= params.mu) | (ed0 < params.mu)))
    return PruningProfile(
        eps=params.eps,
        mu=params.mu,
        num_arcs=graph.num_arcs,
        pruned_sim=int(np.count_nonzero(state == SIM)),
        pruned_nsim=int(np.count_nonzero(state == NSIM)),
        unknown=int(np.count_nonzero(state == UNKNOWN)),
        roles_settled=settled,
        num_vertices=n,
    )


def core_ratio_curve(
    graph: CSRGraph, eps_values: tuple[float, ...], mu: int
) -> dict[float, float]:
    """Fraction of core vertices at each ε (exact, via the fast mode)."""
    out: dict[float, float] = {}
    n = graph.num_vertices
    for eps in eps_values:
        result = fast_structural_clustering(graph, ScanParams(eps, mu))
        out[eps] = (
            float(np.count_nonzero(result.roles == CORE)) / n if n else 0.0
        )
    return out
