"""Differential conformance suite for the SCAN family × the cache layer.

Every registered exact algorithm (scan, pscan, scanxp, ppscan, gsindex),
in every execution mode it supports, with no store / a cold store / a warm store
shared across the whole parameter grid, must produce the *bit-identical*
clustering — partitions, cores, and hub/outlier labels — on seeded
Erdős–Rényi graphs, an LFR-style community graph, and a set of
pathological fixtures (stars, cliques, paths, disjoint triangles with
isolated vertices).

The cached :class:`~repro.sweep.SweepEngine` is held to the same bar,
and the supervised process backend under chaos injection must recover
bit-identically without ever committing overlaps from killed or
quarantined workers into the parent's store.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.cache import SimilarityStore
from repro.core import assert_same_clustering
from repro.graph import from_edges
from repro.graph.generators import erdos_renyi, lfr_graph
from repro.intersect import merge_count
from repro.options import BackendKind, ExecMode, ExecutionOptions
from repro.parallel import FaultPlan, PoisonTaskError
from repro.sweep import SweepEngine
from repro.types import ScanParams


def star(leaves: int):
    return from_edges([(0, i) for i in range(1, leaves + 1)])


def path(n: int):
    return from_edges([(i, i + 1) for i in range(n - 1)])


def clique(n: int):
    return from_edges([(i, j) for i in range(n) for j in range(i + 1, n)])


def triangles_plus_isolated():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    return from_edges(edges, num_vertices=8)  # 6, 7 isolated


FIXTURES = {
    "er-sparse": lambda: erdos_renyi(60, 240, seed=2),
    "er-dense": lambda: erdos_renyi(50, 450, seed=11),
    "lfr": lambda: lfr_graph(120, avg_degree=10.0, mu_mix=0.3, seed=5)[0],
    "star": lambda: star(12),
    "path": lambda: path(10),
    "clique": lambda: clique(7),
    "triangles+isolated": triangles_plus_isolated,
}

GRID = [
    ScanParams(eps, mu) for eps in (0.25, 0.5, 0.75) for mu in (2, 4)
]

#: (algorithm, exec_mode) pairs; scan, pscan and gsindex have no batched
#: mode.
VARIANTS = [
    ("scan", ExecMode.SCALAR),
    ("pscan", ExecMode.SCALAR),
    ("scanxp", ExecMode.SCALAR),
    ("scanxp", ExecMode.BATCHED),
    ("ppscan", ExecMode.SCALAR),
    ("ppscan", ExecMode.BATCHED),
    ("gsindex", ExecMode.SCALAR),
]


def _assert_conforms(reference, ref_labels, graph, result):
    assert_same_clustering(reference, result)
    np.testing.assert_array_equal(ref_labels, result.classify(graph))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_algorithms_conform_across_grid(name):
    graph = FIXTURES[name]()
    warm = SimilarityStore()  # shared across the whole grid
    for params in GRID:
        reference = api.cluster(graph, params, algorithm="scan")
        ref_labels = reference.classify(graph)
        for algorithm, mode in VARIANTS:
            plain = api.cluster(
                graph,
                params,
                algorithm=algorithm,
                options=ExecutionOptions(exec_mode=mode),
            )
            _assert_conforms(reference, ref_labels, graph, plain)
            cold = api.cluster(
                graph,
                params,
                algorithm=algorithm,
                options=ExecutionOptions(exec_mode=mode, cache=SimilarityStore()),
            )
            _assert_conforms(reference, ref_labels, graph, cold)
            warmed = api.cluster(
                graph,
                params,
                algorithm=algorithm,
                options=ExecutionOptions(exec_mode=mode, cache=warm),
            )
            _assert_conforms(reference, ref_labels, graph, warmed)
    # The shared store must have produced real traffic across the grid.
    assert warm.stats().hits > 0


@pytest.mark.parametrize("name", ["er-sparse", "lfr", "triangles+isolated"])
def test_sweep_engine_conforms(name):
    graph = FIXTURES[name]()
    eps_values, mu_values = [0.25, 0.5, 0.75], [2, 4]
    engine = SweepEngine(graph)
    cold = engine.run(eps_values, mu_values)
    warm = engine.run(eps_values, mu_values)
    for params in GRID:
        reference = api.cluster(graph, params, algorithm="scan")
        ref_labels = reference.classify(graph)
        for outcome in (cold, warm):
            point = outcome.point(params.eps, params.mu)
            _assert_conforms(reference, ref_labels, graph, point.result)
    assert sum(p.misses for p in warm.points) == 0


def _verify_store_exact(graph, entry):
    """Every covered overlap equals ground truth |N[u] ∩ N[v]|."""
    src = graph.arc_source()
    adj = [graph.neighbors(u) for u in range(graph.num_vertices)]
    for arc in np.flatnonzero(entry.coverage):
        u, v = int(src[arc]), int(graph.dst[arc])
        assert entry.overlap[arc] == merge_count(adj[u], adj[v]) + 2


class TestSupervisorCacheInterplay:
    """Chaos injection × the similarity store: recovery cannot corrupt it."""

    GRAPH = staticmethod(lambda: erdos_renyi(150, 900, seed=3))
    PARAMS = ScanParams(0.4, 3)

    def test_chaotic_run_with_warm_store_is_bit_identical(self):
        graph = self.GRAPH()
        store = SimilarityStore()
        reference = api.cluster(
            graph, self.PARAMS, options=ExecutionOptions(cache=store)
        )
        entry = store.entry_for(graph)
        coverage_before = entry.coverage.copy()
        overlap_before = entry.overlap.copy()

        chaotic = api.cluster(
            graph,
            self.PARAMS,
            options=ExecutionOptions(
                backend=BackendKind.PROCESS,
                workers=2,
                chaos=FaultPlan.from_seed(42, tasks=4, kills=1),
                cache=store,
            ),
        )
        assert_same_clustering(reference, chaotic)

        # Previously recorded overlaps are untouched, and whatever is
        # covered now is still ground-truth exact.
        assert np.all(entry.coverage[coverage_before])
        assert np.array_equal(
            entry.overlap[coverage_before], overlap_before[coverage_before]
        )
        _verify_store_exact(graph, entry)

    def test_quarantined_tasks_never_commit_overlaps(self):
        graph = self.GRAPH()
        store = SimilarityStore()
        options = ExecutionOptions(
            backend=BackendKind.PROCESS,
            workers=2,
            chaos=FaultPlan.poison(0),
            max_retries=3,
            cache=store,
        )
        with pytest.raises(PoisonTaskError):
            api.cluster(graph, self.PARAMS, options=options)
        # The poisoned run died in workers; the parent's store must hold
        # nothing from it (worker-side record calls are pid-guarded).
        entry = store.entry_for(graph)
        assert entry.covered == 0

        # The store remains perfectly usable after the quarantine.
        reference = api.cluster(graph, self.PARAMS)
        cached = api.cluster(
            graph, self.PARAMS, options=ExecutionOptions(cache=store)
        )
        assert_same_clustering(reference, cached)
        _verify_store_exact(graph, entry)
