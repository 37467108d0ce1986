"""The sketch subsystem: certified bounds, estimators, and conformance.

Three layers of guarantees are pinned here:

1. **Property tests** — for every arc of every fixture, the
   deterministic sketch bounds bracket the exact open overlap
   (``lb <= |N(u) ∩ N(v)| <= ub``), the bounds collapse to equality
   when both endpoint degrees fit inside the KMV sketch, and every
   probabilistic estimate stays inside the certified bracket.
2. **Soundness of conservative classification** — any SIM/NSIM decision
   the sketch gate emits with ``error == 0`` must agree with the exact
   similarity predicate; only UNKNOWN may fall back.
3. **Conformance** — ``Kernel.SKETCH`` in the conservative band is
   bit-identical to exact resolution for every algorithm × exec mode ×
   cache state, on the same fixture/grid style as ``test_conformance``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.cache import SimilarityStore
from repro.core import assert_same_clustering
from repro.graph import from_edges
from repro.graph.generators import erdos_renyi, lfr_graph
from repro.intersect import BatchIntersector
from repro.options import ExecMode, ExecutionOptions, Kernel
from repro.quality import adjusted_rand_index, primary_labels
from repro.similarity import min_cn_arcs
from repro.sketch import (
    SENTINEL,
    SketchParams,
    build_sketches,
    classify_arcs,
    estimate_overlaps,
    hash_vertices,
    overlap_bounds,
)
from repro.types import NSIM, SIM, UNKNOWN, ScanParams


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

#: Parameter variety: a small k to force the probabilistic regime on
#: the denser fixtures, the default, and a degenerate 64-bit Bloom.
#: ``gate=0`` on the small-degree variants so the tiny fixtures are
#: actually classified rather than cost-gated straight to fallback.
SKETCH_VARIANTS = [
    SketchParams(gate=0),
    SketchParams(bits=64, k=4, seed=9, gate=0),
    SketchParams(bits=1024, k=64, seed=3),
]


def _arc_endpoints(graph):
    src = graph.arc_source()
    return src, graph.dst


class TestHashing:
    def test_no_sentinel_and_injective(self):
        for seed in (0, 1, 42):
            hv = hash_vertices(5000, seed)
            assert not np.any(hv == SENTINEL)
            assert np.unique(hv).size == hv.size

    def test_deterministic(self):
        np.testing.assert_array_equal(
            hash_vertices(100, 7), hash_vertices(100, 7)
        )
        assert not np.array_equal(hash_vertices(100, 7), hash_vertices(100, 8))


class TestCertifiedBounds:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    @pytest.mark.parametrize(
        "sp", SKETCH_VARIANTS, ids=lambda sp: sp.key()
    )
    def test_bounds_bracket_exact_overlap(self, name, sp):
        graph = FIXTURES[name]()
        if graph.num_arcs == 0:
            pytest.skip("no arcs")
        sk = build_sketches(graph, sp)
        src, dst = _arc_endpoints(graph)
        lb, ub = overlap_bounds(sk, src, dst)
        exact = BatchIntersector(graph).arc_counts(np.arange(graph.num_arcs))
        assert np.all(lb <= exact), name
        assert np.all(exact <= ub), name

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_small_degrees_are_exact(self, name):
        graph = FIXTURES[name]()
        if graph.num_arcs == 0:
            pytest.skip("no arcs")
        sp = SketchParams(k=32)
        sk = build_sketches(graph, sp)
        src, dst = _arc_endpoints(graph)
        small = (graph.degrees[src] <= sp.k) & (graph.degrees[dst] <= sp.k)
        if not small.any():
            pytest.skip("no small-degree arcs")
        lb, ub = overlap_bounds(sk, src[small], dst[small])
        exact = BatchIntersector(graph).arc_counts(np.flatnonzero(small))
        np.testing.assert_array_equal(lb, exact)
        np.testing.assert_array_equal(ub, exact)

    @pytest.mark.parametrize("name", ["er-dense", "lfr", "clique"])
    def test_estimates_stay_inside_bracket(self, name):
        graph = FIXTURES[name]()
        sp = SketchParams(bits=128, k=8, seed=5)  # force estimation
        sk = build_sketches(graph, sp)
        src, dst = _arc_endpoints(graph)
        arcs = np.arange(graph.num_arcs)
        est = estimate_overlaps(sk, graph, arcs, src=src)
        lb, ub = overlap_bounds(sk, src, dst)
        assert np.all(est >= lb + 2)
        assert np.all(est <= ub + 2)

    def test_build_is_deterministic(self):
        graph = FIXTURES["er-dense"]()
        sp = SketchParams()
        a, b = build_sketches(graph, sp), build_sketches(graph, sp)
        np.testing.assert_array_equal(a.bloom, b.bloom)
        np.testing.assert_array_equal(a.kmv, b.kmv)


class TestConservativeSoundness:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_definite_decisions_match_exact_predicate(self, name):
        graph = FIXTURES[name]()
        if graph.num_arcs == 0:
            pytest.skip("no arcs")
        src, dst = _arc_endpoints(graph)
        exact_closed = (
            BatchIntersector(graph).arc_counts(np.arange(graph.num_arcs)) + 2
        )
        for params in (ScanParams(0.25, 2), ScanParams(0.5, 4)):
            mcn = min_cn_arcs(graph, params.eps_fraction)
            truth = np.where(exact_closed >= mcn, SIM, NSIM)
            for sp in SKETCH_VARIANTS:
                assert sp.conservative
                sk = build_sketches(graph, sp)
                states = classify_arcs(
                    sk, graph, np.arange(graph.num_arcs), mcn, src=src
                )
                decided = states != UNKNOWN
                np.testing.assert_array_equal(
                    states[decided], truth[decided]
                )

    def test_most_arcs_decided_on_sparse_graph(self):
        # The gate must actually prune: on an ER graph at default params
        # the vast majority of arcs is certified without exact fallback.
        graph = FIXTURES["er-sparse"]()
        sk = build_sketches(graph, SketchParams(gate=0))
        mcn = min_cn_arcs(graph, ScanParams(0.5, 2).eps_fraction)
        states = classify_arcs(
            sk, graph, np.arange(graph.num_arcs), mcn
        )
        assert np.mean(states != UNKNOWN) > 0.9


#: (algorithm, exec_mode); pscan and anyscan ignore exec_mode, gsindex is
#: index-based — all still honour the sketch pre-pass.
SKETCH_ALGOS = [
    ("pscan", ExecMode.SCALAR),
    ("scanxp", ExecMode.SCALAR),
    ("scanxp", ExecMode.BATCHED),
    ("ppscan", ExecMode.SCALAR),
    ("ppscan", ExecMode.BATCHED),
    ("anyscan", ExecMode.SCALAR),
    ("gsindex", ExecMode.SCALAR),
]

CONFORMANCE_GRID = [ScanParams(0.25, 2), ScanParams(0.5, 4)]


class TestConservativeConformance:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_sketch_kernel_is_bit_identical(self, name):
        graph = FIXTURES[name]()
        warm = SimilarityStore()  # shared across the whole grid
        for params in CONFORMANCE_GRID:
            reference = api.cluster(graph, params, algorithm="scan")
            ref_labels = reference.classify(graph)
            for algorithm, mode in SKETCH_ALGOS:
                for cache in (None, warm):
                    result = api.cluster(
                        graph,
                        params,
                        algorithm=algorithm,
                        options=ExecutionOptions(
                            exec_mode=mode,
                            kernel=Kernel.SKETCH,
                            cache=cache,
                        ),
                    )
                    assert_same_clustering(reference, result)
                    np.testing.assert_array_equal(
                        ref_labels, result.classify(graph)
                    )

    def test_custom_bands_stay_exact_at_error_zero(self):
        graph = FIXTURES["lfr"]()
        params = ScanParams(0.5, 4)
        reference = api.cluster(graph, params)
        for sp in SKETCH_VARIANTS:
            result = api.cluster(
                graph,
                params,
                options=ExecutionOptions(kernel=Kernel.SKETCH, sketch=sp),
            )
            assert_same_clustering(reference, result)


class TestAggressiveBand:
    def test_quality_stays_high_under_loose_band(self):
        graph = FIXTURES["lfr"]()
        params = ScanParams(0.5, 4)
        exact = api.cluster(graph, params)
        approx = api.cluster(
            graph,
            params,
            options=ExecutionOptions(
                kernel=Kernel.SKETCH, sketch=SketchParams(error=0.2, gate=0)
            ),
        )
        ari = adjusted_rand_index(
            primary_labels(exact).tolist(),
            primary_labels(approx).tolist(),
            noise=-1,
        )
        assert ari >= 0.95

    def test_aggressive_is_deterministic(self):
        graph = FIXTURES["er-dense"]()
        params = ScanParams(0.5, 3)
        opts = ExecutionOptions(
            kernel=Kernel.SKETCH, sketch=SketchParams(error=0.1, gate=0)
        )
        a = api.cluster(graph, params, options=opts)
        b = api.cluster(graph, params, options=opts)
        assert_same_clustering(a, b)


class TestEngineIntegration:
    def test_store_memoizes_sketches(self):
        graph = FIXTURES["er-sparse"]()
        store = SimilarityStore()
        sp = SketchParams()
        opts = ExecutionOptions(
            kernel=Kernel.SKETCH, sketch=sp, cache=store
        )
        api.cluster(graph, ScanParams(0.5, 2), options=opts)
        memoized = store.sketches_for(graph, sp)
        assert memoized is not None
        np.testing.assert_array_equal(
            memoized.kmv, build_sketches(graph, sp).kmv
        )
        # A second run at new params reuses the memoized object as-is.
        api.cluster(graph, ScanParams(0.25, 2), options=opts)
        assert store.sketches_for(graph, sp) is memoized

    def test_sketch_decisions_never_enter_the_store(self):
        graph = FIXTURES["er-dense"]()
        store = SimilarityStore()
        api.cluster(
            graph,
            ScanParams(0.5, 3),
            options=ExecutionOptions(kernel=Kernel.SKETCH, cache=store),
        )
        entry = store.entry_for(graph)
        if entry is None or not entry.covered:
            return  # everything was sketch-decided: nothing recorded
        covered = np.flatnonzero(entry.coverage)
        exact = BatchIntersector(graph).arc_counts(covered) + 2
        np.testing.assert_array_equal(entry.overlap[covered], exact)

    def test_options_validation(self):
        with pytest.raises(TypeError):
            ExecutionOptions(sketch="b256")
        assert (
            ExecutionOptions(kernel=Kernel.SKETCH).effective_sketch()
            == SketchParams()
        )
        assert ExecutionOptions().effective_sketch() is None

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SketchParams(bits=96)  # not a power of two
        with pytest.raises(ValueError):
            SketchParams(error=1.0)
        with pytest.raises(ValueError):
            SketchParams(k=0)
        with pytest.raises(ValueError):
            SketchParams(gate=-1)
        assert SketchParams(bits=512).effective_gate == 64  # 8 · words
