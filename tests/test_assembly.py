"""The array connectivity pass and the shared cluster assembly.

``component_labels`` is checked against a union-find reference on
arbitrary edge arrays and adversarial id orders; ``assemble_clustering``
against ``brute_force_scan`` and a union-find merge count.  The
cross-site test runs every path that ends in the assembly — GS*-Index,
DynamicGS*-Index, the streaming engine after a batch and the fast exact
mode — at an ε exactly on a similarity boundary.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GSIndex, brute_force_scan, verify_clustering
from repro.core.dynamic_index import DynamicGSIndex
from repro.core.fastscan import fast_structural_clustering
from repro.core.result import ClusteringResult, assemble_clustering
from repro.graph import component_labels, connected_component_labels
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import chung_lu, erdos_renyi, powerlaw_weights
from repro.similarity.threshold import min_cn_threshold
from repro.streaming import StreamingEngine, random_edit_script
from repro.types import CORE, NONCORE, ScanParams
from repro.unionfind import UnionFind

SLOW = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def reference_labels(n, u, v):
    """Smallest id per component, via the sequential union-find."""
    uf = UnionFind(n)
    for a, b in zip(u, v):
        uf.union(int(a), int(b))
    smallest = {}
    for x in range(n):
        smallest.setdefault(uf.find(x), x)
    return [smallest[uf.find(x)] for x in range(n)]


def similar_arcs(graph, params):
    """Every ε-similar arc ``(u, v)``, from set intersections."""
    nbrs = [set(graph.neighbors(u).tolist()) for u in range(graph.num_vertices)]
    deg = graph.degrees
    eps = params.eps_fraction
    return [
        (u, v)
        for u in range(graph.num_vertices)
        for v in sorted(nbrs[u])
        if len(nbrs[u] & nbrs[v]) + 2
        >= min_cn_threshold(eps, int(deg[u]), int(deg[v]))
    ]


def union_count(roles, arcs):
    """Successful unions of a union-find over the core → core arcs."""
    uf = UnionFind(roles.size)
    for u, v in arcs:
        if roles[u] == CORE and roles[v] == CORE:
            uf.union(u, v)
    return uf.num_unions


@st.composite
def random_graph(draw, max_n=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=min(n * (n - 1) // 2, 3 * n)))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    if draw(st.booleans()):
        return erdos_renyi(n, m, seed=seed)
    return chung_lu(powerlaw_weights(n, 2.3), m, seed=seed)


def boundary_eps(graph):
    """An ε that some arc's similarity equals exactly, else 1/2.

    An edge whose endpoints share degree ``d`` has σ = overlap / (d + 1),
    a rational the ε fraction represents exactly.
    """
    src, dst = graph.arc_source(), graph.dst
    deg = graph.degrees
    for a in np.flatnonzero(deg[src] == deg[dst]).tolist():
        u, v = int(src[a]), int(dst[a])
        overlap = np.intersect1d(graph.neighbors(u), graph.neighbors(v)).size + 2
        return float(Fraction(overlap, int(deg[u]) + 1))
    return 0.5


class TestComponentLabels:
    @given(
        st.integers(min_value=0, max_value=40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(0, max(n - 1, 0)),
                        st.integers(0, max(n - 1, 0)),
                    ),
                    max_size=0 if n == 0 else 80,
                ),
            )
        )
    )
    def test_matches_union_find(self, case):
        n, edges = case
        u = np.array([a for a, _ in edges], dtype=np.int64)
        v = np.array([b for _, b in edges], dtype=np.int64)
        assert component_labels(n, u, v).tolist() == reference_labels(n, u, v)

    @pytest.mark.parametrize(
        "n, edges",
        [
            (0, []),
            (4, []),
            (6, [(i, i - 1) for i in range(5, 0, -1)]),  # descending path
            (7, [(6, i) for i in range(6)]),  # hub has the largest id
            (8, [(7, 0), (0, 6), (6, 1), (1, 5), (5, 2), (2, 4), (4, 3)]),
            (5, [(3, 3), (4, 2)]),  # self loop, one pair
        ],
        ids=["n0", "isolated", "descending-path", "max-hub-star",
             "zigzag-path", "self-loop"],
    )
    def test_adversarial_orders(self, n, edges):
        u = np.array([a for a, _ in edges], dtype=np.int64)
        v = np.array([b for _, b in edges], dtype=np.int64)
        assert component_labels(n, u, v).tolist() == reference_labels(n, u, v)

    def test_shuffled_path(self):
        perm = np.random.default_rng(5).permutation(200)
        labels = component_labels(200, perm[:-1], perm[1:])
        assert labels.tolist() == [0] * 200

    @SLOW
    @given(random_graph())
    def test_graph_form(self, graph):
        labels = connected_component_labels(graph)
        assert labels.tolist() == reference_labels(
            graph.num_vertices, graph.arc_source(), graph.dst
        )


def assemble(roles, arcs, params=ScanParams(0.5, 2)):
    roles = np.array(roles, dtype=np.int8)
    src = np.array([u for u, _ in arcs], dtype=np.int64)
    dst = np.array([v for _, v in arcs], dtype=np.int64)
    return assemble_clustering("test", params, roles, src, dst)


class TestAssembly:
    @SLOW
    @given(random_graph(), st.integers(min_value=1, max_value=4))
    def test_matches_brute_force(self, graph, mu):
        params = ScanParams(boundary_eps(graph), mu)
        want = brute_force_scan(graph, params)
        arcs = similar_arcs(graph, params)
        leaving = [(u, v) for u, v in arcs if want.roles[u] == CORE]
        result, merges = assemble(want.roles, leaving, params)
        assert result.same_clustering(want)
        assert merges == union_count(want.roles, arcs)

    def test_cores_without_core_arcs(self):
        C, N = CORE, NONCORE
        result, merges = assemble([C, N, C, N], [(0, 1), (2, 3), (2, 1)])
        assert result.core_labels.tolist() == [0, -1, 2, -1]
        assert result.noncore_pairs.tolist() == [[0, 1], [2, 1], [2, 3]]
        assert merges == 0

    def test_no_cores(self):
        result, merges = assemble([NONCORE] * 3, [])
        assert result.core_labels.tolist() == [-1, -1, -1]
        assert result.noncore_pairs.size == 0 and merges == 0

    def test_empty_graph(self):
        result, merges = assemble([], [])
        assert result.num_vertices == 0 and merges == 0

    def test_descending_core_path(self):
        arcs = [(i, i - 1) for i in range(5, 0, -1)]
        arcs += [(b, a) for a, b in arcs] + [(5, 6)]
        result, merges = assemble([CORE] * 6 + [NONCORE], arcs)
        assert result.core_labels.tolist() == [0] * 6 + [-1]
        assert result.noncore_pairs.tolist() == [[0, 6]]
        assert merges == 5

    def test_star_with_largest_hub(self):
        arcs = [(4, i) for i in range(4)] + [(i, 4) for i in range(4)]
        result, merges = assemble([CORE] * 5, arcs)
        assert result.core_labels.tolist() == [0] * 5
        assert merges == 4


class TestPairCanonicalForm:
    """``ClusteringResult`` sorts and dedups its non-core pairs exactly as
    ``np.unique(pairs, axis=0)`` would."""

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
            )
            | st.tuples(st.integers(0, 3), st.integers(0, 3)),
            max_size=40,
        )
    )
    def test_equals_unique_rows(self, rows):
        pairs = np.array(rows, dtype=np.int64).reshape(-1, 2)
        result = ClusteringResult(
            "test", ScanParams(0.5, 2), [], [], pairs.copy()
        )
        want = np.unique(pairs, axis=0) if pairs.size else pairs
        assert result.noncore_pairs.dtype == np.int64
        assert result.noncore_pairs.shape == want.shape
        assert np.array_equal(result.noncore_pairs, want)

    def test_duplicates_collapse(self):
        pairs = [[5, 1], [2, 9], [5, 1], [2, 3], [2, 9]]
        result = ClusteringResult("test", ScanParams(0.5, 2), [], [], pairs)
        assert result.noncore_pairs.tolist() == [[2, 3], [2, 9], [5, 1]]

    def test_empty(self):
        result = ClusteringResult("test", ScanParams(0.5, 2), [], [], [])
        assert result.noncore_pairs.shape == (0, 2)


class TestEverySite:
    """Every path ending in the assembly equals brute force at a
    boundary ε, and charges one atomic per union-find merge."""

    @SLOW
    @given(
        random_graph(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_sites_match_brute_force(self, graph, mu, seed):
        params = ScanParams(boundary_eps(graph), mu)
        engine = StreamingEngine(graph)
        engine.query(params)
        script = random_edit_script(
            graph, kind="mixed", batches=1, batch_size=6, seed=seed
        )
        engine.apply(script.batches[0])
        after = engine.snapshot
        sites = [
            (graph, GSIndex(graph).query(params), "GS*-Index (query)",
             "index query"),
            (graph, DynamicGSIndex(DynamicGraph.from_csr(graph)).query(params),
             "DynamicGS*-Index (query)", "index query"),
            (after, engine.query(params), "StreamingEngine (recluster)",
             "scoped recluster"),
            (graph, fast_structural_clustering(graph, params), "fast-exact",
             "bulk clustering"),
        ]
        for g, result, algorithm, stage in sites:
            want = brute_force_scan(g, params)
            assert result.same_clustering(want), algorithm
            verify_clustering(g, result)
            assert result.record.algorithm == algorithm
            assert [s.name for s in result.record.stages] == [stage]
            merges = union_count(want.roles, similar_arcs(g, params))
            assert result.record.total().atomics == merges, algorithm
