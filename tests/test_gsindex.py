"""GS*-Index: construction, exact queries, similarity ordering."""

from fractions import Fraction

import numpy as np
import pytest

from repro.cache import SimilarityStore
from repro.core import GSIndex, brute_force_scan, ppscan
from repro.core.context import reverse_arc_index
from repro.core.gsindex import descending_order
from repro.intersect import OpCounter, merge_count
from repro.types import CORE as CORE_ROLE
from repro.graph import complete_graph, empty_graph, from_edges, star_graph
from repro.graph.generators import chung_lu, erdos_renyi, powerlaw_weights
from repro.types import ScanParams


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(70, 320, seed=13)


@pytest.fixture(scope="module")
def index(graph):
    return GSIndex(graph)


class TestConstruction:
    def test_one_intersection_per_edge(self, graph, index):
        assert (
            index.construction_record.compsim_invocations == graph.num_edges
        )

    def test_construction_record_shape(self, index):
        record = index.construction_record
        assert record.stages[0].name == "index construction"
        assert record.wall_seconds > 0

    def test_neighbor_order_descending(self, graph, index):
        for u in range(graph.num_vertices):
            order = index._neighbor_order[u]
            sims = [
                index._sim_num[a] / index._sim_den[a] for a in order
            ]
            assert sims == sorted(sims, reverse=True)

    def test_edge_similarity_value(self):
        g = complete_graph(3)
        index = GSIndex(g)
        # Triangle: sigma = 3 / 3 = 1.
        assert index.edge_similarity(0, 1) == pytest.approx(1.0)


class TestQueries:
    @pytest.mark.parametrize("eps", [0.2, 0.45, 0.7, 1.0])
    @pytest.mark.parametrize("mu", [1, 2, 4])
    def test_exact_vs_brute_force(self, graph, index, eps, mu):
        params = ScanParams(eps, mu)
        reference = brute_force_scan(graph, params)
        result = index.query(params)
        assert reference.same_clustering(result)

    def test_one_index_many_params(self, index, graph):
        """The index answers arbitrary (eps, mu) without rebuilding."""
        for eps in (0.3, 0.6, 0.9):
            for mu in (1, 3):
                params = ScanParams(eps, mu)
                assert index.query(params).same_clustering(
                    ppscan(graph, params)
                )

    def test_is_core_predicate(self, graph, index):
        params = ScanParams(0.4, 2)
        result = ppscan(graph, params)
        from repro.types import CORE

        for u in range(graph.num_vertices):
            assert index.is_core(u, params) == (result.roles[u] == CORE)

    def test_boundary_exactness(self):
        """Query at an exact similarity boundary matches the online
        algorithms (the reason similarities are stored as rationals)."""
        # Triangle + pendant: sigma values hit exact rational boundaries.
        g = from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        index = GSIndex(g)
        for eps in (0.5, 0.75, 1.0):
            for mu in (1, 2):
                params = ScanParams(eps, mu)
                assert index.query(params).same_clustering(
                    brute_force_scan(g, params)
                )

    def test_star_graph(self):
        g = star_graph(6)
        index = GSIndex(g)
        params = ScanParams(0.9, 2)
        assert index.query(params).num_clusters == 0

    def test_query_record(self, index):
        result = index.query(ScanParams(0.4, 2))
        assert result.record.stages[0].name == "index query"
        assert result.record.total().arcs > 0

    def test_powerlaw_graph(self):
        g = chung_lu(powerlaw_weights(150, 2.3), 900, seed=3)
        index = GSIndex(g)
        params = ScanParams(0.35, 3)
        assert index.query(params).same_clustering(ppscan(g, params))


class TestPersistence:
    def test_roundtrip_queries(self, graph, index, tmp_path):
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = GSIndex.load(path, graph)
        assert loaded._neighbor_order == index._neighbor_order
        assert loaded._core_orders == index._core_orders
        for eps in (0.3, 0.7):
            params = ScanParams(eps, 2)
            assert loaded.query(params).same_clustering(index.query(params))
            assert loaded.cores(params) == index.cores(params)

    def test_fingerprint_mismatch_rejected(self, graph, index, tmp_path):
        path = tmp_path / "index.npz"
        index.save(path)
        other = erdos_renyi(graph.num_vertices, graph.num_edges, seed=999)
        with pytest.raises(ValueError, match="fingerprint"):
            GSIndex.load(path, other)

    def test_loaded_index_has_empty_construction_record(
        self, graph, index, tmp_path
    ):
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = GSIndex.load(path, graph)
        assert loaded.construction_record.stages == []


class TestCoreOrders:
    @pytest.mark.parametrize("eps", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("mu", [1, 2, 4])
    def test_cores_match_roles(self, graph, index, eps, mu):
        params = ScanParams(eps, mu)
        expected = sorted(
            np.flatnonzero(ppscan(graph, params).roles == CORE_ROLE).tolist()
        )
        assert index.cores(params) == expected

    def test_large_mu_fallback_path(self, graph, index):
        """µ beyond the materialized core orders uses the per-vertex
        neighbor-order check and still agrees."""
        params = ScanParams(0.2, 100)
        expected = sorted(
            np.flatnonzero(ppscan(graph, params).roles == CORE_ROLE).tolist()
        )
        assert index.cores(params) == expected

    def test_core_orders_descending(self, index):
        for k in range(1, len(index._core_orders)):
            order = index._core_orders[k]
            keys = []
            for u in order:
                arc = index._neighbor_order[u][k - 1]
                keys.append(index._sim_num[arc] / index._sim_den[arc])
            assert keys == sorted(keys, reverse=True)


def per_edge_build(graph, store=None):
    """The per-edge GS*-Index construction the bulk build replaced.

    One ``merge_count`` per ``u < v`` edge, then Python sorts on float
    keys with exact insertion-sort repair for every neighbor order and
    core order.  Kept as the bit-identity oracle for :class:`GSIndex`.
    """
    n = graph.num_vertices
    counter = OpCounter()
    off = graph.offsets.tolist()
    dst = graph.dst.tolist()
    deg = graph.degrees.tolist()
    adj = [dst[off[u] : off[u + 1]] for u in range(n)]
    rev = reverse_arc_index(graph).tolist()
    entry = store.entry_for(graph) if store is not None else None
    cov = entry.coverage.tolist() if entry is not None else None
    cached = entry.overlap.tolist() if entry is not None else None
    missed_arcs, missed_over, hits = [], [], 0
    overlap = [0] * graph.num_arcs
    arcs_scanned = 0
    for u in range(n):
        for arc in range(off[u], off[u + 1]):
            v = dst[arc]
            if u < v:
                arcs_scanned += 1
                if cov is not None and cov[arc]:
                    common = cached[arc]
                    hits += 1
                else:
                    common = merge_count(adj[u], adj[v], counter) + 2
                    if cov is not None:
                        missed_arcs.append(arc)
                        missed_over.append(common)
                overlap[arc] = common
                overlap[rev[arc]] = common
    if entry is not None:
        entry.hits += hits
        if missed_arcs:
            entry.record(np.asarray(missed_arcs), np.asarray(missed_over))
            entry.misses += len(missed_arcs)

    def repair(items, key_num, key_den):
        for i in range(1, len(items)):
            j = i
            while j > 0:
                a, b = key_num(items[j - 1]), key_num(items[j])
                c, d = key_den(items[j - 1]), key_den(items[j])
                if a * d < b * c:
                    items[j - 1], items[j] = items[j], items[j - 1]
                    j -= 1
                else:
                    break
        return items

    sim_num = [o * o for o in overlap]
    sim_den = [(deg[u] + 1) * (deg[dst[a]] + 1)
               for u in range(n) for a in range(off[u], off[u + 1])]
    neighbor_order = []
    for u in range(n):
        arcs = sorted(range(off[u], off[u + 1]),
                      key=lambda a: -(sim_num[a] / sim_den[a]))
        neighbor_order.append(
            repair(arcs, sim_num.__getitem__, sim_den.__getitem__)
        )
    core_orders = [[]]
    for k in range(1, min(max(deg, default=0), 64) + 1):
        kth = {u: neighbor_order[u][k - 1] for u in range(n) if deg[u] >= k}
        cands = sorted(kth, key=lambda u: -(sim_num[kth[u]] / sim_den[kth[u]]))
        core_orders.append(repair(
            cands,
            lambda u: sim_num[kth[u]],
            lambda u: sim_den[kth[u]],
        ))
    return {
        "overlap": overlap,
        "sim_num": sim_num,
        "sim_den": sim_den,
        "neighbor_order": neighbor_order,
        "core_orders": core_orders,
        "counts": (counter.invocations, counter.scalar_cmp,
                   arcs_scanned + graph.num_arcs),
    }


BIT_IDENTITY_GRAPHS = {
    "empty": lambda: empty_graph(0),
    "isolated": lambda: empty_graph(7),
    "star": lambda: star_graph(40),
    "complete": lambda: complete_graph(12),
    "er": lambda: erdos_renyi(70, 320, seed=13),
    "chung_lu_hubs": lambda: chung_lu(powerlaw_weights(400, 2.05), 2400, seed=3),
}


def _store(graph, kind):
    """No store, a cold store, or one warmed on every third ``u < v`` arc."""
    if kind == "none":
        return None
    store = SimilarityStore()
    if kind == "warm":
        arcs = np.flatnonzero(graph.arc_source() < graph.dst)[::3]
        exact = per_edge_build(graph)["overlap"]
        store.entry_for(graph).record(arcs, np.asarray(exact)[arcs])
    return store


class TestBulkConstructionBitIdentity:
    @pytest.mark.parametrize("store_kind", ["none", "cold", "warm"])
    @pytest.mark.parametrize("name", sorted(BIT_IDENTITY_GRAPHS))
    def test_matches_per_edge_construction(self, name, store_kind):
        graph = BIT_IDENTITY_GRAPHS[name]()
        oracle_store = _store(graph, store_kind)
        bulk_store = _store(graph, store_kind)
        expected = per_edge_build(graph, oracle_store)
        index = GSIndex(graph, store=bulk_store)
        assert index._overlap == expected["overlap"]
        assert index._sim_num == expected["sim_num"]
        assert index._sim_den == expected["sim_den"]
        assert index._neighbor_order == expected["neighbor_order"]
        assert index._core_orders == expected["core_orders"]
        cost = index.construction_record.stages[0].tasks[0]
        assert (cost.compsims, cost.scalar_cmp, cost.arcs) == expected["counts"]
        if store_kind != "none":
            want = oracle_store.entry_for(graph)
            got = bulk_store.entry_for(graph)
            assert (got.hits, got.misses) == (want.hits, want.misses)
            assert np.array_equal(got.coverage, want.coverage)
            assert np.array_equal(got.overlap, want.overlap)

    def test_warm_store_counts(self):
        graph = BIT_IDENTITY_GRAPHS["er"]()
        store = _store(graph, "warm")
        index = GSIndex(graph, store=store)
        entry = store.entry_for(graph)
        warmed = len(range(0, graph.num_edges, 3))
        assert (entry.hits, entry.misses) == (warmed, graph.num_edges - warmed)
        assert entry.coverage.all()
        cost = index.construction_record.stages[0].tasks[0]
        assert cost.compsims == graph.num_edges - warmed


def _exact_oracle(num, den, groups=None):
    groups = [0] * len(num) if groups is None else groups
    return sorted(
        range(len(num)),
        key=lambda i: (groups[i], -Fraction(int(num[i]), int(den[i])), i),
    )


class TestDescendingOrder:
    """The exact tie repair, reached directly with synthetic keys (real
    overlaps on the stand-ins never produce a float-colliding pair)."""

    def test_float_collision_is_repaired_in_int64(self):
        # 2147483646/2147483645 > 2147483647/2147483646 exactly, but the
        # two float64 quotients are equal; cross products fit int64.
        num = np.array([5, 2147483647, 2147483646, 1, 2], dtype=np.int64)
        den = np.array([3, 2147483646, 2147483645, 2, 4], dtype=np.int64)
        assert num[1] / den[1] == num[2] / den[2]
        order = descending_order(num, den)
        assert order.tolist() == [0, 2, 1, 3, 4] == _exact_oracle(num, den)

    def test_repair_stays_inside_its_group(self):
        num = np.array([2147483647, 2147483646, 1, 7, 2147483647, 2147483646])
        den = np.array([2147483646, 2147483645, 1, 9, 2147483646, 2147483645])
        groups = np.array([0, 0, 0, 1, 2, 2])
        order = descending_order(num, den, groups)
        assert order.tolist() == [1, 0, 2, 3, 5, 4]
        assert order.tolist() == _exact_oracle(num, den, groups)

    def test_int64_overflow_uses_python_ints(self):
        k = 2**40  # cross products near 2**80
        num = np.array([k + 2, k + 1, 3], dtype=np.int64)
        den = np.array([k + 1, k, 3], dtype=np.int64)
        assert num[0] / den[0] == num[1] / den[1]
        assert descending_order(num, den).tolist() == [1, 0, 2]

    def test_int64_wraparound_does_not_hide_a_tie(self):
        # Cross products differ by exactly 2**64, so int64 products would
        # wrap to equal and skip the repair.
        num = np.array([2**62, 2**62 + 4], dtype=np.int64)
        den = np.array([2**62, 2**62], dtype=np.int64)
        assert descending_order(num, den).tolist() == [1, 0]

    def test_beyond_2_53_quotients_are_correctly_rounded(self):
        # float64(num) / float64(den) ranks the first item strictly above
        # the second; the exact values, and their correctly rounded
        # quotients, rank it below.
        num = np.array([2874911972168439552, 2237338421637783], dtype=np.int64)
        den = np.array([5786988844138711514, 2**52], dtype=np.int64)
        assert float(num[0]) / float(den[0]) > float(num[1]) / float(den[1])
        assert descending_order(num, den).tolist() == [1, 0]

    def test_beyond_2_53_uses_exact_quotients(self):
        # float64(2**53 + 1) rounds to 2**53, so a naive quotient ranks
        # the second item above 1; the exact value is only just above 1.
        num = np.array([1, 2**53 + 2, 2**54 + 2, 2**53 + 1], dtype=np.int64)
        den = np.array([1, 2**53 + 1, 2**54 + 2, 2**53], dtype=np.int64)
        order = descending_order(num, den)
        assert order.tolist() == _exact_oracle(num, den) == [3, 1, 0, 2]

    def test_random_keys_match_fraction_sort(self):
        rng = np.random.default_rng(7)
        num = rng.integers(1, 40, 300) ** 2
        den = rng.integers(1, 60, 300) * rng.integers(1, 60, 300)
        groups = np.sort(rng.integers(0, 12, 300))
        assert descending_order(num, den, groups).tolist() == _exact_oracle(
            num, den, groups
        )

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        assert descending_order(empty, empty).size == 0
