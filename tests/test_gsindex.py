"""GS*-Index: construction, exact queries, similarity ordering."""

import gc
import tracemalloc
from fractions import Fraction
from itertools import accumulate, chain

import numpy as np
import pytest

from repro.cache import SimilarityStore
from repro.core import GSIndex, brute_force_scan, ppscan
from repro.core.context import reverse_arc_index
from repro.core.fastscan import fast_structural_clustering
from repro.core.gsindex import descending_order
from repro.core.verify import verify_clustering
from repro.intersect import OpCounter, merge_count
from repro.types import CORE as CORE_ROLE
from repro.graph import complete_graph, empty_graph, from_edges, star_graph
from repro.graph.generators import (
    chung_lu,
    erdos_renyi,
    powerlaw_weights,
    real_world_standin,
)
from repro.types import ScanParams
from tests.test_dynamic import EPS_SQUARED


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
        off = graph.offsets
        for u in range(graph.num_vertices):
            order = index.neighbor_order[off[u] : off[u + 1]]
            assert sorted(order.tolist()) == list(range(off[u], off[u + 1]))
            sims = (index.sim_num[order] / index.sim_den[order]).tolist()
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
        for name in ("overlap", "sim_num", "sim_den", "neighbor_order",
                     "core_flat", "core_offsets"):
            assert np.array_equal(getattr(loaded, name), getattr(index, name))
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


def _write_index_file(path, graph, drop=(), **arrays):
    """An index file for ``graph`` with a matching fingerprint, the exact
    overlaps and the given arrays replaced, added or (``drop``) left out."""
    data = {
        "approximate": np.array([0], dtype=np.int64),
        "fingerprint": GSIndex._fingerprint(graph),
        "overlap": GSIndex(graph).overlap,
    }
    data.update(arrays)
    np.savez(path, **{k: v for k, v in data.items() if k not in drop})
    return path


def _edge_arcs(graph, u, v):
    return [graph.edge_offset(u, v), graph.edge_offset(v, u)]


class TestLoadRejectsMalformed:
    """A file whose fingerprint matches but whose contents no index of
    the graph can hold raises ``ValueError`` on load."""

    def test_float_overlap(self, graph, index, tmp_path):
        path = _write_index_file(
            tmp_path / "i.npz", graph, overlap=index.overlap.astype(np.float64)
        )
        with pytest.raises(ValueError, match="int64"):
            GSIndex.load(path, graph)

    def test_truncated_overlap(self, graph, index, tmp_path):
        path = _write_index_file(
            tmp_path / "i.npz", graph, overlap=index.overlap[:-1]
        )
        with pytest.raises(ValueError, match="shape"):
            GSIndex.load(path, graph)

    def test_arcs_of_one_edge_disagree(self, graph, index, tmp_path):
        overlap = index.overlap.copy()
        arc = int(np.flatnonzero(overlap > 2)[0])
        overlap[arc] -= 1  # still inside the bounds
        path = _write_index_file(tmp_path / "i.npz", graph, overlap=overlap)
        with pytest.raises(ValueError, match="two arcs"):
            GSIndex.load(path, graph)

    def test_overlap_below_two(self, graph, index, tmp_path):
        overlap = index.overlap.copy()
        overlap[_edge_arcs(graph, *map(int, graph.edge_list()[0]))] = 1
        path = _write_index_file(tmp_path / "i.npz", graph, overlap=overlap)
        with pytest.raises(ValueError, match="outside"):
            GSIndex.load(path, graph)

    def test_overlap_above_smaller_degree_plus_one(self, graph, index, tmp_path):
        u, v = map(int, graph.edge_list()[0])
        overlap = index.overlap.copy()
        overlap[_edge_arcs(graph, u, v)] = min(graph.degree(u), graph.degree(v)) + 2
        path = _write_index_file(tmp_path / "i.npz", graph, overlap=overlap)
        with pytest.raises(ValueError, match="outside"):
            GSIndex.load(path, graph)

    def test_approximate_archive(self, graph, index, tmp_path):
        # Overlaps flagged as estimates are refused even when every value
        # lies inside the exact bounds.
        path = _write_index_file(
            tmp_path / "i.npz", graph, approximate=np.array([1], dtype=np.int64)
        )
        with pytest.raises(ValueError, match="approximate flag is set"):
            GSIndex.load(path, graph)
        # Flag 0, or no flag at all, loads as an exact index.
        for name, drop in (("zero.npz", ()), ("none.npz", ("approximate",))):
            path = _write_index_file(tmp_path / name, graph, drop=drop)
            assert np.array_equal(
                GSIndex.load(path, graph).overlap, index.overlap
            )

    def test_bad_approximate_flag(self, graph, tmp_path):
        path = _write_index_file(
            tmp_path / "i.npz", graph, approximate=np.array([2])
        )
        with pytest.raises(ValueError, match="approximate"):
            GSIndex.load(path, graph)

    def test_missing_overlap(self, graph, tmp_path):
        path = _write_index_file(tmp_path / "i.npz", graph, drop=("overlap",))
        with pytest.raises(ValueError, match="overlap"):
            GSIndex.load(path, graph)

    def test_not_an_npz_file(self, graph, tmp_path):
        path = tmp_path / "i.npz"
        path.write_bytes(b"not an index")
        with pytest.raises(ValueError):
            GSIndex.load(path, graph)

    def test_stale_order_arrays_are_ignored(self, graph, index, tmp_path):
        """Files in the earlier format also held the orders and keys.
        Load rebuilds them from the overlaps, so an out-of-range order
        entry, a truncated key array or a negative core id in such a
        file changes no answer."""
        path = _write_index_file(
            tmp_path / "i.npz",
            graph,
            order_flat=np.full(graph.num_arcs, graph.num_arcs + 5),
            order_offsets=graph.offsets,
            sim_num=index.sim_num[:-3],
            sim_den=index.sim_den,
            core_flat=np.full(4, -1),
            core_offsets=np.array([0, 0, 4]),
        )
        loaded = GSIndex.load(path, graph)
        assert np.array_equal(loaded.neighbor_order, index.neighbor_order)
        assert np.array_equal(loaded.core_flat, index.core_flat)
        for params in (ScanParams(0.3, 2), ScanParams(0.6, 1)):
            assert loaded.query(params).same_clustering(index.query(params))


class TestArrayState:
    def test_no_python_list_state(self, index):
        assert not any(isinstance(v, list) for v in vars(index).values())

    def test_memory_bytes_is_exact(self):
        graph = real_world_standin("twitter", scale=0.25)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            index = GSIndex(graph)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        arrays = [v for v in vars(index).values() if isinstance(v, np.ndarray)]
        assert index.memory_bytes() == sum(a.nbytes for a in arrays)
        assert abs(index.memory_bytes() - kept) <= 0.15 * kept


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

    def test_core_orders_descending(self, graph, index):
        off = index.core_offsets
        for k in range(1, off.size - 1):
            order = index.core_flat[off[k] : off[k + 1]]
            assert sorted(order.tolist()) == np.flatnonzero(
                graph.degrees >= k
            ).tolist()
            arcs = index.neighbor_order[graph.offsets[order] + k - 1]
            keys = (index.sim_num[arcs] / index.sim_den[arcs]).tolist()
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
        assert index.overlap.tolist() == expected["overlap"]
        assert index.sim_num.tolist() == expected["sim_num"]
        assert index.sim_den.tolist() == expected["sim_den"]
        assert index.neighbor_order.tolist() == list(
            chain.from_iterable(expected["neighbor_order"])
        )
        assert index.core_flat.tolist() == list(
            chain.from_iterable(expected["core_orders"])
        )
        sizes = [len(order) for order in expected["core_orders"]]
        assert index.core_offsets.tolist() == [0, *accumulate(sizes)]
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


# ---------------------------------------------------------------------------
# Heavy-hub differential: the twitter stand-in's hubs against the fast path
# ---------------------------------------------------------------------------

#: Plain thresholds, then ε = 1/3, 2/3, 3/4 (with 0.5 above, the four
#: exact ε² boundaries of ``EPS_SQUARED``).
HEAVY_HUB_EPS = (0.1, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 1 / 3, 2 / 3, 3 / 4)
#: Crosses the 64 materialized core orders.
HEAVY_HUB_MUS = (1, 2, 3, 5, 11, 64, 65, 100)


def test_heavy_hub_eps_cover_rational_boundaries():
    squares = {ScanParams(eps, 1).eps_fraction ** 2 for eps in HEAVY_HUB_EPS}
    assert {Fraction(*eps) for eps in EPS_SQUARED} <= squares


@pytest.fixture(scope="module")
def hub_graph():
    return real_world_standin("twitter", scale=0.1)


@pytest.fixture(scope="module")
def hub_index(hub_graph):
    return GSIndex(hub_graph)


@pytest.fixture(scope="module")
def hub_overlaps(hub_graph):
    """Every arc's closed overlap from Python sets, not the bulk kernel."""
    g = hub_graph
    sets = [set(g.neighbors(u).tolist()) for u in range(g.num_vertices)]
    pairs = zip(g.arc_source().tolist(), g.dst.tolist())
    return np.array([len(sets[u] & sets[v]) + 2 for u, v in pairs], dtype=object)


@pytest.mark.parametrize("eps", HEAVY_HUB_EPS)
def test_heavy_hub_queries_match_fast_path(hub_graph, hub_index, hub_overlaps, eps):
    g = hub_graph
    src = g.arc_source()
    deg1 = (g.degrees + 1).astype(object)
    for mu in HEAVY_HUB_MUS:
        params = ScanParams(eps, mu)
        got = hub_index.query(params)
        want = fast_structural_clustering(g, params)
        for field in ("roles", "core_labels", "noncore_pairs"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        verify_clustering(g, got)
        frac = params.eps_fraction
        similar = (
            hub_overlaps**2 * frac.denominator**2
            >= frac.numerator**2 * deg1[src] * deg1[g.dst]
        ).astype(bool)
        leaving = np.count_nonzero(similar & (want.roles[src] == CORE_ROLE))
        cores = want.core_labels[want.roles == CORE_ROLE]
        total = got.record.total()
        assert total.arcs == g.num_vertices + leaving
        assert total.atomics == cores.size - np.unique(cores).size
