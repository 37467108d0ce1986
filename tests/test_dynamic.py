"""Dynamic graph and incrementally-maintained GS*-Index."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DynamicGSIndex, GSIndex, ppscan
from repro.core.dynamic_index import _overlap_closed
from repro.graph import (
    DynamicGraph,
    complete_graph,
    empty_graph,
    from_edges,
    star_graph,
)
from repro.graph.generators import chung_lu, erdos_renyi, powerlaw_weights
from repro.types import ScanParams


class TestDynamicGraph:
    def test_insert_and_query(self):
        g = DynamicGraph(4)
        assert g.insert_edge(0, 1)
        assert not g.insert_edge(1, 0)  # duplicate
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.num_edges == 1
        assert g.degree(0) == 1

    def test_remove(self):
        g = DynamicGraph(3)
        g.insert_edge(0, 1)
        assert g.remove_edge(1, 0)
        assert not g.remove_edge(0, 1)
        assert g.num_edges == 0

    def test_self_loop_rejected(self):
        g = DynamicGraph(3)
        with pytest.raises(ValueError):
            g.insert_edge(1, 1)

    def test_out_of_range_rejected(self):
        g = DynamicGraph(3)
        with pytest.raises(IndexError):
            g.insert_edge(0, 7)

    def test_add_vertex(self):
        g = DynamicGraph(2)
        vid = g.add_vertex()
        assert vid == 2
        g.insert_edge(0, 2)
        assert g.degree(2) == 1

    def test_neighbors_stay_sorted(self):
        g = DynamicGraph(6)
        for v in (4, 1, 5, 2):
            g.insert_edge(0, v)
        assert g.neighbors(0) == [1, 2, 4, 5]

    def test_snapshot_roundtrip(self):
        csr = erdos_renyi(30, 90, seed=4)
        dyn = DynamicGraph.from_csr(csr)
        snap = dyn.snapshot()
        assert np.array_equal(snap.offsets, csr.offsets)
        assert np.array_equal(snap.dst, csr.dst)

    def test_snapshot_after_mutation(self):
        dyn = DynamicGraph(4)
        dyn.insert_edge(0, 1)
        dyn.insert_edge(2, 3)
        dyn.remove_edge(0, 1)
        snap = dyn.snapshot()
        assert snap.num_edges == 1
        snap.validate()

    def test_snapshot_empty_graph(self):
        snap = DynamicGraph(0).snapshot()
        snap.validate()
        assert snap.num_vertices == 0 and snap.num_edges == 0

    def test_snapshot_all_isolated_vertices(self):
        # Regression guard: the old pair-list snapshot path reshaped an
        # empty float array when no vertex had any edges.
        snap = DynamicGraph(5).snapshot()
        snap.validate()
        assert snap.num_vertices == 5 and snap.num_edges == 0
        assert all(snap.degree(u) == 0 for u in range(5))

    def test_snapshot_after_draining_all_edges(self):
        dyn = DynamicGraph(4)
        dyn.insert_edge(0, 1)
        dyn.insert_edge(2, 3)
        dyn.remove_edge(0, 1)
        dyn.remove_edge(2, 3)
        snap = dyn.snapshot()
        snap.validate()
        assert snap.num_edges == 0

    def test_snapshot_matches_edge_array_builder(self):
        from repro.graph.builders import from_edge_array

        dyn = DynamicGraph.from_csr(erdos_renyi(25, 60, seed=11))
        dyn.insert_edge(0, 24)
        dyn.remove_edge(*map(int, dyn.snapshot().edge_list()[0]))
        snap = dyn.snapshot()
        rebuilt = from_edge_array(snap.edge_list(), snap.num_vertices)
        assert np.array_equal(snap.offsets, rebuilt.offsets)
        assert np.array_equal(snap.dst, rebuilt.dst)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(0, 11),
                st.integers(0, 11),
            ),
            max_size=40,
        )
    )
    def test_snapshot_invariants_under_random_edits(self, updates):
        dyn = DynamicGraph(12)
        edges: set[tuple[int, int]] = set()
        for insert, u, v in updates:
            if u == v:
                continue
            pair = (min(u, v), max(u, v))
            if insert:
                assert dyn.insert_edge(u, v) == (pair not in edges)
                edges.add(pair)
            else:
                assert dyn.remove_edge(u, v) == (pair in edges)
                edges.discard(pair)
        assert dyn.num_edges == len(edges)
        assert sum(dyn.degree(u) for u in range(12)) == 2 * len(edges)
        for u in range(12):
            nbrs = dyn.neighbors(u)
            assert nbrs == sorted(set(nbrs))
        snap = dyn.snapshot()
        snap.validate()
        assert snap.num_edges == len(edges)
        got = {tuple(sorted(map(int, e))) for e in snap.edge_list()}
        assert got == edges

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.booleans(),
                    st.integers(0, 39),
                    st.integers(0, 39),
                ),
                max_size=6,
            ),
            max_size=5,
        )
    )
    def test_patched_snapshot_matches_full_build(self, steps):
        # A snapshot after a few changed lists is patched from the
        # previous one; it must be byte-identical to a from-scratch build.
        from repro.graph.builders import from_edge_array

        start = erdos_renyi(40, 100, seed=2)
        dyn = DynamicGraph.from_csr(start)
        edges = {tuple(e) for e in start.edge_list().tolist()}
        for edits in steps:
            for insert, u, v in edits:
                if u == v:
                    continue
                if insert:
                    dyn.insert_edge(u, v)
                    edges.add((min(u, v), max(u, v)))
                else:
                    dyn.remove_edge(u, v)
                    edges.discard((min(u, v), max(u, v)))
            snap = dyn.snapshot()
            want = from_edge_array(
                np.array(sorted(edges), dtype=np.int64).reshape(-1, 2), 40
            )
            assert np.array_equal(snap.offsets, want.offsets)
            assert np.array_equal(snap.dst, want.dst)


def per_edge_seed(graph):
    """The per-edge overlap pass the bulk seeding replaced."""
    overlap = {}
    for u in range(graph.num_vertices):
        for v in graph.neighbors(u):
            if u < v:
                overlap[(u, v)] = _overlap_closed(
                    graph.neighbors(u), graph.neighbors(v)
                )
    return overlap


class TestDynamicIndex:
    @pytest.mark.parametrize(
        "csr",
        [
            empty_graph(0),
            empty_graph(5),
            star_graph(30),
            complete_graph(9),
            erdos_renyi(60, 260, seed=4),
            chung_lu(powerlaw_weights(300, 2.05), 1800, seed=3),
        ],
        ids=["empty", "isolated", "star", "complete", "er", "chung_lu_hubs"],
    )
    def test_bulk_seed_matches_per_edge_construction(self, csr):
        """Initial overlaps equal the per-edge pass, and initial orders
        equal what a full refresh of every vertex derives from them."""
        dyn = DynamicGraph.from_csr(csr)
        idx = DynamicGSIndex(dyn)
        assert list(idx._overlap.items()) == list(per_edge_seed(dyn).items())
        seeded = [list(order) for order in idx._order]
        idx._dirty.update(range(dyn.num_vertices))
        idx.refresh()
        assert idx._order == seeded

    def test_fresh_index_matches_static(self):
        csr = erdos_renyi(40, 150, seed=5)
        dyn_idx = DynamicGSIndex(DynamicGraph.from_csr(csr))
        static_idx = GSIndex(csr)
        for eps in (0.3, 0.6):
            params = ScanParams(eps, 2)
            assert dyn_idx.query(params).same_clustering(
                static_idx.query(params)
            )

    def test_insertion_updates_exactly(self):
        csr = erdos_renyi(30, 80, seed=6)
        dyn = DynamicGraph.from_csr(csr)
        idx = DynamicGSIndex(dyn)
        inserted = 0
        for u in range(0, 30, 3):
            v = (u + 7) % 30
            if u != v and idx.insert_edge(u, v):
                inserted += 1
        assert inserted > 0
        params = ScanParams(0.4, 2)
        assert idx.query(params).same_clustering(
            ppscan(dyn.snapshot(), params)
        )

    def test_deletion_updates_exactly(self):
        csr = erdos_renyi(30, 120, seed=7)
        dyn = DynamicGraph.from_csr(csr)
        idx = DynamicGSIndex(dyn)
        removed = 0
        for u, v in csr.edge_list()[::4]:
            if idx.remove_edge(int(u), int(v)):
                removed += 1
        assert removed > 0
        params = ScanParams(0.4, 2)
        assert idx.query(params).same_clustering(
            ppscan(dyn.snapshot(), params)
        )

    def test_insert_then_remove_is_identity(self):
        csr = erdos_renyi(25, 70, seed=8)
        dyn = DynamicGraph.from_csr(csr)
        idx = DynamicGSIndex(dyn)
        params = ScanParams(0.5, 2)
        before = idx.query(params)
        assert idx.insert_edge(0, 24) or True
        idx.remove_edge(0, 24)
        assert idx.query(params).same_clustering(before)

    def test_remove_absent_edge_in_range_returns_false(self):
        idx = DynamicGSIndex(DynamicGraph(4))
        assert idx.insert_edge(0, 1)
        assert not idx.remove_edge(2, 3)
        assert not idx.insert_edge(0, 1)

    def test_insert_and_remove_validate_identically(self):
        # remove_edge must reject bad endpoints exactly like
        # insert_edge, not silently report the edge as absent.
        idx = DynamicGSIndex(DynamicGraph(3))
        for bad in ((0, 7), (-1, 2), (5, 9)):
            with pytest.raises(IndexError):
                idx.insert_edge(*bad)
            with pytest.raises(IndexError):
                idx.remove_edge(*bad)
        with pytest.raises(ValueError):
            idx.insert_edge(1, 1)
        with pytest.raises(ValueError):
            idx.remove_edge(1, 1)

    def test_rejected_remove_leaves_index_intact(self):
        csr = erdos_renyi(20, 50, seed=10)
        idx = DynamicGSIndex(DynamicGraph.from_csr(csr))
        params = ScanParams(0.5, 2)
        before = idx.query(params)
        with pytest.raises(IndexError):
            idx.remove_edge(0, 99)
        assert idx.query(params).same_clustering(before)

    def test_maintenance_is_local(self):
        """Updating one edge costs O(d(u) + d(v)), not O(m)."""
        csr = erdos_renyi(400, 1600, seed=9)
        dyn = DynamicGraph.from_csr(csr)
        idx = DynamicGSIndex(dyn)
        idx.maintenance_ops = 0
        u, v = 0, 399
        if dyn.has_edge(u, v):
            idx.remove_edge(u, v)
            idx.maintenance_ops = 0
        idx.insert_edge(u, v)
        local = dyn.degree(u) + dyn.degree(v)
        assert idx.maintenance_ops <= 4 * local + 8

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(0, 19),
                st.integers(0, 19),
            ),
            max_size=30,
        ),
    )
    def test_random_update_sequences(self, seed, updates):
        csr = erdos_renyi(20, 40, seed=seed)
        dyn = DynamicGraph.from_csr(csr)
        idx = DynamicGSIndex(dyn)
        for insert, u, v in updates:
            if u == v:
                continue
            if insert:
                idx.insert_edge(u, v)
            else:
                idx.remove_edge(u, v)
        params = ScanParams(0.5, 2)
        assert idx.query(params).same_clustering(
            ppscan(dyn.snapshot(), params)
        )


# ---------------------------------------------------------------------------
# Two-tier order repair: touched vertices re-sorted, other entries moved
# ---------------------------------------------------------------------------

#: ε² as exact (numerator, denominator) pairs, for ε = 1/3, 1/2, 2/3, 3/4.
EPS_SQUARED = ((1, 9), (1, 4), (4, 9), (9, 16))


def star_joined_to_clique():
    """Hub 0 with leaves 1..12, joined to every vertex of the 6-clique
    13..18."""
    clique = range(13, 19)
    edges = [(0, v) for v in range(1, 19)]
    edges += [(u, v) for u in clique for v in clique if u < v]
    return from_edges(edges, num_vertices=19)


def linear_prefix(idx, u, eps_num, eps_den):
    """Reference ε-similar prefix: walk ``u``'s order until the first
    neighbor below ε, with each key recomputed from scratch."""
    degree = idx.graph.degree
    prefix = []
    for v in idx.orders[u]:
        o = idx.overlap(u, v)
        if o * o * eps_den < eps_num * (degree(u) + 1) * (degree(v) + 1):
            break
        prefix.append(v)
    return prefix


class TestTwoTierRepair:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.sampled_from(["star_clique", "chung_lu"]),
        st.integers(0, 1_000),
        st.lists(
            st.tuples(
                st.booleans(),  # per-edge calls instead of one batch
                st.booleans(),  # refresh after this step
                st.lists(
                    st.tuples(
                        st.booleans(),
                        st.integers(0, 18),
                        st.integers(0, 18),
                    ),
                    max_size=8,
                ),
            ),
            max_size=6,
        ),
    )
    def test_interleaved_repairs_match_fresh_index(self, kind, seed, steps):
        if kind == "star_clique":
            csr = star_joined_to_clique()
        else:
            csr = chung_lu(powerlaw_weights(19, 2.05), 60, seed=seed)
        n = csr.num_vertices
        dyn = DynamicGraph.from_csr(csr)
        idx = DynamicGSIndex(dyn)
        lengths = {
            eps: [idx.prefix_length(u, *eps) for u in range(n)]
            for eps in EPS_SQUARED
        }

        def refresh():
            repair = idx.refresh()
            for eps in EPS_SQUARED:
                idx.repair_prefix_lengths(lengths[eps], repair, *eps)

        for per_edge, then_refresh, edits in steps:
            edits = [(ins, u, v) for ins, u, v in edits if u != v]
            if per_edge:
                for ins, u, v in edits:
                    (idx.insert_edge if ins else idx.remove_edge)(u, v)
            else:
                idx.apply_batch(edits)
            if then_refresh:
                refresh()
        refresh()

        fresh = DynamicGSIndex(DynamicGraph.from_csr(dyn.snapshot()))
        assert dict(idx.overlaps()) == dict(fresh.overlaps())
        assert idx.orders == fresh.orders
        for eps in EPS_SQUARED:
            for u in range(n):
                prefix = linear_prefix(idx, u, *eps)
                assert idx.similar_prefix(u, *eps) == prefix
                assert lengths[eps][u] == len(prefix)

    @pytest.mark.parametrize("per_edge", [False, True], ids=["batch", "edge"])
    def test_exact_tie_at_eps_boundary_orders_by_vertex_id(self, per_edge):
        # Before: σ(0, 3)² = 4/6 > σ(0, 1)² = 4/9, so 0's order is [3, 1].
        # Inserting {3, 6} raises d(3) to 2: σ(0, 3)² = 4/9 exactly ties
        # σ(0, 1)², and ε = 2/3 puts ε² on that value.  Vertex 0 is not
        # touched, so it moves its entry for 3, which must land after 1.
        dyn = DynamicGraph.from_csr(
            from_edges([(0, 1), (0, 3), (1, 5)], num_vertices=7)
        )
        idx = DynamicGSIndex(dyn)
        assert idx.orders[0] == [3, 1]
        eps = (4, 9)
        lengths = [idx.prefix_length(u, *eps) for u in range(7)]
        if per_edge:
            idx.insert_edge(3, 6)
        else:
            idx.apply_batch([(True, 3, 6)])
        repair = idx.refresh()
        assert 0 not in repair.resorted and 0 in repair.moved
        assert idx.orders[0] == [1, 3]
        idx.repair_prefix_lengths(lengths, repair, *eps)
        assert idx.similar_prefix(0, *eps) == [1, 3] and lengths[0] == 2
        fresh = DynamicGSIndex(DynamicGraph.from_csr(dyn.snapshot()))
        assert idx.orders == fresh.orders

    def test_removing_an_isolated_edge_takes_a_snapshot(self):
        dyn = DynamicGraph.from_csr(
            from_edges([(0, 1), (1, 2), (0, 2), (3, 4)], num_vertices=6)
        )
        idx = DynamicGSIndex(dyn)
        stats = idx.apply_batch([(False, 3, 4)])
        assert stats.effective == 1 and stats.frontier == ()
        assert stats.touched == (3, 4) and stats.dirty == (3, 4)
        assert stats.snapshot is not None
        assert stats.snapshot.num_edges == 3
        repair = idx.refresh()
        assert repair.resorted == [3, 4] and repair.moved == {}
        assert idx.orders[3] == [] and idx.orders[4] == []
