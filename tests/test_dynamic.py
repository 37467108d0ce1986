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
