"""Dynamic graph and incrementally-maintained GS*-Index."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DynamicGSIndex, GSIndex, brute_force_scan, ppscan
from repro.graph import (
    DynamicGraph,
    complete_graph,
    empty_graph,
    from_edges,
    star_graph,
)
from repro.graph.generators import (
    chung_lu,
    erdos_renyi,
    powerlaw_weights,
    real_world_standin,
)
from repro.types import CORE, ScanParams


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


def _overlap_closed(adj_u: list[int], adj_v: list[int]) -> int:
    """Closed-neighborhood overlap of an *adjacent* pair: |N∩N| + 2."""
    i = j = common = 0
    na, nb = len(adj_u), len(adj_v)
    while i < na and j < nb:
        x, y = adj_u[i], adj_v[j]
        if x < y:
            i += 1
        elif x > y:
            j += 1
        else:
            common += 1
            i += 1
            j += 1
    return common + 2


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


class TestDynamicMemory:
    """``memory_bytes`` prices what a streaming handle really keeps."""

    def test_adjacency_estimate_matches_tracemalloc(self):
        graph = real_world_standin("twitter", scale=0.5)
        tracemalloc.start()
        try:
            dyn = DynamicGraph.from_csr(graph)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert abs(dyn.memory_bytes() - kept) <= 0.15 * kept

    def test_index_prices_arrays_and_lists(self):
        dyn = DynamicGraph.from_csr(erdos_renyi(400, 2000, seed=2))
        index = DynamicGSIndex(dyn)
        index.apply_batch([("+", 0, 399), ("-", 5, dyn.neighbors(5)[0])])
        index.refresh()
        snap = index.snapshot
        arrays = [snap.offsets, snap.dst, index._overlap, *index._keys]
        assert index.memory_bytes() == (
            sum(a.nbytes for a in arrays) + dyn.memory_bytes()
        )


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
        """Initial overlaps equal the per-edge pass."""
        dyn = DynamicGraph.from_csr(csr)
        idx = DynamicGSIndex(dyn)
        assert list(idx.overlaps()) == list(per_edge_seed(dyn).items())

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
            if u != v and idx.apply_batch([(True, u, v)]).effective:
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
            if idx.apply_batch([(False, int(u), int(v))]).effective:
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
        assert idx.apply_batch([(True, 0, 24)]).effective in (0, 1)
        idx.apply_batch([(False, 0, 24)])
        assert idx.query(params).same_clustering(before)

    def test_remove_absent_edge_in_range_returns_false(self):
        idx = DynamicGSIndex(DynamicGraph(4))
        assert idx.apply_batch([(True, 0, 1)]).effective
        assert not idx.apply_batch([(False, 2, 3)]).effective
        assert not idx.apply_batch([(True, 0, 1)]).effective

    def test_insert_and_remove_validate_identically(self):
        # A removal must reject bad endpoints exactly like an
        # insertion, not silently report the edge as absent.
        idx = DynamicGSIndex(DynamicGraph(3))
        for bad in ((0, 7), (-1, 2), (5, 9)):
            with pytest.raises(IndexError):
                idx.apply_batch([(True, *bad)])
            with pytest.raises(IndexError):
                idx.apply_batch([(False, *bad)])
        with pytest.raises(ValueError):
            idx.apply_batch([(True, 1, 1)])
        with pytest.raises(ValueError):
            idx.apply_batch([(False, 1, 1)])

    def test_rejected_remove_leaves_index_intact(self):
        csr = erdos_renyi(20, 50, seed=10)
        idx = DynamicGSIndex(DynamicGraph.from_csr(csr))
        params = ScanParams(0.5, 2)
        before = idx.query(params)
        with pytest.raises(IndexError):
            idx.apply_batch([(False, 0, 99)])
        assert idx.query(params).same_clustering(before)

    def test_maintenance_is_local(self):
        """One edit recomputes exactly the d(u) + d(v) - 1 edges at u or
        v and carries every other overlap."""
        csr = erdos_renyi(400, 1600, seed=9)
        dyn = DynamicGraph.from_csr(csr)
        idx = DynamicGSIndex(dyn)
        u, v = 0, 399
        if dyn.has_edge(u, v):
            idx.apply_batch([(False, u, v)])
        before = dict(idx.overlaps())
        idx.maintenance_ops = 0
        stats = idx.apply_batch([("+", u, v)])
        frontier = set(stats.frontier)
        assert len(frontier) == dyn.degree(u) + dyn.degree(v) - 1
        assert all(u in edge or v in edge for edge in frontier)
        assert idx.maintenance_ops == sum(
            dyn.degree(a) + dyn.degree(b) for a, b in frontier
        )
        arcs_new, _, _ = stats.carried
        assert arcs_new.size == dyn.snapshot().num_arcs - 2 * len(frontier)
        after = dict(idx.overlaps())
        assert {e: o for e, o in after.items() if e not in frontier} == {
            e: o for e, o in before.items() if e not in frontier
        }
        assert after == dict(per_edge_seed(dyn))

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
            idx.apply_batch([(insert, u, v)])
        params = ScanParams(0.5, 2)
        assert idx.query(params).same_clustering(
            ppscan(dyn.snapshot(), params)
        )


# ---------------------------------------------------------------------------
# Interleaved per-edge and batched maintenance against fresh state
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


def boundary_points(mus=(1, 2, 3)):
    """ScanParams with ε² exactly at each of :data:`EPS_SQUARED`."""
    points = [
        ScanParams(eps, mu) for eps in (1 / 3, 1 / 2, 2 / 3, 3 / 4) for mu in mus
    ]
    assert {p.eps_fraction**2 for p in points} == {
        Fraction(*eps) for eps in EPS_SQUARED
    }
    return points


class TestInterleavedMaintenance:
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
                st.booleans(),  # refresh the keys after this step
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
    def test_interleaved_updates_match_fresh_index(self, kind, seed, steps):
        if kind == "star_clique":
            csr = star_joined_to_clique()
        else:
            csr = chung_lu(powerlaw_weights(19, 2.05), 60, seed=seed)
        dyn = DynamicGraph.from_csr(csr)
        idx = DynamicGSIndex(dyn)
        for per_edge, then_refresh, edits in steps:
            edits = [(ins, u, v) for ins, u, v in edits if u != v]
            if per_edge:
                for edit in edits:
                    idx.apply_batch([edit])
            else:
                idx.apply_batch(edits)
            if then_refresh:
                idx.refresh()

        snapshot = dyn.snapshot()
        fresh = DynamicGSIndex(DynamicGraph.from_csr(snapshot))
        assert dict(idx.overlaps()) == dict(fresh.overlaps())
        for params in boundary_points():
            assert idx.query(params).same_clustering(
                brute_force_scan(snapshot, params)
            )

    @pytest.mark.parametrize("per_edge", [False, True], ids=["batch", "edge"])
    def test_exact_tie_at_eps_boundary_is_similar(self, per_edge):
        # Before: σ(0, 3)² = 4/6 > σ(0, 1)² = 4/9.  Inserting {3, 6}
        # raises d(3) to 2: σ(0, 3)² = 4/9 exactly ties σ(0, 1)², and
        # ε = 2/3 puts ε² on that value, so both arcs of 0 stay similar.
        dyn = DynamicGraph.from_csr(
            from_edges([(0, 1), (0, 3), (1, 5)], num_vertices=7)
        )
        idx = DynamicGSIndex(dyn)
        points = [ScanParams(2 / 3, mu) for mu in (1, 2, 3)]
        for params in points:
            assert idx.query(params).same_clustering(
                brute_force_scan(dyn.snapshot(), params)
            )
        if per_edge:
            assert idx.apply_batch([(True, 3, 6)]).effective == 1
        else:
            idx.apply_batch([(True, 3, 6)])
        for params in points:
            assert idx.query(params).same_clustering(
                brute_force_scan(dyn.snapshot(), params)
            )
        assert idx.query(points[1]).roles[0] == CORE

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
        assert dict(idx.overlaps()) == {(0, 1): 3, (0, 2): 3, (1, 2): 3}
        assert idx.overlap(2, 1) == 3
        with pytest.raises(KeyError):
            idx.overlap(3, 4)
