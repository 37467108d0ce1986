"""CSRGraph construction, access, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, complete_graph, from_edges, path_graph
from repro.graph.csr import reverse_arc_index
from repro.graph.generators import erdos_renyi


def triangle() -> CSRGraph:
    return from_edges([(0, 1), (1, 2), (0, 2)])


class TestConstruction:
    def test_offsets_and_dst(self):
        g = triangle()
        assert g.offsets.tolist() == [0, 2, 4, 6]
        assert g.dst.tolist() == [1, 2, 0, 2, 0, 1]

    def test_num_vertices_edges_arcs(self):
        g = triangle()
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.num_arcs == 6
        assert len(g) == 3

    def test_arrays_immutable(self):
        g = triangle()
        with pytest.raises(ValueError):
            g.dst[0] = 5
        with pytest.raises(ValueError):
            g.offsets[0] = 1

    def test_rejects_bad_offsets_start(self):
        with pytest.raises(ValueError):
            CSRGraph(offsets=np.array([1, 2]), dst=np.array([0, 1]))

    def test_rejects_offsets_end_mismatch(self):
        with pytest.raises(ValueError):
            CSRGraph(offsets=np.array([0, 3]), dst=np.array([0, 1]))

    def test_rejects_decreasing_offsets(self):
        with pytest.raises(ValueError):
            CSRGraph(
                offsets=np.array([0, 2, 1, 2]), dst=np.array([1, 0])
            )

    def test_rejects_empty_offsets(self):
        with pytest.raises(ValueError):
            CSRGraph(offsets=np.array([], dtype=np.int64), dst=np.array([]))

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            CSRGraph(
                offsets=np.array([[0, 0]]), dst=np.array([], dtype=np.int64)
            )


class TestAccess:
    def test_degree(self):
        g = from_edges([(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1
        assert g.degrees.tolist() == [3, 1, 1, 1]

    def test_neighbors_sorted(self):
        g = from_edges([(2, 0), (2, 3), (2, 1)])
        assert g.neighbors(2).tolist() == [0, 1, 3]

    def test_neighbors_view_not_copy(self):
        g = triangle()
        nbrs = g.neighbors(1)
        assert nbrs.base is not None  # a view into dst

    def test_neighbor_range(self):
        g = triangle()
        lo, hi = g.neighbor_range(1)
        assert g.dst[lo:hi].tolist() == [0, 2]

    def test_has_edge(self):
        g = from_edges([(0, 1), (1, 2)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_has_edge_isolated(self):
        g = from_edges([(0, 1)], num_vertices=3)
        assert not g.has_edge(2, 0)

    def test_edge_offset_definition(self):
        # Definition 2.11: dst[e(u, v)] == v.
        g = from_edges([(0, 1), (0, 3), (0, 5), (3, 5)])
        for u in range(g.num_vertices):
            for v in g.neighbors(u):
                assert g.dst[g.edge_offset(u, int(v))] == v

    def test_edge_offset_missing_raises(self):
        g = from_edges([(0, 1)])
        with pytest.raises(KeyError):
            g.edge_offset(0, 0)


class TestStatsAndConversions:
    def test_average_degree(self):
        assert complete_graph(5).average_degree() == 4.0
        assert path_graph(2).average_degree() == 1.0

    def test_max_degree(self):
        g = from_edges([(0, 1), (0, 2), (1, 2), (0, 3)])
        assert g.max_degree() == 3

    def test_edge_list_roundtrip(self):
        edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
        g = from_edges(edges)
        assert sorted(map(tuple, g.edge_list().tolist())) == sorted(edges)

    def test_arc_source(self):
        g = triangle()
        assert g.arc_source().tolist() == [0, 0, 1, 1, 2, 2]

    def test_validate_accepts_good_graph(self):
        complete_graph(6).validate()

    def test_validate_rejects_asymmetric(self):
        bad = CSRGraph(offsets=np.array([0, 1, 1]), dst=np.array([1]))
        with pytest.raises(ValueError, match="symmetric"):
            bad.validate()

    def test_validate_rejects_self_loop(self):
        bad = CSRGraph(offsets=np.array([0, 1]), dst=np.array([0]))
        with pytest.raises(ValueError, match="self loop"):
            bad.validate()

    def test_validate_rejects_unsorted(self):
        bad = CSRGraph(
            offsets=np.array([0, 2, 3, 4]), dst=np.array([2, 1, 0, 0])
        )
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_rejects_out_of_range(self):
        bad = CSRGraph(offsets=np.array([0, 1, 2]), dst=np.array([1, 7]))
        with pytest.raises(ValueError, match="out of range"):
            bad.validate()


def _reverse_by_search(graph: CSRGraph) -> np.ndarray:
    """The reverse-arc index by one binary search per arc over the sorted
    ``src * n + dst`` keys (the reference form)."""
    src, dst = graph.arc_source(), graph.dst
    n = np.int64(graph.num_vertices)
    return np.searchsorted(src * n + dst, dst * n + src).astype(np.int64)


class TestReverseArcIndex:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_binary_search(self, n, m, seed):
        graph = erdos_renyi(n, min(m, n * (n - 1) // 2), seed=seed)
        rev = reverse_arc_index(graph)
        assert rev.dtype == np.int64
        np.testing.assert_array_equal(rev, _reverse_by_search(graph))
        np.testing.assert_array_equal(rev[rev], np.arange(graph.num_arcs))

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_empty_and_all_isolated(self, n):
        graph = from_edges([], num_vertices=n)
        rev = reverse_arc_index(graph)
        assert rev.dtype == np.int64 and rev.size == 0

    def test_ids_past_sixteen_bits(self):
        # Past 2**16 vertices the index takes the general sort, not the
        # 16-bit radix one.
        n = (1 << 16) + 50
        rng = np.random.default_rng(3)
        u = rng.integers(0, n, 4000)
        v = rng.integers(0, n, 4000)
        keep = u != v
        graph = from_edges(zip(u[keep].tolist(), v[keep].tolist()), num_vertices=n)
        assert graph.num_vertices > 1 << 16
        np.testing.assert_array_equal(
            reverse_arc_index(graph), _reverse_by_search(graph)
        )
