"""Bulk NumPy common-neighbor kernels vs the scalar oracle.

The bulk surface is :class:`~repro.intersect.BatchIntersector`: its
``group_counts`` mark-and-count mask for one source and many candidates,
and the whole-graph :func:`~repro.core.gsindex.edge_overlaps` pass over
its chunked ``arc_counts``.
"""

import numpy as np

from repro.core.gsindex import edge_overlaps
from repro.graph import complete_graph
from repro.graph.csr import reverse_arc_index
from repro.graph.generators import erdos_renyi
from repro.intersect import BatchIntersector, merge_count


def ref_counts(graph, pairs):
    return [merge_count(graph.neighbors(u), graph.neighbors(v)) for u, v in pairs]


def arc_pairs(graph, arcs):
    return zip(graph.arc_source()[arcs].tolist(), graph.dst[arcs].tolist())


def common_neighbor_counts(graph, arcs):
    """Open-neighborhood overlap of each arc via the whole-graph pass,
    which reports the closed overlap ``count + 2``."""
    return edge_overlaps(graph, arcs, reverse_arc_index(graph)[arcs]) - 2


class TestBulkIntersector:
    def test_counts_from_single_source(self):
        batch = BatchIntersector(complete_graph(6))
        counts = batch.group_counts(0, np.array([1, 2, 3]))
        # In K6, any two vertices share the other 4 vertices.
        assert counts.tolist() == [4, 4, 4]

    def test_scratch_reusable(self):
        batch = BatchIntersector(complete_graph(5))
        first = batch.group_counts(0, np.array([1]))
        second = batch.group_counts(2, np.array([3]))
        assert first.tolist() == [3]
        assert second.tolist() == [3]

    def test_matches_merge_on_random_graph(self):
        g = erdos_renyi(80, 400, seed=2)
        arcs = np.flatnonzero(g.arc_source() < g.dst)
        assert common_neighbor_counts(g, arcs).tolist() == ref_counts(
            g, arc_pairs(g, arcs)
        )

    def test_empty_edges(self):
        g = complete_graph(3)
        out = common_neighbor_counts(g, np.empty(0, dtype=np.int64))
        assert out.size == 0

    def test_unsorted_edge_batch(self):
        g = erdos_renyi(40, 150, seed=5)
        # Reverse order, both arc directions: mixed, descending sources.
        arcs = np.arange(g.num_arcs, dtype=np.int64)[::-1].copy()
        assert common_neighbor_counts(g, arcs).tolist() == ref_counts(
            g, arc_pairs(g, arcs)
        )


class TestCountsFromVsLoopOracle:
    """``group_counts`` for one source against a per-candidate
    ``merge_count`` loop."""

    def test_random_graphs(self):
        for seed in range(4):
            g = erdos_renyi(60, 260, seed=seed)
            batch = BatchIntersector(g)
            for u in range(g.num_vertices):
                cands = g.neighbors(u)
                assert batch.group_counts(u, cands).tolist() == ref_counts(
                    g, ((u, int(v)) for v in cands)
                )

    def test_empty_candidates(self):
        batch = BatchIntersector(complete_graph(4))
        empty = np.empty(0, dtype=np.int64)
        assert batch.group_counts(0, empty).size == 0
