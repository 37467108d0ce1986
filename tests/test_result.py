"""ClusteringResult: membership, classification, canonical comparison."""

import numpy as np
import pytest

from repro.core import ClusteringResult
from repro.graph import from_edges
from repro.types import CORE, HUB, NONCORE, OUTLIER, ScanParams


def make_result(roles, labels, pairs, params=ScanParams(0.5, 2)):
    return ClusteringResult(
        algorithm="test",
        params=params,
        roles=np.array(roles, dtype=np.int8),
        core_labels=np.array(labels, dtype=np.int64),
        noncore_pairs=np.array(pairs, dtype=np.int64).reshape(-1, 2),
    )


class TestBasics:
    def test_counts(self):
        r = make_result(
            [CORE, CORE, NONCORE, NONCORE],
            [0, 0, -1, -1],
            [(0, 2)],
        )
        assert r.num_vertices == 4
        assert r.num_cores == 2
        assert r.num_clusters == 1
        assert r.cluster_ids.tolist() == [0]

    def test_clusters_members_sorted_unique(self):
        r = make_result(
            [CORE, CORE, NONCORE],
            [0, 0, -1],
            [(0, 2), (0, 2)],  # duplicate pair collapses
        )
        clusters = r.clusters()
        assert clusters[0].tolist() == [0, 1, 2]

    def test_membership_multi_cluster_noncore(self):
        r = make_result(
            [CORE, NONCORE, CORE],
            [0, -1, 2],
            [(0, 1), (2, 1)],
        )
        member = r.membership()
        assert member[1] == {0, 2}
        assert member[0] == {0}

    def test_memberships_csr(self):
        # Vertex 0 is a core whose own pair repeats its label: one id.
        r = make_result(
            [CORE, NONCORE, CORE, NONCORE],
            [0, -1, 2, -1],
            [(2, 1), (0, 1), (0, 0)],
        )
        offsets, ids = r.memberships
        assert offsets.tolist() == [0, 1, 3, 4, 4]
        assert ids.tolist() == [0, 0, 2, 2]
        assert r.membership() == [{0}, {0, 2}, {2}, set()]
        assert {c: m.tolist() for c, m in r.clusters().items()} == {
            0: [0, 1],
            2: [1, 2],
        }

    def test_pairs_canonicalized(self):
        a = make_result([CORE, NONCORE], [0, -1], [(0, 1)])
        b = make_result([CORE, NONCORE], [0, -1], [(0, 1), (0, 1)])
        assert a.same_clustering(b)

    def test_different_roles_differ(self):
        a = make_result([CORE, NONCORE], [0, -1], [])
        b = make_result([NONCORE, CORE], [-1, 1], [])
        assert not a.same_clustering(b)

    def test_summary_mentions_algorithm(self):
        r = make_result([CORE], [0], [])
        assert "test" in r.summary()


class TestClassification:
    def test_outlier_no_clustered_neighbors(self):
        g = from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], num_vertices=5)
        r = make_result(
            [CORE, CORE, CORE, NONCORE, NONCORE],
            [0, 0, 0, -1, -1],
            [],
        )
        out = r.classify(g)
        assert out[3] == OUTLIER  # neighbor 2 is clustered... hub needs two
        assert out[4] == OUTLIER  # isolated

    def test_hub_bridges_two_clusters(self):
        # 6 bridges cluster {0,1,2} and cluster {3,4,5}.
        g = from_edges(
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 0), (6, 3)]
        )
        r = make_result(
            [CORE] * 6 + [NONCORE],
            [0, 0, 0, 3, 3, 3, -1],
            [],
        )
        out = r.classify(g)
        assert out[6] == HUB

    def test_not_hub_single_cluster_neighbors(self):
        g = from_edges([(0, 1), (1, 2), (0, 2), (3, 0), (3, 1)])
        r = make_result(
            [CORE, CORE, CORE, NONCORE],
            [0, 0, 0, -1],
            [],
        )
        assert r.classify(g)[3] == OUTLIER

    def test_hub_via_multi_membership_neighbor(self):
        # One neighbor in {0}, another in {0, 5}: bridging is possible.
        g = from_edges([(7, 1), (7, 2)], num_vertices=8)
        r = make_result(
            [CORE, NONCORE, NONCORE, NONCORE, NONCORE, CORE, NONCORE, NONCORE],
            [0, -1, -1, -1, -1, 5, -1, -1],
            [(0, 1), (0, 2), (5, 2)],
        )
        assert r.classify(g)[7] == HUB

    def test_member_noncore_stays_noncore(self):
        g = from_edges([(0, 1)])
        r = make_result([CORE, NONCORE], [0, -1], [(0, 1)])
        out = r.classify(g)
        assert out[0] == CORE
        assert out[1] == NONCORE

    def test_graph_size_mismatch(self):
        g = from_edges([(0, 1)])
        r = make_result([CORE], [0], [])
        with pytest.raises(ValueError):
            r.classify(g)
