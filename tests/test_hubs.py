"""Hub/outlier classification: the parallel phase and Definition 2.10.

``TestDefinitionOracle`` checks :meth:`ClusteringResult.classify` and the
serial :func:`classify_peripherals` against an oracle written from the
definition with Python sets, labels and per-task scanned arcs both.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import brute_force_scan, classify_peripherals, ppscan
from repro.core.result import ClusteringResult
from repro.graph import from_edges
from repro.graph.generators import chung_lu, erdos_renyi, powerlaw_weights
from repro.parallel import ProcessBackend
from repro.parallel.scheduler import degree_based_tasks
from repro.types import CORE, HUB, NONCORE, OUTLIER, ScanParams


@pytest.fixture(scope="module")
def clustered():
    g = chung_lu(powerlaw_weights(250, 2.3), 1500, seed=19)
    result = ppscan(g, ScanParams(0.4, 3))
    return g, result


class TestClassifyPeripherals:
    def test_matches_sequential_classify(self, clustered):
        g, result = clustered
        parallel, _ = classify_peripherals(g, result)
        assert np.array_equal(parallel, result.classify(g))

    def test_process_backend_identical(self, clustered):
        g, result = clustered
        serial, _ = classify_peripherals(g, result)
        parallel, _ = classify_peripherals(
            g, result, backend=ProcessBackend(workers=2)
        )
        assert np.array_equal(serial, parallel)

    def test_record_has_tasks(self, clustered):
        g, result = clustered
        _, record = classify_peripherals(g, result)
        stage = record.stages[0]
        assert stage.name == "peripheral classification"
        assert stage.num_tasks >= 1
        assert stage.total().arcs >= 0

    def test_work_linear_in_arcs(self, clustered):
        """O(|E| + |V|): arcs scanned never exceed the arc count."""
        g, result = clustered
        _, record = classify_peripherals(g, result)
        assert record.total().arcs <= g.num_arcs

    def test_known_hub(self):
        g = from_edges(
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 0), (6, 3)]
        )
        params = ScanParams(0.6, 2)
        result = ppscan(g, params)
        out, _ = classify_peripherals(g, result)
        if result.num_clusters == 2 and not result.membership()[6]:
            assert out[6] == HUB

    def test_graph_mismatch_rejected(self, clustered):
        g, result = clustered
        other = erdos_renyi(10, 20, seed=0)
        with pytest.raises(ValueError):
            classify_peripherals(other, result)

    def test_all_labels_valid(self, clustered):
        g, result = clustered
        out, _ = classify_peripherals(g, result)
        assert set(np.unique(out)).issubset({CORE, NONCORE, HUB, OUTLIER})


def oracle(graph, result):
    """Definition 2.10 from Python sets: each vertex's extended role, and
    for an unclustered one the length of the shortest prefix of its
    neighbour list that holds a witness (its whole degree if none)."""
    member = [set() for _ in range(graph.num_vertices)]
    for v, cid in enumerate(result.core_labels.tolist()):
        if cid >= 0:
            member[v].add(cid)
    for cid, v in result.noncore_pairs.tolist():
        member[v].add(cid)
    labels, scanned = [], []
    for v in range(graph.num_vertices):
        if result.roles[v] == CORE or member[v]:
            labels.append(CORE if result.roles[v] == CORE else NONCORE)
            scanned.append(0)
            continue
        seen, label = [], OUTLIER
        nbrs = graph.neighbors(v).tolist()
        for w in nbrs:
            # A witness: two distinct clustered neighbours v' != w with
            # c1 in M(v'), c2 in M(w) and c1 != c2.
            if any(c1 != c2 for x in seen for c1 in member[x] for c2 in member[w]):
                label = HUB
                break
            seen.append(w)
        labels.append(label)
        scanned.append(len(seen) + 1 if label == HUB else len(nbrs))
    return np.array(labels, dtype=np.int8), scanned, member


@st.composite
def memberships(draw, graph):
    """Arbitrary roles and memberships over ``graph``: cores with one
    cluster, non-cores in none, one or several (ids drawn from a small
    pool, so neighbours share and split clusters often)."""
    pool = st.integers(min_value=0, max_value=2)
    kinds = st.sampled_from(["core", "member", "unclustered", "unclustered"])
    roles, labels, pairs = [], [], []
    for v in range(graph.num_vertices):
        kind = draw(kinds)
        roles.append(CORE if kind == "core" else NONCORE)
        labels.append(draw(pool) if kind == "core" else -1)
        if kind == "member":
            pairs.extend((cid, v) for cid in draw(st.sets(pool, min_size=1)))
    return ClusteringResult(
        "drawn", ScanParams(0.5, 2), roles, labels, np.array(pairs).reshape(-1, 2)
    )


@st.composite
def graphs(draw, max_n=24):
    n = draw(st.integers(min_value=0, max_value=max_n))
    kind = draw(st.sampled_from(["drawn", "isolated"]))
    if kind == "isolated" or n < 2:
        return from_edges([], num_vertices=n)
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda e: e[0] != e[1]),
            min_size=n // 2,
            max_size=3 * n,
        )
    )
    return from_edges(edges, num_vertices=n)


ORACLE = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestDefinitionOracle:
    def check(self, graph, result, threshold):
        labels, scanned, member = oracle(graph, result)
        assert np.array_equal(result.classify(graph), labels)
        out, record = classify_peripherals(graph, result, task_threshold=threshold)
        assert np.array_equal(out, labels)
        unclustered = np.array(
            [result.roles[v] != CORE and not member[v] for v in range(len(member))],
            dtype=bool,
        )
        tasks = degree_based_tasks(graph.degrees, unclustered, threshold)
        assert [t.arcs for t in record.stages[0].tasks] == [
            sum(scanned[beg:end]) for beg, end in tasks
        ]

    @ORACLE
    @given(data=st.data(), threshold=st.integers(min_value=1, max_value=12))
    def test_drawn_memberships(self, data, threshold):
        graph = data.draw(graphs())
        self.check(graph, data.draw(memberships(graph)), threshold)

    @ORACLE
    @given(
        graph=graphs(),
        eps=st.sampled_from([0.2, 0.35, 0.5, 0.7]),
        mu=st.integers(min_value=1, max_value=4),
        threshold=st.integers(min_value=1, max_value=12),
    )
    def test_exact_clusterings(self, graph, eps, mu, threshold):
        self.check(graph, brute_force_scan(graph, ScanParams(eps, mu)), threshold)

    def test_empty_and_isolated(self):
        for n in (0, 1, 5):
            graph = from_edges([], num_vertices=n)
            result = brute_force_scan(graph, ScanParams(0.5, 2))
            self.check(graph, result, 1)
            assert (result.classify(graph) == OUTLIER).all()

    def test_multi_membership_neighbours(self):
        # 1 and 3 sit in {0, 5}, 2 in {0}; 4, 6 and 7 are unclustered.
        # 4 sees {0, 5} then {0}, 6 sees {0} then {0, 5}: two distinct
        # neighbours supply 0 and 5 either way, so both are hubs.  7's
        # only clustered neighbour is 3: one neighbour is no witness.
        graph = from_edges(
            [(4, 1), (4, 2), (6, 2), (6, 3), (7, 3), (7, 4)], num_vertices=8
        )
        result = ClusteringResult(
            "drawn",
            ScanParams(0.5, 2),
            [CORE, NONCORE, NONCORE, NONCORE, NONCORE, CORE, NONCORE, NONCORE],
            [0, -1, -1, -1, -1, 5, -1, -1],
            [(0, 1), (5, 1), (0, 2), (0, 3), (5, 3)],
        )
        assert result.classify(graph)[[4, 6, 7]].tolist() == [HUB, HUB, OUTLIER]
        self.check(graph, result, 1)
