"""The session-handle API: bind a graph once, query it many times.

Covers :class:`repro.api.Session` / :class:`repro.api.GraphHandle`:
index-backed queries bit-identical to the one-shot facade, per-point
memoization (with hit/miss accounting and the never-computing
:meth:`lookup` peek), vertex views, sweeps through the handle, the
store plumbing between session and handle, and handle statistics the
service registry budgets with.
"""

from __future__ import annotations

import json
import warnings
from unittest import mock

import numpy as np
import pytest

from repro import api
from repro.cache import SimilarityStore, graph_fingerprint
from repro.core import assert_same_clustering
from repro.core.result import ClusteringResult
from repro.graph.generators import erdos_renyi, planted_partition
from repro.options import ExecutionOptions
from repro.streaming import StreamingEngine
from repro.types import ScanParams


@pytest.fixture(scope="module")
def graph():
    return planted_partition(6, 30, 0.7, 0.05, seed=5)[0]


@pytest.fixture
def handle(graph):
    return api.open(graph)


PARAMS = ScanParams(0.5, 3)


def _non_edge(graph, u: int) -> tuple[int, int]:
    """``(u, v)`` for the highest ``v`` not adjacent to ``u``."""
    adjacent = set(graph.neighbors(u).tolist()) | {u}
    return u, max(set(range(graph.num_vertices)) - adjacent)


@pytest.fixture
def handed(monkeypatch):
    """The arc counts every overlap pass hands ``edge_overlaps``."""
    from repro.core import dynamic_index, gsindex

    calls: list[int] = []
    for module in (gsindex, dynamic_index):

        def counted(g, arcs, rev, inter=None, real=module.edge_overlaps):
            calls.append(int(arcs.size))
            return real(g, arcs, rev, inter)

        monkeypatch.setattr(module, "edge_overlaps", counted)
    return calls


def _result_bytes(result) -> int:
    """What a handle's memory budget charges for one memoized result."""
    return (
        result.roles.nbytes
        + result.core_labels.nbytes
        + 16 * len(result.noncore_pairs)
    )


class TestGraphHandle:
    def test_open_returns_handle(self, graph):
        handle = api.open(graph)
        assert isinstance(handle, api.GraphHandle)
        assert handle.graph is graph
        assert handle.fingerprint == graph_fingerprint(graph)

    def test_cluster_bit_identical_to_facade(self, graph, handle):
        direct = api.cluster(graph, PARAMS)
        via_handle = handle.cluster(PARAMS)
        assert_same_clustering(direct, via_handle)

    def test_cluster_accepts_eps_mu_pair(self, graph, handle):
        assert_same_clustering(
            handle.cluster(0.5, 3), api.cluster(graph, PARAMS)
        )

    def test_repeat_query_is_memoized(self, handle):
        first = handle.cluster(PARAMS)
        second = handle.cluster(PARAMS)
        assert second is first
        assert handle.query_hits == 1
        assert handle.query_misses == 1

    def test_lookup_never_computes(self, graph):
        handle = api.open(graph)
        assert handle.lookup(PARAMS) is None
        result = handle.cluster(PARAMS)
        assert handle.lookup(PARAMS) is result

    def test_distinct_points_are_distinct_queries(self, handle):
        handle.cluster(0.4, 2)
        handle.cluster(0.6, 2)
        assert handle.query_misses == 2
        assert handle.query_hits == 0

    def test_explicit_algorithm_bypasses_index(self, graph, handle):
        via_algo = handle.cluster(PARAMS, algorithm="pscan")
        assert_same_clustering(via_algo, api.cluster(graph, PARAMS))
        # algorithm-path results are not the index memo
        assert handle.query_misses == 0

    def test_index_grid_matches_facade(self, graph, handle):
        for eps in (0.3, 0.5, 0.7):
            for mu in (2, 4):
                assert_same_clustering(
                    handle.cluster(eps, mu),
                    api.cluster(graph, ScanParams(eps, mu)),
                )

    def test_vertex_view(self, graph, handle):
        result = handle.cluster(PARAMS)
        membership = result.membership()
        for v in range(0, graph.num_vertices, 7):
            view = handle.vertex(v, PARAMS)
            assert view.vertex == v
            assert view.role in {"core", "noncore", "hub", "outlier"}
            assert view.clusters == tuple(sorted(membership[v]))
            as_dict = view.as_dict()
            assert as_dict["vertex"] == v
            assert as_dict["role"] == view.role

    def test_vertex_range_validated(self, graph, handle):
        with pytest.raises(ValueError, match="out of range"):
            handle.vertex(graph.num_vertices, PARAMS)
        with pytest.raises(ValueError, match="out of range"):
            handle.lookup_vertex(-1, PARAMS)

    def test_lookup_vertex_never_computes(self, graph):
        handle = api.open(graph)
        assert handle.lookup_vertex(3, PARAMS) is None
        handle.cluster(PARAMS)
        # A memoized result is not yet a memoized classification.
        assert handle.lookup_vertex(3, PARAMS) is None
        assert handle.query_misses == 1
        handle.vertex(3, PARAMS)
        # One classification per point serves every vertex.
        for v in range(graph.num_vertices):
            assert handle.lookup_vertex(v, PARAMS) == handle.vertex(v, PARAMS)
        assert handle.lookup_vertex(3, 0.45, 2) is None

    def test_lookup_vertex_follows_the_version(self, graph):
        handle = api.open(graph)
        handle.vertex(0, PARAMS)
        handle.apply_updates([("+", 0, graph.num_vertices - 1)])
        # The new version repaired the result but classified nothing yet.
        assert handle.lookup(PARAMS) is not None
        assert handle.lookup_vertex(0, PARAMS) is None
        view = handle.vertex(0, PARAMS)
        fresh = api.open(handle.graph).vertex(0, PARAMS)
        assert view == fresh == handle.lookup_vertex(0, PARAMS)
        with pytest.raises(ValueError, match="out of range"):
            handle.vertex(-1, PARAMS)

    def test_sweep_through_handle(self, graph, handle):
        outcome = handle.sweep([0.4, 0.6], [2, 3])
        assert len(outcome.points) == 4
        for point in outcome.points:
            assert_same_clustering(
                point.result,
                api.cluster(graph, ScanParams(point.eps, point.mu)),
            )

    def test_stats_shape(self, handle):
        handle.cluster(PARAMS)
        stats = handle.stats()
        assert stats["fingerprint"] == handle.fingerprint
        assert stats["indexed"] is True
        assert stats["points_cached"] == 1
        assert stats["num_vertices"] == handle.graph.num_vertices
        assert stats["memory_bytes"] > 0

    def test_memory_grows_with_index(self, graph):
        handle = api.open(graph)
        cold = handle.memory_bytes()
        handle.ensure_index()
        assert handle.memory_bytes() > cold

    def test_memory_counts_the_streaming_engine(self, graph):
        edit = [("+", 0, graph.num_vertices - 1)]
        bare = api.open(graph)
        bare.apply_updates(edit)  # nothing to repair: no arc keys
        handle = api.open(graph)
        handle.cluster(PARAMS)
        handle.apply_updates(edit)  # repairs PARAMS over fresh arc keys
        # The engine holds the adjacency lists, an overlap per arc and the
        # repair's arc keys on top of the snapshot arrays the handle's
        # graph alone would count; a reference engine that answered one
        # point holds the same.
        reference = StreamingEngine(handle.graph)
        reference.query(PARAMS)
        engine = reference.memory_bytes()
        snapshot = handle.graph
        assert engine > snapshot.offsets.nbytes + snapshot.dst.nbytes
        assert handle.stats()["points_cached"] == 1
        assert handle.memory_bytes() == engine + _result_bytes(
            handle.lookup(PARAMS)
        )
        # The keys (src, num, den: 8 bytes each per arc) count once ...
        keys = 3 * 8 * snapshot.num_arcs
        assert handle.memory_bytes() - bare.memory_bytes() == keys + (
            _result_bytes(handle.lookup(PARAMS))
        )
        # ... and a cold point on the streamed version reuses them.
        before = handle.memory_bytes()
        fresh = handle.cluster(0.45, 2)
        assert handle.memory_bytes() == before + _result_bytes(fresh)

    def test_memory_counts_vertex_views(self, handle):
        result = handle.cluster(PARAMS)
        before = handle.memory_bytes()
        handle.vertex(0, PARAMS)
        # The memo holds one int8 role per vertex plus the memberships in
        # CSR form: n + 1 int64 offsets and one int64 id per membership.
        n = handle.graph.num_vertices
        memberships = sum(len(m) for m in result.membership())
        views = n + 8 * (n + 1) + 8 * memberships
        assert handle.memory_bytes() == before + views
        handle.vertex(1, PARAMS)  # the same point's memo: nothing new
        assert handle.memory_bytes() == before + views

    def test_memory_counts_encoded_labels(self, handle):
        result = handle.cluster(PARAMS)
        before = handle.memory_bytes()
        texts = handle.encoded_labels(result)
        assert handle.memory_bytes() == before + sum(map(len, texts.values()))
        handle.encoded_labels(result)  # memo hit: nothing new
        assert handle.memory_bytes() == before + sum(map(len, texts.values()))

    def test_close_releases_memos(self, handle):
        handle.cluster(PARAMS)
        handle.close()
        assert handle.lookup(PARAMS) is None
        assert handle.stats()["indexed"] is False


class TestSession:
    def test_open_is_memoized_per_graph(self, graph):
        session = api.Session()
        assert session.open(graph) is session.open(graph)

    def test_handles_and_discard(self, graph):
        session = api.Session()
        handle = session.open(graph)
        assert session.handles() == [handle]
        session.discard(handle)
        assert session.handles() == []
        assert session.open(graph) is not handle

    def test_context_manager_closes(self, graph):
        with api.Session() as session:
            handle = session.open(graph)
            handle.cluster(PARAMS)
        assert session.handles() == []

    def test_shared_store_warms_across_handles(self, tmp_path):
        g = erdos_renyi(60, 240, seed=3)
        store = SimilarityStore(cache_dir=tmp_path)
        with api.Session(store=store) as session:
            session.open(g).cluster(PARAMS)
        assert store.stats().misses > 0
        spilled = list(tmp_path.glob("simstore-*.npz"))
        assert spilled, "session close must spill the shared store"

    def test_cache_dir_builds_store(self, tmp_path, graph):
        session = api.Session(cache_dir=tmp_path)
        assert session.store is not None
        assert session.store.cache_dir == tmp_path

    def test_no_store_by_default(self, graph):
        # The historic facade behavior: an unconfigured one-shot call
        # runs uncached, so Session must not invent a store.
        assert api.Session().store is None

    def test_options_cache_adopted(self, graph):
        store = SimilarityStore()
        session = api.Session(options=ExecutionOptions(cache=store))
        assert session.store is store


class TestFacadeIsThinWrapper:
    """The module-level entry points are one-shot sessions now."""

    def test_cluster_unchanged(self, graph):
        a = api.cluster(graph, PARAMS)
        b = api.cluster(graph, PARAMS, algorithm="scan")
        assert_same_clustering(a, b)

    def test_typed_path_emits_no_warning(self, graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.cluster(graph, PARAMS, options=ExecutionOptions())

    def test_compare_still_agrees(self, graph):
        outcome = api.compare(graph, PARAMS, algorithms=["scan", "ppscan"])
        assert set(outcome.results) == {"scan", "ppscan"}

    def test_sweep_still_works(self, graph):
        outcome = api.sweep(graph, [0.4, 0.6], [2])
        assert len(outcome.points) == 2


class TestCounts:
    """The memoized counts the service's warm path reads."""

    def test_counts_match_the_result(self, handle):
        result = handle.cluster(PARAMS)
        expected = (
            result.num_clusters,
            result.num_cores,
            result.num_vertices,
        )
        assert handle.counts(result) == expected
        assert handle.counts(result) == expected  # memo hit

    def test_result_not_served_by_the_handle_is_not_memoized(
        self, graph, handle
    ):
        other = api.cluster(graph, PARAMS)
        assert handle.counts(other) == (
            other.num_clusters,
            other.num_cores,
            other.num_vertices,
        )
        assert not handle.version.counts

    def test_counts_follow_the_repaired_point(self, graph):
        handle = api.open(graph)
        before = handle.cluster(PARAMS)
        handle.counts(before)
        # Bridge two planted blocks: the repaired point is a new result.
        handle.apply_updates([("+", 0, graph.num_vertices - 1)])
        after = handle.lookup(PARAMS)
        assert after is not before
        assert handle.counts(after) == (
            after.num_clusters,
            after.num_cores,
            after.num_vertices,
        )


class TestEncodedLabels:
    """The memoized label text the service's ``include=labels`` reads."""

    def test_text_encodes_the_result(self, handle):
        result = handle.cluster(PARAMS)
        texts = handle.encoded_labels(result)
        assert json.loads(texts["roles"]) == result.roles.tolist()
        assert json.loads(texts["core_labels"]) == result.core_labels.tolist()
        assert texts["noncore_pairs"] == json.dumps(
            [[int(a), int(b)] for a, b in result.noncore_pairs]
        )
        assert handle.encoded_labels(result) is texts  # memo hit

    def test_result_not_served_by_the_handle_is_not_memoized(
        self, graph, handle
    ):
        other = api.cluster(graph, PARAMS)
        texts = handle.encoded_labels(other)
        assert json.loads(texts["roles"]) == other.roles.tolist()
        assert not handle.version.encoded_labels

    def test_memo_serves_only_its_own_result(self, handle):
        result = handle.cluster(PARAMS)
        handle.encoded_labels(result)
        unclustered = ClusteringResult(
            "test",
            PARAMS,
            np.zeros_like(result.roles),
            np.full_like(result.core_labels, -1),
            [],
        )
        texts = handle.encoded_labels(unclustered)
        assert texts["core_labels"] == json.dumps([-1] * result.num_vertices)
        assert texts["noncore_pairs"] == "[]"

    def test_labels_follow_the_repaired_point(self, graph):
        handle = api.open(graph)
        before = handle.cluster(PARAMS)
        stale = handle.encoded_labels(before)
        handle.apply_updates([("+", 0, graph.num_vertices - 1)])
        after = handle.lookup(PARAMS)
        assert after is not before
        texts = handle.encoded_labels(after)
        assert texts is not stale
        reference = api.cluster(handle.graph, PARAMS)
        assert texts == api.open(handle.graph).encoded_labels(reference)
        # An answer from before the batch is encoded afresh, never served
        # from (or stored into) the new version's memo.
        assert handle.encoded_labels(before) == stale
        assert handle.encoded_labels(after) is texts


class TestApplyUpdates:
    """Streaming mutation through the handle: re-stamp + warm serving."""

    def test_restamps_fingerprint_and_graph(self, graph):
        handle = api.open(graph)
        old_fp = handle.fingerprint
        report = handle.apply_updates([("+", 0, graph.num_vertices - 1)])
        assert report.effective == 1
        assert handle.fingerprint == report.fingerprint != old_fp
        assert handle.graph is not graph
        assert handle.graph.num_edges == graph.num_edges + 1
        assert handle.fingerprint == graph_fingerprint(handle.graph)
        assert handle.batches_applied == 1
        assert handle.stats()["streaming"] is True

    def test_warm_points_survive_updates_bit_identically(self, graph):
        handle = api.open(graph)
        handle.cluster(PARAMS)
        handle.apply_updates(
            {"insert": [[0, graph.num_vertices - 1]], "remove": []}
        )
        warm = handle.lookup(PARAMS)
        assert warm is not None, "materialized point must stay warm"
        assert_same_clustering(warm, api.cluster(handle.graph, PARAMS))
        assert handle.cluster(PARAMS) is warm

    def test_queries_after_update_use_stream(self, graph):
        handle = api.open(graph)
        handle.apply_updates([("+", 0, graph.num_vertices - 1)])
        fresh = ScanParams(0.45, 2)
        assert handle.lookup(fresh) is None
        assert_same_clustering(
            handle.cluster(fresh), api.cluster(handle.graph, fresh)
        )

    def test_rejected_update_leaves_handle_intact(self, graph):
        handle = api.open(graph)
        before = handle.cluster(PARAMS)
        fp = handle.fingerprint
        with pytest.raises(IndexError):
            handle.apply_updates([("+", 0, 10_000)])
        assert handle.fingerprint == fp
        assert handle.lookup(PARAMS) is before

    def test_session_discard_after_updates(self, graph):
        session = api.Session()
        handle = session.open(graph)
        handle.apply_updates([("+", 0, graph.num_vertices - 1)])
        assert handle in session.handles()
        session.discard(handle)
        assert handle not in session.handles()
        assert handle.stats()["streaming"] is False

    def test_first_batch_reuses_the_index_overlaps(self, graph, handed):
        # Without a store, an engine seeded by a second whole-graph overlap
        # pass would hand edge_overlaps every edge; seeded from the index
        # it intersects only the batch's frontier.
        handle = api.open(graph)
        handle.ensure_index()
        assert handle.store is None
        handed.clear()
        report = handle.apply_updates([("+", 0, graph.num_vertices - 1)])
        assert report.arcs_repaired > 0
        assert sum(handed) == report.arcs_repaired
        assert sum(handed) < graph.num_edges

    def test_rejected_batch_keeps_the_engine(self, graph, handed):
        handle = api.open(graph)
        handle.apply_updates([("+", 0, graph.num_vertices - 1)])
        with pytest.raises(IndexError):
            handle.apply_updates([("+", 1, 10_000)])
        handed.clear()
        report = handle.apply_updates([("+", *_non_edge(handle.graph, 1))])
        assert report.arcs_repaired > 0
        assert sum(handed) == report.arcs_repaired

    def test_failed_batch_reseeds_from_the_published_overlaps(
        self, graph, handed, monkeypatch
    ):
        from repro.core import dynamic_index

        handle = api.open(graph)
        handle.apply_updates([("+", 0, graph.num_vertices - 1)])
        published = handle.version
        edit = [("+", *_non_edge(handle.graph, 1))]
        spy = dynamic_index.edge_overlaps
        monkeypatch.setattr(
            dynamic_index, "edge_overlaps", mock.Mock(side_effect=RuntimeError)
        )
        with pytest.raises(RuntimeError):
            handle.apply_updates(edit)  # fails after the engine's graph took it
        assert handle.version is published
        monkeypatch.setattr(dynamic_index, "edge_overlaps", spy)
        handed.clear()
        report = handle.apply_updates(edit)
        assert report.effective == 1
        assert sum(handed) == report.arcs_repaired
        assert_same_clustering(
            handle.cluster(PARAMS), api.cluster(handle.graph, PARAMS)
        )

    def test_failed_batch_leaves_the_store_on_the_published_version(
        self, monkeypatch
    ):
        # A point repair that raises must leave the published version's
        # store entry in place and no entry for the never-published graph.
        store = SimilarityStore()
        handle = api.Session(store=store).open(erdos_renyi(60, 240, seed=3))
        params = ScanParams(0.3, 2)
        handle.cluster(params)
        published = handle.fingerprint
        assert store.peek(published) is not None
        edit = [("+", *_non_edge(handle.graph, 0))]
        monkeypatch.setattr(
            StreamingEngine, "_recluster", mock.Mock(side_effect=RuntimeError)
        )
        with pytest.raises(RuntimeError):
            handle.apply_updates(edit)
        assert handle.fingerprint == published
        assert store.peek(published) is not None
        fingerprints = {entry.fingerprint for entry in store.entries()}
        monkeypatch.undo()
        report = handle.apply_updates(edit)
        assert report.fingerprint != published
        assert fingerprints == {published}
        assert store.peek(report.fingerprint) is not None

    def test_store_follows_the_stream(self, graph):
        store = SimilarityStore()
        session = api.Session(store=store)
        handle = session.open(graph)
        handle.cluster(PARAMS)
        old_fp = handle.fingerprint
        handle.apply_updates([("+", 0, graph.num_vertices - 1)])
        assert store.peek(old_fp) is None
        assert store.peek(handle.fingerprint) is not None
