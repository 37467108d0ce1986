"""Unit tests for :mod:`repro.cache` — the cross-run similarity store.

Covers content fingerprinting (and its invalidation through
:class:`~repro.graph.dynamic.DynamicGraph` mutation), mirrored
record/lookup, disk spill/reload, rejection of stale or corrupt
persisted entries as *clean misses*, the fork-safety pid guard, and the
exact integer threshold-boundary decisions the store must reproduce.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from repro import api
from repro.cache import (
    STORE_VERSION,
    SimilarityStore,
    StoreEntry,
    graph_fingerprint,
)
from repro.cache.store import THRESHOLD_MEMO
from repro.core import assert_same_clustering, ppscan
from repro.core.context import RunContext
from repro.graph import from_edges
from repro.graph.csr import reverse_arc_index
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import erdos_renyi
from repro.intersect import merge_count
from repro.options import ExecutionOptions
from repro.similarity.bulk import min_cn_arcs
from repro.similarity.threshold import min_cn_threshold
from repro.types import NSIM, SIM, ScanParams

PARAMS = ScanParams(0.5, 3)


def small_graph():
    return erdos_renyi(40, 140, seed=7)


class TestFingerprint:
    def test_deterministic(self):
        a = erdos_renyi(30, 90, seed=1)
        b = erdos_renyi(30, 90, seed=1)
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_distinguishes_graphs(self):
        a = erdos_renyi(30, 90, seed=1)
        b = erdos_renyi(30, 90, seed=2)
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_changes_on_dynamic_mutation(self):
        graph = small_graph()
        dyn = DynamicGraph.from_csr(graph)
        u, v = 0, graph.num_vertices - 1
        if dyn.has_edge(u, v):
            dyn.remove_edge(u, v)
        else:
            dyn.insert_edge(u, v)
        mutated = dyn.snapshot()
        assert graph_fingerprint(mutated) != graph_fingerprint(graph)

    def test_mutation_keys_a_fresh_entry(self):
        """A structural edit must never see the old graph's overlaps."""
        graph = small_graph()
        store = SimilarityStore()
        api.cluster(graph, PARAMS, options=ExecutionOptions(cache=store))
        warm = store.entry_for(graph)
        assert warm.covered > 0

        dyn = DynamicGraph.from_csr(graph)
        u, v = 0, graph.num_vertices - 1
        if not dyn.insert_edge(u, v):
            dyn.remove_edge(u, v)
        mutated = dyn.snapshot()
        fresh = store.entry_for(mutated)
        assert fresh is not warm
        assert fresh.covered == 0

        # And the mutated graph still clusters correctly through the store.
        opts = ExecutionOptions(cache=store)
        assert_same_clustering(
            api.cluster(mutated, PARAMS),
            api.cluster(mutated, PARAMS, options=opts),
        )


class TestRecordLookup:
    def test_record_one_mirrors_reverse_arc(self):
        graph = small_graph()
        entry = StoreEntry(graph, graph_fingerprint(graph))
        u = int(np.argmax(graph.degrees))
        v = int(graph.neighbors(u)[0])
        arc = graph.edge_offset(u, v)
        rev = graph.edge_offset(v, u)
        entry.record_one(arc, 5)
        assert entry.coverage[arc] and entry.coverage[rev]
        assert entry.overlap[arc] == entry.overlap[rev] == 5
        assert entry.dirty

    def test_record_batch_mirrors(self):
        graph = small_graph()
        entry = StoreEntry(graph, graph_fingerprint(graph))
        arcs = np.arange(0, graph.num_arcs, 3, dtype=np.int64)
        entry.record(arcs, np.full(arcs.size, 4, dtype=np.int64))
        src = graph.arc_source()
        for arc in arcs[:20]:
            u, v = int(src[arc]), int(graph.dst[arc])
            assert entry.coverage[graph.edge_offset(v, u)]
            assert entry.overlap[graph.edge_offset(v, u)] == 4

    def test_recorded_overlaps_are_exact(self):
        """Every covered overlap equals the ground-truth |N[u] ∩ N[v]|."""
        graph = small_graph()
        store = SimilarityStore()
        api.cluster(graph, PARAMS, options=ExecutionOptions(cache=store))
        entry = store.entry_for(graph)
        src = graph.arc_source()
        adj = [graph.neighbors(u) for u in range(graph.num_vertices)]
        for arc in np.flatnonzero(entry.coverage):
            u, v = int(src[arc]), int(graph.dst[arc])
            truth = merge_count(adj[u], adj[v]) + 2
            assert entry.overlap[arc] == truth

    def test_pid_guard_blocks_foreign_process_writes(self):
        graph = small_graph()
        entry = StoreEntry(graph, graph_fingerprint(graph))
        entry._owner_pid += 1  # simulate a forked worker's view
        entry.record_one(0, 7)
        entry.record(np.array([1, 2]), np.array([3, 3]))
        assert entry.covered == 0
        assert not entry.dirty


class TestSharedArrays:
    """Per-graph arrays the entry memoizes for every run sharing it."""

    def test_reverse_index_is_built_once_and_read_only(self):
        graph = small_graph()
        entry = StoreEntry(graph, graph_fingerprint(graph))
        rev = entry.reverse_arcs()
        assert entry.reverse_arcs() is rev
        assert rev.tolist() == reverse_arc_index(graph).tolist()
        with pytest.raises(ValueError):
            rev[0] = 0

    def test_thresholds_memoized_per_eps_and_exact(self):
        graph = small_graph()
        entry = StoreEntry(graph, graph_fingerprint(graph))
        eps = ScanParams(0.5, 2).eps_fraction
        mcn = entry.thresholds(eps)
        assert entry.thresholds(Fraction(1, 2)) is mcn
        assert mcn.tolist() == min_cn_arcs(graph, eps).tolist()
        assert entry.thresholds(Fraction(3, 5)) is not mcn
        with pytest.raises(ValueError):
            mcn[0] = 0

    def test_threshold_memo_is_bounded(self):
        graph = small_graph()
        entry = StoreEntry(graph, graph_fingerprint(graph))
        first = entry.thresholds(Fraction(1, 100))
        for k in range(2, THRESHOLD_MEMO + 2):
            entry.thresholds(Fraction(k, 100))
        assert len(entry._thresholds) == THRESHOLD_MEMO
        again = entry.thresholds(Fraction(1, 100))
        assert again is not first  # the oldest ε was dropped and rebuilt
        assert again.tolist() == first.tolist()

    def test_runs_sharing_a_store_share_the_arrays(self):
        graph = small_graph()
        store = SimilarityStore()
        contexts = [
            RunContext(graph, ScanParams(0.5, mu), store=store)
            for mu in (2, 3)
        ]
        assert contexts[0].rev_np is contexts[1].rev_np
        assert contexts[0].mcn_np is contexts[1].mcn_np
        plain = RunContext(graph, ScanParams(0.5, 2))
        assert plain.rev_np.tolist() == contexts[0].rev_np.tolist()
        assert plain.mcn_np.tolist() == contexts[0].mcn_np.tolist()


class TestDiskLayer:
    def _warm_disk(self, tmp_path, graph):
        store = SimilarityStore(cache_dir=tmp_path)
        api.cluster(graph, PARAMS, options=ExecutionOptions(cache=store))
        assert store.spill() == 1
        return store

    def test_spill_and_reload_round_trip(self, tmp_path):
        graph = small_graph()
        first = self._warm_disk(tmp_path, graph)
        warm_entry = first.entry_for(graph)

        reloaded = SimilarityStore(cache_dir=tmp_path)
        entry = reloaded.entry_for(graph)
        assert np.array_equal(entry.coverage, warm_entry.coverage)
        assert np.array_equal(entry.overlap, warm_entry.overlap)

        opts = ExecutionOptions(cache=reloaded)
        result = api.cluster(graph, PARAMS, options=opts)
        assert reloaded.stats().misses == 0
        assert reloaded.stats().hits > 0
        assert_same_clustering(api.cluster(graph, PARAMS), result)

    def test_spill_is_idempotent(self, tmp_path):
        graph = small_graph()
        store = self._warm_disk(tmp_path, graph)
        assert store.spill() == 0  # nothing dirty the second time

    def _sidecar(self, tmp_path):
        (meta_path,) = tmp_path.glob("simstore-*.json")
        return meta_path

    @pytest.mark.parametrize("field,value", [
        ("version", STORE_VERSION + 1),
        ("fingerprint", "0" * 40),
        ("num_arcs", 1),
    ])
    def test_stale_sidecar_is_a_clean_miss(self, tmp_path, field, value):
        graph = small_graph()
        self._warm_disk(tmp_path, graph)
        meta_path = self._sidecar(tmp_path)
        meta = json.loads(meta_path.read_text())
        meta[field] = value
        meta_path.write_text(json.dumps(meta))

        store = SimilarityStore(cache_dir=tmp_path)
        entry = store.entry_for(graph)
        assert entry.covered == 0
        assert store.rejects == 1
        # The run still succeeds, bit-identically, rebuilding the entry.
        opts = ExecutionOptions(cache=store)
        assert_same_clustering(
            api.cluster(graph, PARAMS),
            api.cluster(graph, PARAMS, options=opts),
        )
        assert store.stats().misses > 0

    def test_truncated_npz_is_a_clean_miss(self, tmp_path):
        graph = small_graph()
        self._warm_disk(tmp_path, graph)
        (npz_path,) = tmp_path.glob("simstore-*.npz")
        npz_path.write_bytes(npz_path.read_bytes()[:40])

        store = SimilarityStore(cache_dir=tmp_path)
        entry = store.entry_for(graph)
        assert entry.covered == 0
        assert store.rejects == 1

    def test_unparseable_sidecar_is_a_clean_miss(self, tmp_path):
        graph = small_graph()
        self._warm_disk(tmp_path, graph)
        self._sidecar(tmp_path).write_text("{not json")
        store = SimilarityStore(cache_dir=tmp_path)
        assert store.entry_for(graph).covered == 0
        assert store.rejects == 1


def boundary_graph(common: int):
    """deg(u) = deg(v) = 5 with ``common`` shared open neighbors.

    At ε = 1/2 the similarity threshold for the (u, v) arc is exactly
    ``sqrt(ε² · 6 · 6) = 3``, hit with equality when ``common == 1``
    (closed overlap {u, v, c} = 3).
    """
    u, v = 0, 1
    edges = [(u, v)]
    nxt = 2
    for _ in range(common):
        edges += [(u, nxt), (v, nxt)]
        nxt += 1
    for _ in range(4 - common):  # pad u to degree 5
        edges.append((u, nxt))
        nxt += 1
    for _ in range(4 - common):  # pad v to degree 5
        edges.append((v, nxt))
        nxt += 1
    return from_edges(edges, num_vertices=nxt)


class TestThresholdBoundary:
    """overlap² · q² == p² · (d(u)+1)(d(v)+1) exactly: ``>=`` must win."""

    EPS = Fraction(1, 2)

    def test_threshold_is_exact(self):
        # 3² · 2² == 1² · 6 · 6 — the boundary case of Definition 2.2.
        assert min_cn_threshold(self.EPS, 5, 5) == 3
        assert 3 * 3 * 4 == 1 * 1 * 6 * 6

    @pytest.mark.parametrize("common,expected", [
        (0, NSIM),  # overlap 2, one below the boundary
        (1, SIM),   # overlap 3 == threshold: equality is similar
        (2, SIM),   # overlap 4, one above
    ])
    def test_cached_decision_matches_kernel(self, common, expected):
        graph = boundary_graph(common)
        params = ScanParams(0.5, 2)
        arc = graph.edge_offset(0, 1)

        # Reference: the plain kernel path, no store.
        ctx = RunContext(graph, params, kernel="merge")
        plain = SIM if ctx.compsim_arc(0, arc) else NSIM
        assert plain == expected

        # Miss path (computes + records), then hit path (reads back).
        store = SimilarityStore()
        cctx = RunContext(graph, params, kernel="merge", store=store)
        adj_u, adj_v = graph.neighbors(0), graph.neighbors(1)
        mcn = cctx.mcn[arc]
        assert cctx.engine.resolve_arc_cached(arc, adj_u, adj_v, mcn) == expected
        assert cctx.engine.resolve_arc_cached(arc, adj_u, adj_v, mcn) == expected
        entry = store.entry_for(graph)
        assert entry.hits == 1 and entry.misses == 1
        assert entry.overlap[arc] == common + 2

        # Integer arithmetic is the single source of truth.
        p, q = self.EPS.numerator, self.EPS.denominator
        lhs = int(entry.overlap[arc]) ** 2 * q * q
        rhs = p * p * (graph.degree(0) + 1) * (graph.degree(1) + 1)
        assert (lhs >= rhs) == (expected == SIM)

    @pytest.mark.parametrize("common", [0, 1, 2])
    def test_full_run_boundary_identical_with_store(self, common):
        graph = boundary_graph(common)
        params = ScanParams(0.5, 2)
        store = SimilarityStore()
        reference = ppscan(graph, params)
        cold = api.cluster(graph, params, options=ExecutionOptions(cache=store))
        warm = api.cluster(graph, params, options=ExecutionOptions(cache=store))
        assert_same_clustering(reference, cold)
        assert_same_clustering(reference, warm)

    def test_prefold_respects_boundary(self):
        """The vectorized prefold must decide equality the same way."""
        graph = boundary_graph(1)
        params = ScanParams(0.5, 2)
        store = SimilarityStore()
        ctx = RunContext(graph, params, kernel="merge", store=store)
        arc = graph.edge_offset(0, 1)
        store.entry_for(graph).record_one(arc, 3)
        from repro.types import UNKNOWN

        states = np.full(graph.num_arcs, UNKNOWN, dtype=np.int8)
        folded = ctx.engine.prefold_cached(states, ctx.mcn_np)
        assert folded == 2  # the arc and its mirror
        assert states[arc] == SIM


class TestSpillDurability:
    """Spills go through the shared atomic-write helper: no temp files
    left behind, and a torn write of either file is a clean miss."""

    def _warm_disk(self, tmp_path, graph):
        store = SimilarityStore(cache_dir=tmp_path)
        api.cluster(graph, PARAMS, options=ExecutionOptions(cache=store))
        assert store.spill() == 1
        return store

    def test_no_temp_droppings(self, tmp_path):
        self._warm_disk(tmp_path, small_graph())
        suffixes = {p.suffix for p in tmp_path.iterdir()}
        assert suffixes == {".npz", ".json"}

    def test_torn_sidecar_is_a_clean_miss(self, tmp_path):
        graph = small_graph()
        self._warm_disk(tmp_path, graph)
        sidecar = next(tmp_path.glob("*.json"))
        text = sidecar.read_text()
        sidecar.write_text(text[: len(text) // 2])
        cold = SimilarityStore(cache_dir=tmp_path)
        entry = cold.entry_for(graph)
        assert entry.covered == 0
        assert cold.rejects == 1

    def test_torn_payload_is_a_clean_miss(self, tmp_path):
        graph = small_graph()
        self._warm_disk(tmp_path, graph)
        payload = next(tmp_path.glob("*.npz"))
        raw = payload.read_bytes()
        payload.write_bytes(raw[: len(raw) // 2])
        cold = SimilarityStore(cache_dir=tmp_path)
        entry = cold.entry_for(graph)
        assert entry.covered == 0
        assert cold.rejects == 1

    def test_respill_after_torn_write_recovers(self, tmp_path):
        graph = small_graph()
        self._warm_disk(tmp_path, graph)
        sidecar = next(tmp_path.glob("*.json"))
        sidecar.write_text("{")
        cold = SimilarityStore(cache_dir=tmp_path)
        api.cluster(graph, PARAMS, options=ExecutionOptions(cache=cold))
        assert cold.spill() == 1
        warm = SimilarityStore(cache_dir=tmp_path)
        assert warm.entry_for(graph).covered > 0
        assert warm.rejects == 0


def _ground_truth_overlaps(graph):
    """Exact closed overlap |N[u] ∩ N[v]| for every arc."""
    src = graph.arc_source()
    adj = [graph.neighbors(u) for u in range(graph.num_vertices)]
    truth = np.empty(graph.num_arcs, dtype=np.int64)
    for arc in range(graph.num_arcs):
        u, v = int(src[arc]), int(graph.dst[arc])
        truth[arc] = merge_count(adj[u], adj[v]) + 2
    return truth


class TestConcurrentReaders:
    """Two threads resolving *overlapping* arc sets against one store.

    The service runs heavy queries on an executor, so the same
    :class:`StoreEntry` is written from multiple threads at once.  The
    invariants: every committed overlap is the exact ground truth
    (idempotent double-commits, never a torn mix), the coverage bitmap
    stays mirror-consistent (arc covered ⇔ reverse arc covered), and a
    spill taken mid-write snapshots a coherent entry.
    """

    ROUNDS = 4

    def _record_range(self, entry, truth, arcs, barrier):
        barrier.wait()
        # Interleave the batch and scalar write paths in small chunks so
        # the two threads genuinely overlap inside the entry.
        for start in range(0, len(arcs), 16):
            chunk = arcs[start : start + 16]
            entry.record(chunk, truth[chunk])
            for arc in chunk[:2]:
                entry.record_one(int(arc), int(truth[arc]))

    def test_two_threads_overlapping_arc_sets(self):
        import threading

        graph = small_graph()
        truth = _ground_truth_overlaps(graph)
        entry = StoreEntry(graph, graph_fingerprint(graph))
        arcs = np.arange(graph.num_arcs, dtype=np.int64)
        # Deliberately overlapping thirds: the middle third is committed
        # by both threads (the double-commit case).
        split_a = arcs[: 2 * graph.num_arcs // 3]
        split_b = arcs[graph.num_arcs // 3 :]

        for _ in range(self.ROUNDS):
            barrier = threading.Barrier(2)
            threads = [
                threading.Thread(
                    target=self._record_range,
                    args=(entry, truth, part, barrier),
                )
                for part in (split_a, split_b)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert entry.covered == graph.num_arcs
        assert np.array_equal(entry.overlap, truth)
        rev = entry.reverse_arcs()
        assert np.array_equal(entry.coverage, entry.coverage[rev])
        assert np.array_equal(entry.overlap, entry.overlap[rev])

    def test_concurrent_entry_for_is_single_entry(self):
        import threading

        graph = small_graph()
        store = SimilarityStore()
        barrier = threading.Barrier(8)
        seen = []
        lock = threading.Lock()

        def grab():
            barrier.wait()
            entry = store.entry_for(graph)
            with lock:
                seen.append(entry)

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == 8
        assert all(e is seen[0] for e in seen)

    def test_concurrent_resolution_stays_exact(self):
        """Two engine contexts racing over every arc: decisions match
        the plain kernel and the store ends up exactly ground truth."""
        import threading

        graph = small_graph()
        truth = _ground_truth_overlaps(graph)
        store = SimilarityStore()
        src = graph.arc_source()
        adj = [graph.neighbors(u) for u in range(graph.num_vertices)]

        plain = RunContext(graph, PARAMS, kernel="merge")
        reference = [
            SIM if plain.compsim_arc(int(src[arc]), arc) else NSIM
            for arc in range(graph.num_arcs)
        ]

        barrier = threading.Barrier(2)
        failures = []

        def resolve_all(order):
            ctx = RunContext(graph, PARAMS, kernel="merge", store=store)
            barrier.wait()
            for arc in order:
                u, v = int(src[arc]), int(graph.dst[arc])
                got = ctx.engine.resolve_arc_cached(
                    arc, adj[u], adj[v], ctx.mcn[arc]
                )
                if got != reference[arc]:
                    failures.append((arc, got))

        forward = range(graph.num_arcs)
        backward = range(graph.num_arcs - 1, -1, -1)
        threads = [
            threading.Thread(target=resolve_all, args=(order,))
            for order in (forward, backward)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not failures
        entry = store.entry_for(graph)
        assert entry.covered == graph.num_arcs
        assert np.array_equal(entry.overlap, truth)

    def test_spill_during_writes_snapshots_consistently(self, tmp_path):
        import threading

        graph = small_graph()
        truth = _ground_truth_overlaps(graph)
        store = SimilarityStore(cache_dir=tmp_path)
        entry = store.entry_for(graph)
        arcs = np.arange(graph.num_arcs, dtype=np.int64)
        barrier = threading.Barrier(2)

        def writer():
            barrier.wait()
            for start in range(0, len(arcs), 8):
                chunk = arcs[start : start + 8]
                entry.record(chunk, truth[chunk])

        t = threading.Thread(target=writer)
        t.start()
        barrier.wait()
        while t.is_alive():
            store.spill()
        t.join()
        store.spill()  # final spill captures the complete entry

        reloaded = SimilarityStore(cache_dir=tmp_path).entry_for(graph)
        covered = np.flatnonzero(reloaded.coverage)
        # Whatever made it to disk is exact and mirror-consistent.
        assert np.array_equal(reloaded.overlap[covered], truth[covered])
        rev = reloaded.reverse_arcs()
        assert np.array_equal(reloaded.coverage, reloaded.coverage[rev])
        # The final spill happened after the writer finished.
        assert reloaded.covered == graph.num_arcs
