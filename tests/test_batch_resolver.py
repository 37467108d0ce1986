"""Batched arc-resolution exactness: the batch intersector's counts match
the merge-count oracle, and :meth:`SimilarityEngine.resolve_arcs` makes
SIM/NSIM decisions bit-identical to every early-terminating scalar kernel
across ε, μ, lane widths and arc-batch shapes."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import complete_graph, from_edges
from repro.graph.generators import chung_lu, erdos_renyi, powerlaw_weights
from repro.core.gsindex import edge_overlaps
from repro.graph.csr import reverse_arc_index
from repro.intersect import (
    BatchIntersector,
    OpCounter,
    concat_ranges,
    merge_count,
)
from repro.intersect import batch as batch_module
from repro.intersect.batch import MARK_GROUP_WORK, PROBE_SWAP_RATIO, _segment_sums
from repro.obs.tracer import Tracer, use_tracer
from repro.similarity import SimilarityEngine
from repro.types import NSIM, SIM, ScanParams


def oracle_counts(graph, arcs):
    """``|N(src) ∩ N(dst)|`` per arc, via the scalar merge-count kernel."""
    src = graph.arc_source()
    return np.array(
        [
            merge_count(
                graph.neighbors(int(src[a])), graph.neighbors(int(graph.dst[a]))
            )
            for a in arcs
        ],
        dtype=np.int64,
    )


def oracle_group_counts(graph, u, candidates):
    """``|N(u) ∩ N(v)|`` per candidate ``v``, via merge-count."""
    return [
        merge_count(graph.neighbors(u), graph.neighbors(int(v)))
        for v in candidates
    ]


@st.composite
def random_graph(draw, min_n=2, max_n=45):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    max_edges = n * (n - 1) // 2
    m = draw(st.integers(min_value=0, max_value=min(max_edges, 4 * n)))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    if draw(st.booleans()):
        return erdos_renyi(n, m, seed=seed)
    return chung_lu(powerlaw_weights(n, 2.5), m, seed=seed)


class TestConcatRanges:
    def test_basic(self):
        out = concat_ranges(np.array([0, 7]), np.array([3, 9]))
        assert out.tolist() == [0, 1, 2, 7, 8]

    def test_empty_segments(self):
        out = concat_ranges(np.array([4, 2, 9]), np.array([4, 5, 9]))
        assert out.tolist() == [2, 3, 4]

    def test_all_empty(self):
        assert concat_ranges(np.array([3]), np.array([3])).size == 0
        assert concat_ranges(np.array([], dtype=np.int64),
                             np.array([], dtype=np.int64)).size == 0

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=12),
            ),
            max_size=30,
        )
    )
    def test_matches_python_ranges(self, segs):
        starts = np.array([s for s, _ in segs], dtype=np.int64)
        ends = np.array([s + l for s, l in segs], dtype=np.int64)
        expected = [v for s, l in segs for v in range(s, s + l)]
        assert concat_ranges(starts, ends).tolist() == expected


class TestSegmentSums:
    @given(
        st.lists(st.integers(min_value=0, max_value=9), max_size=25),
    )
    def test_matches_python_sums(self, lens):
        total = sum(lens)
        rng = np.random.default_rng(0)
        hits = rng.integers(0, 2, size=total).astype(bool)
        out = _segment_sums(hits, np.array(lens, dtype=np.int64))
        pos = 0
        expected = []
        for l in lens:
            expected.append(int(hits[pos : pos + l].sum()))
            pos += l
        assert out.tolist() == expected

    def test_zero_length_segments(self):
        hits = np.array([True, False, True, True])
        lens = np.array([0, 2, 0, 2, 0], dtype=np.int64)
        assert _segment_sums(hits, lens).tolist() == [0, 1, 0, 2, 0]

    def test_bool_hits_summed_not_ored(self):
        # np.add.reduceat on a bool array computes logical-or; the helper
        # must force an integer accumulator.
        hits = np.array([True, True, True])
        assert _segment_sums(hits, np.array([3])).tolist() == [3]


class TestBatchIntersector:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(random_graph(), st.integers(min_value=0, max_value=2**31))
    def test_arc_counts_match_oracle(self, graph, seed):
        if graph.num_arcs == 0:
            return
        arcs = np.arange(graph.num_arcs, dtype=np.int64)
        batch = BatchIntersector(graph)
        assert batch.arc_counts(arcs).tolist() == oracle_counts(
            graph, arcs
        ).tolist()

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(random_graph(), st.integers(min_value=0, max_value=2**31))
    def test_unsorted_subset_matches_oracle(self, graph, seed):
        if graph.num_arcs == 0:
            return
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, graph.num_arcs + 1))
        arcs = rng.permutation(graph.num_arcs)[:size].astype(np.int64)
        got = BatchIntersector(graph).arc_counts(arcs)
        assert got.tolist() == oracle_counts(graph, arcs).tolist()

    @pytest.mark.parametrize("mark_group_work", [0, 1, 4, MARK_GROUP_WORK, 10**9])
    def test_strategy_cutover_is_invisible(self, mark_group_work):
        # Any mark/keyed split must produce the identical exact counts:
        # 0 forces every group through the mark pass, 10**9 forces the
        # single keyed pass, the middle values mix both.
        graph = erdos_renyi(40, 150, seed=7)
        arcs = np.arange(graph.num_arcs, dtype=np.int64)
        batch = BatchIntersector(graph)
        got = batch.arc_counts(arcs, mark_group_work=mark_group_work)
        assert got.tolist() == oracle_counts(graph, arcs).tolist()

    def test_keyed_and_mark_paths_agree(self):
        graph = chung_lu(powerlaw_weights(50, 2.3), 180, seed=3)
        arcs = np.arange(graph.num_arcs, dtype=np.int64)
        batch = BatchIntersector(graph)
        src = graph.arc_source()
        keyed = batch.keyed_counts(src[arcs], graph.dst[arcs])
        marked = np.empty(arcs.size, dtype=np.int64)
        for u in range(graph.num_vertices):
            lo, hi = int(graph.offsets[u]), int(graph.offsets[u + 1])
            marked[lo:hi] = batch.group_counts(u, graph.dst[lo:hi])
        assert keyed.tolist() == marked.tolist()
        assert (src[arcs] >= 0).all()  # sanity: every arc had a source

    def test_empty_batch(self):
        graph = complete_graph(5)
        batch = BatchIntersector(graph)
        empty = np.empty(0, dtype=np.int64)
        assert batch.arc_counts(empty).size == 0
        assert batch.keyed_counts(empty, empty).size == 0
        assert batch.group_counts(0, empty).size == 0

    def test_duplicate_arcs(self):
        graph = erdos_renyi(20, 60, seed=11)
        arcs = np.array([3, 3, 0, 3, 7, 0], dtype=np.int64)
        got = BatchIntersector(graph).arc_counts(arcs)
        assert got.tolist() == oracle_counts(graph, arcs).tolist()

    @pytest.mark.parametrize(
        "graph",
        [complete_graph(6), erdos_renyi(60, 260, seed=4)],
        ids=["K6", "er"],
    )
    def test_edge_overlaps_match_oracle(self, graph):
        # The whole-graph overlap pass (smaller-side probe, chunked
        # arc_counts) every bulk caller uses: closed overlap = count + 2.
        arcs = np.flatnonzero(graph.arc_source() < graph.dst)
        got = edge_overlaps(graph, arcs, reverse_arc_index(graph)[arcs])
        assert got.tolist() == (oracle_counts(graph, arcs) + 2).tolist()

    def test_counter_charges_invocations_per_arc(self):
        graph = erdos_renyi(30, 90, seed=5)
        arcs = np.arange(graph.num_arcs, dtype=np.int64)
        counter = OpCounter()
        BatchIntersector(graph).arc_counts(arcs, counter=counter)
        assert counter.invocations == graph.num_arcs
        assert counter.vector_ops > 0


def hub_and_clique(leaves=800, clique=8):
    """Hub 0 joined to ``leaves`` degree-1 leaves and to a ``clique``-clique:
    its leaf→hub and clique→hub arcs are probed from the hub."""
    members = range(1, clique + 1)
    edges = [(0, v) for v in range(1, clique + leaves + 1)]
    edges += [(u, v) for u in members for v in members if u < v]
    return from_edges(edges)


class TestProbeSwap:
    """``arc_counts`` probes each arc from its cheaper side; swapped arcs
    take the mark path or the keyed path with the same exact counts."""

    GRAPH = hub_and_clique()

    def batch(self):
        """One unsorted batch with repeats, mixing leaf→hub, clique→hub
        (both swapped), hub→leaf and equal-degree clique arcs."""
        graph = self.GRAPH
        src = graph.arc_source()
        deg = graph.degrees
        dst = graph.dst
        to_hub = np.flatnonzero(dst == 0)
        from_hub = np.flatnonzero(src == 0)
        level = np.flatnonzero((src > 0) & (dst > 0))
        assert (deg[dst[level]] == deg[src[level]]).all()
        rng = np.random.default_rng(17)
        arcs = np.concatenate(
            [to_hub[::3], from_hub[::5], level, to_hub[:20], level[:6]]
        )
        return rng.permutation(arcs).astype(np.int64)

    def swapped(self, arcs):
        """Which of ``arcs`` the kernel probes from their target."""
        deg = self.GRAPH.degrees
        src = self.GRAPH.arc_source()[arcs]
        return deg[self.GRAPH.dst[arcs]] > PROBE_SWAP_RATIO * deg[src]

    def test_batch_mixes_swapped_and_kept_arcs(self):
        arcs = self.batch()
        swapped = self.swapped(arcs)
        assert swapped.any() and not swapped.all()
        assert np.unique(arcs).size < arcs.size  # repeated arcs
        assert (np.diff(self.GRAPH.arc_source()[arcs]) < 0).any()  # unsorted

    @pytest.mark.parametrize("mark_group_work", [0, MARK_GROUP_WORK, 10**9])
    def test_counts_match_oracle(self, mark_group_work):
        arcs = self.batch()
        got = BatchIntersector(self.GRAPH).arc_counts(
            arcs, mark_group_work=mark_group_work
        )
        assert got.tolist() == oracle_counts(self.GRAPH, arcs).tolist()

    @pytest.mark.parametrize("mark_group_work", [0, MARK_GROUP_WORK, 10**9])
    def test_charge_never_exceeds_unswapped(self, monkeypatch, mark_group_work):
        arcs = self.batch()
        charged = []
        for ratio in (PROBE_SWAP_RATIO, np.inf):
            monkeypatch.setattr(batch_module, "PROBE_SWAP_RATIO", ratio)
            counter = OpCounter()
            BatchIntersector(self.GRAPH).arc_counts(
                arcs, counter=counter, mark_group_work=mark_group_work
            )
            assert counter.invocations == arcs.size
            charged.append(counter.vector_ops)
        swapped, unswapped = charged
        assert 0 < swapped < unswapped

    def test_tracer_counts_swapped_arcs(self):
        arcs = self.batch()
        tracer = Tracer()
        with use_tracer(tracer):
            BatchIntersector(self.GRAPH).arc_counts(arcs)
        counts = tracer.metrics.as_dict()
        assert counts["batch.calls"] == 1
        assert counts["batch.arcs"] == arcs.size
        assert counts["batch.arcs_swapped"] == int(self.swapped(arcs).sum())


class TestGroupCounts:
    """The mark-and-count mask kernel for one source and arbitrary
    candidates, against merge-count."""

    def test_triangle_counts(self):
        graph = from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        batch = BatchIntersector(graph)
        assert batch.group_counts(0, np.array([1])).tolist() == [1]
        assert batch.group_counts(2, np.array([3])).tolist() == [0]

    @pytest.mark.parametrize(
        "u, cands",
        [
            (1, [4, 3, 3, 0, 5]),  # non-neighbor, repeated, isolated
            (4, [0, 1, 2, 3]),  # isolated source
            (0, [3, 3, 3]),
        ],
        ids=["mixed", "isolated-source", "repeated"],
    )
    def test_arbitrary_candidates_match_oracle(self, u, cands):
        graph = from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], num_vertices=6)
        cands = np.array(cands, dtype=np.int64)
        got = BatchIntersector(graph).group_counts(u, cands)
        assert got.tolist() == oracle_group_counts(graph, u, cands)


def oracle_pair_counts(graph, probes, candidates):
    """``|N(p) ∩ N(c)|`` per pair, via merge-count."""
    return [
        merge_count(graph.neighbors(int(p)), graph.neighbors(int(c)))
        for p, c in zip(probes, candidates)
    ]


class TestSlottedPasses:
    """One call split over several slotted passes (the table shrunk by
    monkeypatching ``TABLE_CELLS``) counts exactly what one pass does."""

    @pytest.mark.parametrize("slots", [1, 2, 3, 7])
    def test_multi_pass_arc_counts_match_oracle(self, monkeypatch, slots):
        graph = chung_lu(powerlaw_weights(120, 2.2), 500, seed=8)
        monkeypatch.setattr(
            batch_module, "TABLE_CELLS", slots * graph.num_vertices
        )
        arcs = np.random.default_rng(1).permutation(graph.num_arcs)
        got = BatchIntersector(graph).arc_counts(arcs)
        assert got.tolist() == oracle_counts(graph, arcs).tolist()

    @pytest.mark.parametrize("cells", [0, 1, 16])
    def test_single_group_passes(self, monkeypatch, cells):
        # Fewer cells than vertices: every pass holds exactly one group.
        monkeypatch.setattr(batch_module, "TABLE_CELLS", cells)
        graph = TestProbeSwap.GRAPH
        arcs = TestProbeSwap().batch()
        got = BatchIntersector(graph).arc_counts(arcs)
        assert got.tolist() == oracle_counts(graph, arcs).tolist()

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        random_graph(),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_random_pass_splits_match_oracle(self, graph, slots, seed):
        if graph.num_arcs == 0:
            return
        arcs = np.random.default_rng(seed).integers(
            0, graph.num_arcs, size=graph.num_arcs
        )
        saved = batch_module.TABLE_CELLS
        batch_module.TABLE_CELLS = slots * graph.num_vertices
        try:
            got = BatchIntersector(graph).arc_counts(arcs)
        finally:
            batch_module.TABLE_CELLS = saved
        assert got.tolist() == oracle_counts(graph, arcs).tolist()

    @pytest.mark.parametrize("cells", [0, 2 * 7, batch_module.TABLE_CELLS])
    def test_arbitrary_pairs_through_both_wrappers(self, monkeypatch, cells):
        # Unsorted and repeated probes, pairs in both orientations
        # (hub→leaf and leaf→hub), non-edges and isolated vertices 5, 6.
        monkeypatch.setattr(batch_module, "TABLE_CELLS", cells)
        graph = from_edges(
            [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3)], num_vertices=7
        )
        probes = np.array([3, 0, 1, 0, 4, 3, 5, 2, 1, 6, 0])
        cands = np.array([0, 3, 0, 1, 0, 0, 2, 5, 3, 6, 6])
        batch = BatchIntersector(graph)
        expected = oracle_pair_counts(graph, probes, cands)
        assert batch.keyed_counts(probes, cands).tolist() == expected
        for u in range(graph.num_vertices):
            got = batch.group_counts(u, cands)
            assert got.tolist() == oracle_group_counts(graph, u, cands)

    # (vector_ops at mark_group_work 0, MARK_GROUP_WORK, 10**9), lanes 16
    # and 8: the Algorithm 6 charges of the per-hub mark loop and the
    # keyed pass that this kernel replaced, pinned so the charge model
    # stays byte-identical.
    CHARGES = {
        "chung_lu": (900, {16: (931, 733, 717), 8: (1801, 1465, 1433)}),
        "hub": (514, {16: (120, 116, 65), 8: (239, 231, 130)}),
    }

    @staticmethod
    def fixed_batch(name):
        if name == "hub":
            return TestProbeSwap.GRAPH, TestProbeSwap().batch()
        graph = chung_lu(powerlaw_weights(300, 2.2), 1500, seed=5)
        rng = np.random.default_rng(3)
        return graph, rng.integers(0, graph.num_arcs, size=900)

    @pytest.mark.parametrize("name", ["chung_lu", "hub"])
    @pytest.mark.parametrize("lanes", [16, 8])
    def test_charges_unchanged(self, name, lanes):
        graph, arcs = self.fixed_batch(name)
        invocations, ops = self.CHARGES[name]
        for work, expected in zip((0, MARK_GROUP_WORK, 10**9), ops[lanes]):
            counter = OpCounter()
            BatchIntersector(graph).arc_counts(
                arcs, counter=counter, lanes=lanes, mark_group_work=work
            )
            assert (counter.invocations, counter.vector_ops) == (
                invocations,
                expected,
            )


class TestResolveArcs:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        random_graph(),
        st.sampled_from([0.1, 0.25, 0.4, 0.5, 0.65, 0.8, 0.95, 1.0]),
        st.integers(min_value=1, max_value=6),
        st.sampled_from(["merge", "pivot", "vectorized"]),
        st.sampled_from([8, 16]),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_bit_identical_to_scalar_kernel(
        self, graph, eps, mu, kernel, lanes, seed
    ):
        if graph.num_arcs == 0:
            return
        params = ScanParams(eps, mu)
        engine = SimilarityEngine(graph, params, kernel=kernel, lanes=lanes)
        rng = np.random.default_rng(seed)
        arcs = rng.permutation(graph.num_arcs).astype(np.int64)
        states = engine.resolve_arcs(arcs)
        # The scalar reference: one early-terminating kernel call per arc,
        # through a fresh engine so op counting cannot interfere.
        ref = SimilarityEngine(graph, params, kernel=kernel, lanes=lanes)
        adj = ref.adj_lists()
        mcn = ref.arc_thresholds()
        src = graph.arc_source()
        for i, a in enumerate(arcs.tolist()):
            expected = (
                SIM
                if ref.kernel(adj[src[a]], adj[graph.dst[a]], int(mcn[a]))
                else NSIM
            )
            assert int(states[i]) == expected

    def test_empty_batch(self):
        graph = complete_graph(4)
        engine = SimilarityEngine(graph, ScanParams(0.5, 2))
        out = engine.resolve_arcs(np.empty(0, dtype=np.int64))
        assert out.size == 0
        assert out.dtype == np.int8

    def test_explicit_mcn_matches_cached_thresholds(self):
        graph = erdos_renyi(25, 80, seed=9)
        engine = SimilarityEngine(graph, ScanParams(0.6, 3))
        arcs = np.arange(graph.num_arcs, dtype=np.int64)
        via_cache = engine.resolve_arcs(arcs)
        via_arg = engine.resolve_arcs(arcs, mcn=engine.arc_thresholds()[arcs])
        assert via_cache.tolist() == via_arg.tolist()

    def test_trivial_predicates_not_charged(self):
        # A path graph at eps=0.1: every threshold is <= 2, so the whole
        # batch resolves from degrees alone with zero kernel invocations.
        graph = from_edges([(0, 1), (1, 2), (2, 3)])
        engine = SimilarityEngine(graph, ScanParams(0.1, 2))
        states = engine.resolve_arcs(np.arange(graph.num_arcs, dtype=np.int64))
        assert (states == SIM).all()
        assert engine.counter.invocations == 0
