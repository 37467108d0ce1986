"""Streaming batched maintenance: edit scripts, engine, differential."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import SimilarityStore
from repro.cache.store import graph_fingerprint
from repro.core import (
    DynamicGSIndex,
    GSIndex,
    brute_force_scan,
    verify_clustering,
)
from repro.core.dynamic_index import apply_edit_batch, similar_mask
from repro.core.gsindex import bulk_overlaps
from repro.core.result import assemble_clustering
from repro.graph import DynamicGraph, from_edges
from repro.graph.generators import chung_lu, erdos_renyi, powerlaw_weights
from repro.similarity.bulk import min_cn_arcs
from repro.streaming import (
    DifferentialMismatch,
    EditBatch,
    EditOp,
    EditScript,
    StreamingEngine,
    build_corpus,
    random_edit_script,
    replay_differential,
)
from repro.types import CORE, NONCORE, ScanParams


# ---------------------------------------------------------------------------
# Edit scripts
# ---------------------------------------------------------------------------


class TestEditScript:
    def test_text_roundtrip(self):
        script = EditScript(
            [
                EditBatch([EditOp(True, 0, 3), EditOp(False, 2, 1)]),
                EditBatch([EditOp(True, 4, 5)]),
            ],
            meta={"seed": 7, "kind": "mixed"},
        )
        again = EditScript.loads(script.dumps())
        assert again.meta == script.meta
        assert [b.ops for b in again] == [b.ops for b in script]

    def test_loads_comments_and_implicit_first_batch(self):
        script = EditScript.loads(
            "# a comment\n+ 0 1\n- 2 3\nbatch\n+ 4 5\n"
        )
        assert len(script) == 2
        assert script.batches[0].ops == [
            EditOp(True, 0, 1),
            EditOp(False, 2, 3),
        ]
        assert script.batches[1].ops == [EditOp(True, 4, 5)]

    def test_loads_rejects_malformed_line(self):
        with pytest.raises(ValueError, match="line 2"):
            EditScript.loads("batch\n+ 0\n")

    def test_save_load(self, tmp_path):
        script = random_edit_script(
            erdos_renyi(20, 40, seed=3), batches=3, batch_size=5, seed=9
        )
        path = script.save(tmp_path / "edits.txt")
        again = EditScript.load(path)
        assert again.meta == script.meta
        assert [b.ops for b in again] == [b.ops for b in script]

    def test_coerce_shapes(self):
        from_triples = EditBatch.coerce(
            [("+", 0, 1), ("remove", 2, 3), (True, 4, 5)]
        )
        assert from_triples.ops == [
            EditOp(True, 0, 1),
            EditOp(False, 2, 3),
            EditOp(True, 4, 5),
        ]
        from_dict = EditBatch.coerce(
            {"insert": [[0, 1]], "remove": [[2, 3]]}
        )
        assert from_dict.ops == [EditOp(True, 0, 1), EditOp(False, 2, 3)]
        assert EditBatch.coerce(from_dict) is from_dict

    def test_coerce_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown edit kind"):
            EditBatch.coerce([("?", 0, 1)])
        with pytest.raises(ValueError, match="unknown edit-batch key"):
            EditBatch.coerce({"inserts": [[0, 1]]})

    def test_inverse_shapes(self):
        batch = EditBatch([EditOp(True, 0, 1), EditOp(False, 2, 3)])
        assert batch.inverse().ops == [
            EditOp(True, 2, 3),
            EditOp(False, 0, 1),
        ]
        script = EditScript([batch, EditBatch([EditOp(True, 4, 5)])])
        inv = script.inverse()
        assert len(inv) == 2
        assert inv.batches[0].ops == [EditOp(False, 4, 5)]
        assert inv.meta.get("inverse") is True


class TestRandomEditScript:
    def test_deterministic_for_seed(self):
        graph = erdos_renyi(30, 80, seed=1)
        a = random_edit_script(graph, seed=5, batches=4, batch_size=8)
        b = random_edit_script(graph, seed=5, batches=4, batch_size=8)
        c = random_edit_script(graph, seed=6, batches=4, batch_size=8)
        assert [x.ops for x in a] == [x.ops for x in b]
        assert [x.ops for x in a] != [x.ops for x in c]

    def test_kinds_respected(self):
        graph = erdos_renyi(30, 80, seed=2)
        inserts = random_edit_script(
            graph, kind="insert", seed=3, batches=3, batch_size=6
        )
        assert all(op.insert for batch in inserts for op in batch)
        deletes = random_edit_script(
            graph, kind="delete", seed=3, batches=3, batch_size=6
        )
        assert all(not op.insert for batch in deletes for op in batch)
        with pytest.raises(ValueError):
            random_edit_script(graph, kind="replace")

    def test_script_is_replayable_without_validation_errors(self):
        # Every op must be in-range and never a self loop; skipped ops
        # (the deliberate no-op rate) are fine, crashes are not.
        graph = erdos_renyi(25, 60, seed=4)
        script = random_edit_script(
            graph, seed=11, batches=5, batch_size=10, noop_rate=0.3
        )
        dyn = DynamicGraph.from_csr(graph)
        for batch in script:
            for op in batch:
                if op.insert:
                    dyn.insert_edge(op.u, op.v)
                else:
                    dyn.remove_edge(op.u, op.v)

    def test_delete_script_stops_when_edges_exhausted(self):
        graph = erdos_renyi(6, 5, seed=5)
        script = random_edit_script(
            graph, kind="delete", seed=1, batches=10, batch_size=10,
            noop_rate=0.0,
        )
        removals = [op for batch in script for op in batch]
        assert len(removals) <= graph.num_edges
        assert all(not op.insert for op in removals)


# ---------------------------------------------------------------------------
# Batched index maintenance
# ---------------------------------------------------------------------------


class TestApplyBatch:
    def test_matches_per_edge_maintenance(self):
        csr = erdos_renyi(40, 140, seed=6)
        batched = DynamicGSIndex(DynamicGraph.from_csr(csr))
        serial = DynamicGSIndex(DynamicGraph.from_csr(csr))
        script = random_edit_script(csr, seed=8, batches=4, batch_size=12)
        params = ScanParams(0.5, 2)
        for batch in script:
            stats = batched.apply_batch(batch)
            applied = 0
            for op in batch:
                applied += serial.apply_batch([op]).effective
            assert stats.effective == applied
            assert batched.query(params).same_clustering(
                serial.query(params)
            )

    def test_validates_atomically_before_mutating(self):
        csr = erdos_renyi(20, 50, seed=7)
        idx = DynamicGSIndex(DynamicGraph.from_csr(csr))
        fp_before = graph_fingerprint(idx.graph.snapshot())
        # Third op is out of range: nothing at all may be applied.
        with pytest.raises(IndexError):
            idx.apply_batch(
                [("+", 0, 19), ("-", 0, 1), ("+", 0, 99)]
            )
        assert graph_fingerprint(idx.graph.snapshot()) == fp_before
        with pytest.raises(ValueError):
            idx.apply_batch([("+", 0, 19), ("+", 3, 3)])
        assert graph_fingerprint(idx.graph.snapshot()) == fp_before

    def test_minus_kind_removes(self):
        idx = DynamicGSIndex(
            DynamicGraph.from_csr(from_edges([(0, 1), (1, 2)], num_vertices=4))
        )
        stats = idx.apply_batch([("-", 0, 1)])
        assert stats.removed == 1 and stats.inserted == stats.skipped == 0
        assert not idx.graph.has_edge(0, 1)
        stats = idx.apply_batch([("-", 2, 3)])
        assert stats.skipped == 1 and stats.effective == 0
        assert not idx.graph.has_edge(2, 3)

    def test_unknown_kind_raises_before_mutating(self):
        csr = erdos_renyi(20, 50, seed=7)
        idx = DynamicGSIndex(DynamicGraph.from_csr(csr))
        fp_before = graph_fingerprint(idx.snapshot)
        with pytest.raises(ValueError, match="unknown edit kind"):
            idx.apply_batch([("+", 0, 19), ("x", 0, 1)])
        assert graph_fingerprint(idx.graph.snapshot()) == fp_before

    def test_reports_touched_frontier_and_dirty(self):
        idx = DynamicGSIndex(DynamicGraph(6))
        idx.apply_batch([("+", 0, 1), ("+", 1, 2)])
        stats = idx.apply_batch([("+", 2, 3), ("+", 2, 3)])
        assert stats.inserted == 1 and stats.skipped == 1
        assert stats.touched == (2, 3)
        # dirty = touched plus their post-batch neighbors
        assert stats.dirty == (1, 2, 3)
        assert (2, 3) in stats.frontier

    def test_noop_batch_reports_no_work(self):
        csr = erdos_renyi(15, 30, seed=9)
        idx = DynamicGSIndex(DynamicGraph.from_csr(csr))
        u, v = map(int, csr.edge_list()[0])
        stats = idx.apply_batch([("+", u, v)])
        assert stats.effective == 0 and stats.skipped == 1
        assert stats.touched == () and stats.frontier == ()


# ---------------------------------------------------------------------------
# Engine: differential correctness
# ---------------------------------------------------------------------------

POINTS = (ScanParams(0.4, 2), ScanParams(0.7, 3))


class TestDifferential:
    @pytest.mark.parametrize("kind", ["insert", "delete", "mixed"])
    def test_er_fixture_every_kind(self, kind):
        graph = erdos_renyi(50, 160, seed=12)
        script = random_edit_script(
            graph, kind=kind, seed=13, batches=5, batch_size=10
        )
        report = replay_differential(
            graph, script, POINTS, store=SimilarityStore(), kind=kind
        )
        assert report.batches == 5
        assert report.ops_applied > 0

    def test_full_corpus_small_scale(self):
        for case in build_corpus(scale=0.3, batches=3, batch_size=6):
            report = replay_differential(
                case.graph,
                case.script,
                store=SimilarityStore(),
                fixture=case.fixture,
                kind=case.kind,
                collect_checkpoints=True,
            )
            assert report.batches == len(case.script)
            assert len(report.checkpoints) == report.batches

    def test_mismatch_detection_is_live(self):
        # Corrupt the engine's cached state mid-replay and insist the
        # harness notices: a differential harness that cannot fail
        # verifies nothing.
        graph = erdos_renyi(30, 90, seed=14)
        engine = StreamingEngine(graph)
        params = POINTS[0]
        engine.query(params)
        script = random_edit_script(graph, seed=15, batches=1, batch_size=8)
        engine.apply(script.batches[0])
        got = engine.query(params)
        got.roles[0] = 1 - got.roles[0]  # flip one role bit
        want = GSIndex(engine.snapshot).query(params)
        assert not want.same_clustering(got)

    def test_replay_raises_on_seeded_divergence(self):
        graph = erdos_renyi(30, 90, seed=16)
        script = random_edit_script(graph, seed=17, batches=2, batch_size=6)

        class _BrokenEngine(StreamingEngine):
            def apply(self, edits):
                report = super().apply(edits)
                # Sabotage a materialized point after the repair.
                result = next(iter(self.materialized().values()))
                result.roles[0] = 1 - result.roles[0]
                return report

        import repro.streaming.differential as differential

        original = differential.StreamingEngine
        differential.StreamingEngine = _BrokenEngine
        try:
            with pytest.raises(DifferentialMismatch, match="diverged"):
                replay_differential(graph, script, POINTS)
        finally:
            differential.StreamingEngine = original

    def test_shared_assembly_bug_is_caught(self, monkeypatch):
        # Engine and rebuild share the cluster assembly, so a bug there
        # agrees with itself; the verify_clustering oracle must catch it.
        import repro.core.gsindex as gsindex
        import repro.core.result as result_module

        def broken(algorithm, params, roles, src, dst):
            result, merges = assemble_clustering(algorithm, params, roles, src, dst)
            result.noncore_pairs = result.noncore_pairs[1:]  # drop a member
            return result, merges

        monkeypatch.setattr(gsindex, "assemble_clustering", broken)
        # DynamicGSIndex queries reach it through cluster_similar_arcs.
        monkeypatch.setattr(result_module, "assemble_clustering", broken)
        graph = erdos_renyi(30, 90, seed=16)
        script = random_edit_script(graph, seed=17, batches=2, batch_size=6)
        with pytest.raises(DifferentialMismatch, match="verify_clustering"):
            replay_differential(graph, script, POINTS)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    graph_seed=st.integers(min_value=0, max_value=10_000),
    script_seed=st.integers(min_value=0, max_value=10_000),
    kind=st.sampled_from(["insert", "delete", "mixed"]),
    batch_size=st.integers(min_value=1, max_value=12),
)
def test_property_random_scripts_stay_bit_identical(
    graph_seed, script_seed, kind, batch_size
):
    """Seeded, shrinkable: any generated script must replay bit-identically.

    On failure hypothesis shrinks ``batch_size`` and the seeds, which in
    turn shrinks the script (the generator is deterministic per seed).
    """
    graph = erdos_renyi(18, 40, seed=graph_seed)
    script = random_edit_script(
        graph, kind=kind, seed=script_seed, batches=3, batch_size=batch_size
    )
    replay_differential(
        graph, script, (ScanParams(0.5, 2),), store=SimilarityStore()
    )


# ---------------------------------------------------------------------------
# Engine: store invalidation exactness, idempotence, counters
# ---------------------------------------------------------------------------


class TestEngineStore:
    def _engine(self, seed=20, n=40, m=120, **kwargs):
        graph = erdos_renyi(n, m, seed=seed)
        store = SimilarityStore()
        return StreamingEngine(graph, store=store, **kwargs), store

    def test_seeded_entry_matches_static_index(self):
        engine, store = self._engine()
        entry = store.peek(engine.fingerprint)
        assert entry.coverage.all()
        assert entry.overlap.tolist() == GSIndex(engine.snapshot).overlap.tolist()

    def test_untouched_arcs_survive_with_identical_values(self):
        engine, store = self._engine()
        old_snapshot = engine.snapshot
        old_entry = store.peek(engine.fingerprint)
        old_overlap = old_entry.overlap.copy()
        assert old_entry.covered == old_snapshot.num_arcs

        report = engine.apply([("+", 0, 39)])
        assert report.effective == 1
        new_entry = store.peek(engine.fingerprint)
        assert new_entry is not None
        assert report.overlaps_carried > 0

        new_snapshot = engine.snapshot
        checked = 0
        for u in range(new_snapshot.num_vertices):
            if u in (0, 39):
                continue
            for v in map(int, new_snapshot.neighbors(u)):
                if v in (0, 39):
                    continue
                arc_new = new_snapshot.edge_offset(u, v)
                arc_old = old_snapshot.edge_offset(u, v)
                assert new_entry.coverage[arc_new]
                assert new_entry.overlap[arc_new] == old_overlap[arc_old]
                checked += 1
        assert checked > 0

    def test_touched_arcs_miss_without_frontier_recording(self):
        engine, store = self._engine(record_frontier=False)
        report = engine.apply([("+", 0, 39)])
        assert report.effective == 1
        entry = store.peek(engine.fingerprint)
        snapshot = engine.snapshot
        for endpoint in (0, 39):
            for v in map(int, snapshot.neighbors(endpoint)):
                assert not entry.coverage[
                    snapshot.edge_offset(endpoint, v)
                ]
                assert not entry.coverage[
                    snapshot.edge_offset(v, endpoint)
                ]

    def test_frontier_rerecorded_by_default(self):
        engine, store = self._engine()
        engine.apply([("+", 0, 39)])
        entry = store.peek(engine.fingerprint)
        snapshot = engine.snapshot
        # With frontier re-recording the entry is fully covered again,
        # and every value matches a fresh exact index.
        assert entry.covered == snapshot.num_arcs
        fresh = DynamicGSIndex(DynamicGraph.from_csr(snapshot))
        for (u, v), overlap in fresh.overlaps():
            assert entry.overlap[snapshot.edge_offset(u, v)] == overlap

    def test_old_entry_discarded(self):
        engine, store = self._engine()
        old_fingerprint = engine.fingerprint
        engine.apply([("+", 0, 39)])
        assert engine.fingerprint != old_fingerprint
        assert store.peek(old_fingerprint) is None

    def test_skipped_only_batch_keeps_fingerprint_and_entry(self):
        engine, store = self._engine()
        fingerprint = engine.fingerprint
        u, v = map(int, engine.snapshot.edge_list()[0])
        report = engine.apply([("+", u, v)])
        assert report.effective == 0 and report.skipped == 1
        assert engine.fingerprint == fingerprint
        assert store.peek(fingerprint) is not None


class TestEngineBehavior:
    def test_batch_then_inverse_restores_bit_identical_state(self):
        graph = erdos_renyi(40, 120, seed=21)
        engine = StreamingEngine(graph, store=SimilarityStore())
        params = ScanParams(0.5, 2)
        before_fp = engine.fingerprint
        before = engine.query(params)

        script = random_edit_script(
            graph, seed=22, batches=1, batch_size=10, noop_rate=0.0
        )
        batch = script.batches[0]
        engine.apply(batch)
        engine.apply(batch.inverse())

        assert engine.fingerprint == before_fp
        after = engine.query(params)
        assert before.same_clustering(after)
        assert np.array_equal(before.roles, after.roles)
        assert np.array_equal(before.core_labels, after.core_labels)

    def test_whole_script_then_inverse_script(self):
        graph = erdos_renyi(35, 100, seed=23)
        engine = StreamingEngine(graph)
        params = ScanParams(0.4, 2)
        before_fp = engine.fingerprint
        before = engine.query(params)
        script = random_edit_script(
            graph, seed=24, batches=4, batch_size=8, noop_rate=0.0
        )
        for batch in script:
            engine.apply(batch)
        for batch in script.inverse():
            engine.apply(batch)
        assert engine.fingerprint == before_fp
        assert engine.query(params).same_clustering(before)

    def test_query_memoizes_per_point(self):
        engine = StreamingEngine(erdos_renyi(25, 60, seed=25))
        a = engine.query(ScanParams(0.5, 2))
        assert engine.query(ScanParams(0.5, 2)) is a
        engine.query(ScanParams(0.5, 3))
        assert engine.num_points == 2

    def test_counters_accumulate(self):
        graph = erdos_renyi(30, 80, seed=26)
        engine = StreamingEngine(graph)
        engine.query(ScanParams(0.5, 2))
        script = random_edit_script(graph, seed=27, batches=3, batch_size=6)
        for batch in script:
            engine.apply(batch)
        stats = engine.stats()
        assert stats["batches_applied"] == 3
        assert stats["edits_applied"] > 0
        assert stats["arcs_repaired"] > 0
        assert stats["vertices_reclustered"] > 0
        assert stats["points_materialized"] == 1

    def test_removing_an_isolated_edge_advances_snapshot(self):
        # The only effective edit leaves both endpoints isolated, so the
        # frontier is empty; snapshot, fingerprint and store entry must
        # still move, and the pair must stop being cores.
        graph = from_edges([(0, 1), (1, 2), (0, 2), (3, 4)], num_vertices=6)
        store = SimilarityStore()
        engine = StreamingEngine(graph, store=store)
        params = ScanParams(0.5, 1)
        assert engine.query(params).roles[[3, 4]].tolist() == [CORE, CORE]
        fingerprint = engine.fingerprint
        report = engine.apply([("-", 3, 4)])
        assert report.effective == 1 and report.arcs_repaired == 0
        assert engine.snapshot.num_edges == 3
        assert engine.fingerprint == graph_fingerprint(engine.snapshot)
        assert engine.fingerprint != fingerprint
        assert store.peek(fingerprint) is None
        assert store.peek(engine.fingerprint).covered == engine.snapshot.num_arcs
        after = engine.query(params)
        assert after.roles[[3, 4]].tolist() == [NONCORE, NONCORE]
        assert after.same_clustering(GSIndex(engine.snapshot).query(params))

    def test_accepts_dynamic_graph(self):
        dyn = DynamicGraph(5)
        dyn.insert_edge(0, 1)
        engine = StreamingEngine(dyn)
        assert engine.snapshot.num_edges == 1
        report = engine.apply({"insert": [[1, 2]], "remove": [[0, 1]]})
        assert report.inserted == 1 and report.removed == 1
        assert engine.snapshot.num_edges == 1

    def test_rejected_batch_leaves_engine_consistent(self):
        graph = erdos_renyi(20, 50, seed=28)
        engine = StreamingEngine(graph)
        params = ScanParams(0.5, 2)
        before = engine.query(params)
        fingerprint = engine.fingerprint
        with pytest.raises(IndexError):
            engine.apply([("+", 0, 19), ("+", 0, 999)])
        assert engine.fingerprint == fingerprint
        assert engine.query(params).same_clustering(before)
        assert engine.query(params).same_clustering(
            GSIndex(engine.snapshot).query(params)
        )


# ---------------------------------------------------------------------------
# Engine: the per-point mask pass
# ---------------------------------------------------------------------------


class TestPointPass:
    def test_exact_tie_at_eps_boundary(self):
        # σ(0, 1)² = 4/9; inserting {3, 6} makes σ(0, 3)² = 4/9 too, and
        # ε = 2/3 puts ε² on that value: both arcs are similar.
        graph = from_edges([(0, 1), (0, 3), (1, 5)], num_vertices=7)
        engine = StreamingEngine(graph)
        points = [ScanParams(2 / 3, mu) for mu in (1, 2, 3)]
        assert all(p.eps_fraction ** 2 == Fraction(4, 9) for p in points)
        for params in points:
            assert engine.query(params).same_clustering(
                brute_force_scan(graph, params)
            )
        engine.apply([("+", 3, 6)])
        after = engine.snapshot
        for params in points:
            got = engine.query(params)
            assert got.same_clustering(brute_force_scan(after, params))
            verify_clustering(after, got)
        assert engine.query(points[1]).roles[0] == CORE

    @pytest.mark.parametrize("seed", range(6))
    def test_mask_matches_min_cn_thresholds_at_boundary_eps(self, seed):
        if seed % 2:
            graph = erdos_renyi(60, 240, seed=seed)
        else:
            graph = chung_lu(powerlaw_weights(80, 2.2, 2.0), 240, seed=seed)
        overlap, _ = bulk_overlaps(graph)
        src, deg1 = graph.arc_source(), graph.degrees.astype(np.int64) + 1
        num, den = overlap * overlap, deg1[src] * deg1[graph.dst]
        # Arcs between equal degrees have a rational σ = overlap / (d + 1):
        # ε on it sits exactly on the boundary.
        equal = np.flatnonzero(deg1[src] == deg1[graph.dst])
        boundary = {Fraction(int(overlap[a]), int(deg1[src[a]])) for a in equal}
        boundary = sorted(e for e in boundary if 0 < e <= 1)
        assert boundary
        for eps in [*boundary[:8], Fraction(1, 2), Fraction(1)]:
            p, q = eps.numerator, eps.denominator
            want = overlap >= min_cn_arcs(graph, eps)
            assert np.array_equal(similar_mask(num, den, p * p, q * q), want)

    def test_overflow_fallback_is_exact(self):
        rng = np.random.default_rng(5)
        p, q = 999_983, 1_000_003
        eps_num, eps_den = p * p, q * q  # each near 2**40
        scale = rng.integers(1, 4, size=200)
        num = eps_num * scale + rng.integers(-1, 2, size=200)
        den = eps_den * scale
        noise = rng.integers(2**40 - 2**20, 2**40 + 2**20, size=(2, 200))
        num, den = np.concatenate((num, noise[0])), np.concatenate((den, noise[1]))
        assert int(num.max()) * eps_den >= 2**63  # the int64 path would wrap
        got = similar_mask(num, den, eps_num, eps_den)
        want = [
            Fraction(int(a), int(b)) >= Fraction(eps_num, eps_den)
            for a, b in zip(num, den)
        ]
        assert got.dtype == bool and got.tolist() == want
        assert 0 < got.sum() < got.size

    def test_vertices_reclustered_counts_dirty_per_point(self):
        graph = erdos_renyi(30, 80, seed=29)
        engine = StreamingEngine(graph)
        engine.query(ScanParams(0.5, 2))
        engine.query(ScanParams(0.7, 3))
        u, v = map(int, graph.edge_list()[0])
        batch = EditBatch.coerce([("+", 0, 29), ("-", u, v), ("+", 5, 17)])
        stats = apply_edit_batch(DynamicGraph.from_csr(graph), batch)
        report = engine.apply(batch)
        assert report.effective == stats.effective == 3
        assert report.points_repaired == 2
        assert report.vertices_reclustered == (
            report.points_repaired * len(stats.dirty)
        )
