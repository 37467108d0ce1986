"""Durable checkpoint subsystem: atomic writes, snapshots, clean misses."""

import json
import os

import numpy as np
import pytest

from repro.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointManager,
    ResumeMismatchError,
    atomic_write_bytes,
    atomic_write_text,
)
from repro.graph.generators import erdos_renyi
from repro.parallel import CRASH_EXIT_CODE, CrashPoint
from repro.types import ScanParams
from repro.unionfind import AtomicUnionFind, UnionFind


@pytest.fixture
def graph():
    return erdos_renyi(60, 240, seed=3)


@pytest.fixture
def params():
    return ScanParams(eps=0.5, mu=3)


def bound_manager(tmp_path, graph, params, **kwargs):
    mgr = CheckpointManager(tmp_path / "ck", **kwargs)
    mgr.bind(graph, params, algorithm="test", exec_mode="scalar")
    return mgr


class TestAtomicWrites:
    def test_bytes_roundtrip(self, tmp_path):
        target = tmp_path / "payload.bin"
        atomic_write_bytes(target, b"\x00\x01durable")
        assert target.read_bytes() == b"\x00\x01durable"

    def test_text_roundtrip(self, tmp_path):
        target = tmp_path / "note.json"
        atomic_write_text(target, '{"ok": true}\n')
        assert json.loads(target.read_text()) == {"ok": True}

    def test_overwrite_replaces_whole_file(self, tmp_path):
        target = tmp_path / "payload.bin"
        atomic_write_bytes(target, b"x" * 1000)
        atomic_write_bytes(target, b"y")
        assert target.read_bytes() == b"y"

    def test_no_temp_droppings(self, tmp_path):
        atomic_write_bytes(tmp_path / "a.bin", b"a")
        atomic_write_text(tmp_path / "b.txt", "b")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.bin",
            "b.txt",
        ]


class TestSaveLoadRoundtrip:
    def test_roundtrip(self, tmp_path, graph, params):
        mgr = bound_manager(tmp_path, graph, params)
        arrays = {
            "roles": np.array([1, 0, 1], dtype=np.int8),
            "parent": np.arange(5, dtype=np.int64),
        }
        epoch = mgr.save(
            arrays=arrays, meta={"cursor": 2, "done": 17}, phase="similarity"
        )
        assert epoch == 1

        loader = bound_manager(tmp_path, graph, params, resume=True)
        ck = loader.load_latest()
        assert ck is not None
        assert ck.epoch == 1
        assert ck.phase == "similarity"
        assert ck.meta["cursor"] == 2
        assert ck.meta["done"] == 17
        np.testing.assert_array_equal(ck.arrays["roles"], arrays["roles"])
        np.testing.assert_array_equal(ck.arrays["parent"], arrays["parent"])

    def test_epochs_monotonic(self, tmp_path, graph, params):
        mgr = bound_manager(tmp_path, graph, params)
        for expect in (1, 2, 3):
            epoch = mgr.save(arrays={}, meta={}, phase=f"p{expect}")
            assert epoch == expect

    def test_latest_epoch_wins(self, tmp_path, graph, params):
        mgr = bound_manager(tmp_path, graph, params)
        mgr.save(arrays={}, meta={"tag": "old"}, phase="a")
        mgr.save(arrays={}, meta={"tag": "new"}, phase="b")
        ck = bound_manager(tmp_path, graph, params, resume=True).load_latest()
        assert ck.meta["tag"] == "new"

    def test_resume_continues_epoch_sequence(self, tmp_path, graph, params):
        bound_manager(tmp_path, graph, params).save(
            arrays={}, meta={}, phase="a"
        )
        mgr = bound_manager(tmp_path, graph, params, resume=True)
        mgr.load_latest()
        assert mgr.save(arrays={}, meta={}, phase="b") == 2

    def test_meta_key_reserved(self, tmp_path, graph, params):
        mgr = bound_manager(tmp_path, graph, params)
        with pytest.raises(ValueError, match="reserved"):
            mgr.save(arrays={"__meta__": np.zeros(1)}, meta={}, phase="x")

    def test_unbound_use_rejected(self, tmp_path):
        mgr = CheckpointManager(tmp_path / "ck")
        with pytest.raises(RuntimeError, match="bind"):
            mgr.save(arrays={}, meta={}, phase="x")

    def test_bad_every_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path / "ck", every=0)


class TestCleanMisses:
    """Corruption in any durable artifact must be a miss, never bad state."""

    def seed(self, tmp_path, graph, params):
        mgr = bound_manager(tmp_path, graph, params)
        mgr.save(
            arrays={"x": np.arange(4, dtype=np.int64)},
            meta={"cursor": 1},
            phase="p",
        )
        return mgr

    def latest(self, tmp_path, graph, params):
        return bound_manager(
            tmp_path, graph, params, resume=True
        ).load_latest()

    def test_fresh_directory_is_miss(self, tmp_path, graph, params):
        assert self.latest(tmp_path, graph, params) is None

    def test_truncated_payload(self, tmp_path, graph, params):
        mgr = self.seed(tmp_path, graph, params)
        (path,) = mgr.directory.glob("*.npz")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert self.latest(tmp_path, graph, params) is None

    def test_bitflipped_payload(self, tmp_path, graph, params):
        mgr = self.seed(tmp_path, graph, params)
        (path,) = mgr.directory.glob("*.npz")
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert self.latest(tmp_path, graph, params) is None

    def test_missing_payload(self, tmp_path, graph, params):
        mgr = self.seed(tmp_path, graph, params)
        (path,) = mgr.directory.glob("*.npz")
        path.unlink()
        assert self.latest(tmp_path, graph, params) is None

    def test_corrupt_manifest(self, tmp_path, graph, params):
        mgr = self.seed(tmp_path, graph, params)
        mgr.manifest_path.write_text("{not json")
        assert self.latest(tmp_path, graph, params) is None

    def test_version_mismatch(self, tmp_path, graph, params):
        mgr = self.seed(tmp_path, graph, params)
        manifest = json.loads(mgr.manifest_path.read_text())
        manifest["version"] = CHECKPOINT_VERSION + 1
        mgr.manifest_path.write_text(json.dumps(manifest))
        assert self.latest(tmp_path, graph, params) is None

    def test_walkback_to_previous_good_epoch(self, tmp_path, graph, params):
        mgr = self.seed(tmp_path, graph, params)
        mgr.save(arrays={}, meta={"cursor": 2}, phase="q")
        newest = mgr.directory / sorted(
            p.name for p in mgr.directory.glob("*.npz")
        )[-1]
        newest.write_bytes(b"garbage")
        ck = self.latest(tmp_path, graph, params)
        assert ck is not None and ck.meta["cursor"] == 1

    def test_fresh_run_discards_stale_epochs(self, tmp_path, graph, params):
        self.seed(tmp_path, graph, params)
        # Re-binding without resume=True must not expose old snapshots.
        mgr = bound_manager(tmp_path, graph, params)
        assert mgr.epoch == 0
        assert mgr.save(arrays={}, meta={}, phase="fresh") == 1


class TestIdentityMismatch:
    def test_different_graph_refused(self, tmp_path, graph, params):
        bound_manager(tmp_path, graph, params).save(
            arrays={}, meta={}, phase="p"
        )
        other = erdos_renyi(60, 240, seed=4)
        mgr = CheckpointManager(tmp_path / "ck", resume=True)
        with pytest.raises(ResumeMismatchError, match="refusing to resume"):
            mgr.bind(other, params, algorithm="test", exec_mode="scalar")

    def test_different_params_refused(self, tmp_path, graph, params):
        bound_manager(tmp_path, graph, params).save(
            arrays={}, meta={}, phase="p"
        )
        mgr = CheckpointManager(tmp_path / "ck", resume=True)
        with pytest.raises(ResumeMismatchError):
            mgr.bind(
                graph,
                ScanParams(eps=0.7, mu=3),
                algorithm="test",
                exec_mode="scalar",
            )

    def test_different_algorithm_refused(self, tmp_path, graph, params):
        bound_manager(tmp_path, graph, params).save(
            arrays={}, meta={}, phase="p"
        )
        mgr = CheckpointManager(tmp_path / "ck", resume=True)
        with pytest.raises(ResumeMismatchError):
            mgr.bind(graph, params, algorithm="other", exec_mode="scalar")

    def test_without_resume_mismatch_is_silent_fresh(
        self, tmp_path, graph, params
    ):
        bound_manager(tmp_path, graph, params).save(
            arrays={}, meta={}, phase="p"
        )
        other = erdos_renyi(60, 240, seed=4)
        mgr = CheckpointManager(tmp_path / "ck")
        mgr.bind(other, params, algorithm="test", exec_mode="scalar")
        assert mgr.epoch == 0


class TestForSubrun:
    def test_sibling_directories_are_independent(self, tmp_path, graph, params):
        root = CheckpointManager(tmp_path / "ck", every=5)
        a = root.for_subrun("ppscan")
        b = root.for_subrun("pscan")
        assert a.directory != b.directory
        assert a.every == 5 and b.every == 5
        a.bind(graph, params, algorithm="ppscan")
        b.bind(graph, params, algorithm="pscan")
        a.save(arrays={}, meta={"who": "a"}, phase="p")
        b.save(arrays={}, meta={"who": "b"}, phase="p")
        ra = CheckpointManager(tmp_path / "ck" / "ppscan", resume=True)
        ra.bind(graph, params, algorithm="ppscan")
        assert ra.load_latest().meta["who"] == "a"


class TestUnionFindSnapshot:
    def test_sequential_roundtrip(self):
        uf = UnionFind(8)
        uf.union(0, 1)
        uf.union(2, 3)
        uf.union(1, 3)
        snap = {k: v.copy() for k, v in uf.snapshot().items()}
        fresh = UnionFind(8)
        fresh.restore(snap)
        assert fresh.find(0) == fresh.find(3)
        assert fresh.find(4) != fresh.find(0)

    def test_atomic_roundtrip(self):
        uf = AtomicUnionFind(8)
        uf.union(5, 6)
        uf.union(6, 7)
        snap = {k: v.copy() for k, v in uf.snapshot().items()}
        fresh = AtomicUnionFind(8)
        fresh.restore(snap)
        assert fresh.find(5) == fresh.find(7)
        assert fresh.find(4) != fresh.find(5)


class TestProcessCrashPoint:
    def test_inert_by_default(self):
        CrashPoint().fire("checkpoint:before-save", 1)  # no site set: no-op

    def test_fires_at_epoch_and_mode(self):
        fired = []
        point = CrashPoint("checkpoint:after-save", 3, exit_fn=fired.append)
        point.fire("checkpoint:after-save", 2)
        point.fire("checkpoint:before-save", 3)
        assert fired == []
        point.fire("checkpoint:after-save", 3)
        assert fired == [CRASH_EXIT_CODE]

    def test_from_env(self):
        point = CrashPoint.from_env(
            {"REPRO_CRASH": "checkpoint:before-save:7"}
        )
        assert point.n == 7 and point.site == "checkpoint:before-save"

    def test_from_env_default_inert(self):
        assert CrashPoint.from_env({}).n is None

    def test_save_respects_crash_point(self, tmp_path):
        graph = erdos_renyi(20, 60, seed=1)
        fired = []

        class Boom(BaseException):
            pass

        def die(code):
            fired.append(code)
            raise Boom

        mgr = CheckpointManager(
            tmp_path / "ck",
            crash_point=CrashPoint("checkpoint:before-save", 2, exit_fn=die),
        )
        mgr.bind(graph, ScanParams(0.5, 2), algorithm="t")
        mgr.save(arrays={}, meta={}, phase="a")
        with pytest.raises(Boom):
            mgr.save(arrays={}, meta={}, phase="b")
        # before-save: epoch 2 must NOT be on disk.
        loader = CheckpointManager(tmp_path / "ck", resume=True)
        loader.bind(graph, ScanParams(0.5, 2), algorithm="t")
        assert loader.load_latest().epoch == 1
