"""Run ledger: durability, keying, history queries, legacy migration."""

import json

import pytest

from repro.core.ppscan import ppscan
from repro.graph.generators import erdos_renyi
from repro.obs import (
    LEDGER_SCHEMA,
    RunLedger,
    Tracer,
    build_record,
    migrate_trajectory,
    record_from_run,
    stable_key,
    use_tracer,
)
from repro.obs.ledger import migrate_legacy_line
from repro.options import ExecutionOptions
from repro.parallel import CRASH_EXIT_CODE, CrashPoint
from repro.types import ScanParams


def make_record(wall=1.0, graph="g", gate=None):
    extra = {"gate": gate} if gate is not None else None
    return build_record(
        "cluster",
        workload={"graph": graph, "eps": 0.5, "mu": 3},
        options={"backend": "serial"},
        wall_seconds=wall,
        stage_walls={"similarity": wall * 0.7, "cores": wall * 0.3},
        metrics={"arcs": 100, "cache.hit": 3},
        extra=extra,
    )


class TestStableKey:
    def test_deterministic_and_order_independent(self):
        a = stable_key({"x": 1, "y": [2, 3]})
        b = stable_key({"y": [2, 3], "x": 1})
        assert a == b
        assert stable_key({"x": 1}) != stable_key({"x": 2})

    def test_workload_and_options_keys_stamped(self):
        rec = make_record()
        assert rec["workload_key"] == stable_key(
            {"kind": "cluster", **rec["workload"]}
        )
        assert rec["options_key"] == stable_key(rec["options"])

    def test_same_workload_same_key_across_builds(self):
        assert make_record(1.0)["workload_key"] == make_record(2.0)[
            "workload_key"
        ]


class TestAppendRead:
    def test_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        sealed = ledger.append(make_record(1.5))
        assert sealed["seq"] == 1 and "crc" in sealed
        (read,) = ledger.read()
        assert read == sealed
        assert read["schema"] == LEDGER_SCHEMA
        assert read["wall_seconds"] == 1.5
        assert ledger.manifest_status() == "ok"

    def test_directory_path_uses_default_names(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(make_record())
        assert (tmp_path / "ledger.jsonl").exists()
        assert (tmp_path / "manifest.json").exists()
        assert ledger.path == tmp_path / "ledger.jsonl"

    def test_seq_monotone_across_instances(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        RunLedger(path).append(make_record())
        sealed = RunLedger(path).append(make_record())
        assert sealed["seq"] == 2

    def test_records_are_one_json_line_each(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append(make_record(1.0))
        ledger.append(make_record(2.0))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)


class TestTornTail:
    def test_torn_line_is_clean_skip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append(make_record(1.0))
        ledger.append(make_record(2.0))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"torn": tr')  # no newline: a torn tail
        fresh = RunLedger(path)
        assert len(fresh.read()) == 2
        assert fresh.last_skipped == 1
        assert fresh.manifest_status() == "stale"

    def test_append_after_torn_tail_repairs(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append(make_record(1.0))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"torn": tr')
        fresh = RunLedger(path)
        sealed = fresh.append(make_record(3.0))
        records = fresh.read()
        assert [r["wall_seconds"] for r in records] == [1.0, 3.0]
        assert sealed == records[-1]
        assert fresh.manifest_status() == "ok"

    def test_crc_mismatch_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        sealed = ledger.append(make_record(1.0))
        tampered = dict(sealed, wall_seconds=99.0)  # crc now wrong
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(tampered, sort_keys=True) + "\n")
        fresh = RunLedger(path)
        assert [r["wall_seconds"] for r in fresh.read()] == [1.0]
        assert fresh.last_skipped == 1


class SimulatedCrash(BaseException):
    pass


def crasher(fired):
    def die(code):
        fired.append(code)
        raise SimulatedCrash

    return die


class TestCrashDurability:
    """Ledger appends survive a process kill mid-write (chaos harness)."""

    def test_crash_before_save_loses_only_the_new_record(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        fired = []
        ledger = RunLedger(
            path,
            crash_point=CrashPoint(
                "ledger:mid-append", 3, exit_fn=crasher(fired)
            ),
        )
        ledger.append(make_record(1.0))
        ledger.append(make_record(2.0))
        with pytest.raises(SimulatedCrash):
            ledger.append(make_record(3.0))
        assert fired == [CRASH_EXIT_CODE]
        # The torn prefix of record 3 is a clean skip on recovery.
        recovered = RunLedger(path)
        assert [r["wall_seconds"] for r in recovered.read()] == [1.0, 2.0]
        sealed = recovered.append(make_record(4.0))
        assert sealed["seq"] == 3  # seq counts valid records, not lines
        assert [r["wall_seconds"] for r in recovered.read()] == [
            1.0,
            2.0,
            4.0,
        ]
        assert recovered.manifest_status() == "ok"

    def test_crash_after_save_keeps_the_record(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        fired = []
        ledger = RunLedger(
            path,
            crash_point=CrashPoint(
                "ledger:post-append", 2, exit_fn=crasher(fired)
            ),
        )
        ledger.append(make_record(1.0))
        with pytest.raises(SimulatedCrash):
            ledger.append(make_record(2.0))
        assert fired == [CRASH_EXIT_CODE]
        recovered = RunLedger(path)
        assert [r["wall_seconds"] for r in recovered.read()] == [1.0, 2.0]


class TestHistory:
    def _seed(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(make_record(1.0, graph="a"))
        ledger.append(make_record(1.1, graph="a"))
        ledger.append(make_record(9.0, graph="a", gate={"passed": False}))
        ledger.append(make_record(5.0, graph="b"))
        return ledger

    def test_filters_by_workload_key(self, tmp_path):
        ledger = self._seed(tmp_path)
        key = make_record(graph="a")["workload_key"]
        walls = [
            r["wall_seconds"] for r in ledger.history(workload_key=key)
        ]
        assert walls == [1.0, 1.1]  # gate-failed 9.0 excluded

    def test_passed_only_false_includes_failures(self, tmp_path):
        ledger = self._seed(tmp_path)
        key = make_record(graph="a")["workload_key"]
        walls = [
            r["wall_seconds"]
            for r in ledger.history(workload_key=key, passed_only=False)
        ]
        assert walls == [1.0, 1.1, 9.0]

    def test_limit_keeps_newest(self, tmp_path):
        ledger = self._seed(tmp_path)
        key = make_record(graph="a")["workload_key"]
        walls = [
            r["wall_seconds"]
            for r in ledger.history(workload_key=key, limit=1)
        ]
        assert walls == [1.1]

    def test_kind_filter(self, tmp_path):
        ledger = self._seed(tmp_path)
        assert ledger.history(kind="bench") == []
        assert len(ledger.history(kind="cluster", passed_only=False)) == 4


class TestRecordFromRun:
    def test_real_run_populates_every_block(self):
        graph = erdos_renyi(80, 320, seed=3)
        params = ScanParams(eps=0.4, mu=3)
        tracer = Tracer()
        with use_tracer(tracer):
            result = ppscan(graph, params)
        tracer.metrics.ingest_record(result.record)
        record = record_from_run(
            "cluster",
            graph=graph,
            graph_label="er80",
            params=params,
            options=ExecutionOptions(),
            result=result,
            tracer=tracer,
        )
        assert record["kind"] == "cluster"
        assert record["workload"]["graph"] == "er80"
        assert record["workload"]["num_vertices"] == 80
        assert "graph_fingerprint" in record["workload"]
        assert record["workload"]["eps"] == pytest.approx(0.4)
        assert record["options"]["backend"] == "serial"
        assert record["algorithm"] == result.record.algorithm
        assert record["wall_seconds"] == pytest.approx(
            result.record.wall_seconds
        )
        assert set(record["stage_walls"]) == {
            s.name for s in result.record.stages
        }
        assert record["metrics"]  # ingested op counters
        assert record["memory"]["parent_peak_rss_kb"] > 0

    def test_same_graph_same_workload_key(self):
        graph = erdos_renyi(40, 120, seed=5)
        params = ScanParams(eps=0.5, mu=2)
        keys = {
            record_from_run(
                "cluster", graph=graph, params=params
            )["workload_key"]
            for _ in range(2)
        }
        assert len(keys) == 1


class TestLegacyMigration:
    LEGACY = {
        "bench": "sketch_accuracy",
        "recorded_unix": 1786165123,
        "workload": "twitter-standin-s6",
        "exact_scanxp_seconds": 10.9551,
        "conservative_speedup": 11.43,
        "best_aggressive": {"config": "b2048", "speedup": 13.09, "ari": 1.0},
    }

    def test_legacy_line_wrapped(self):
        record = migrate_legacy_line(self.LEGACY)
        assert record["kind"] == "bench"
        assert record["workload"] == {
            "bench": "sketch_accuracy",
            "workload": "twitter-standin-s6",
        }
        assert record["metrics"]["conservative_speedup"] == 11.43
        assert record["metrics"]["best_aggressive.speedup"] == 13.09
        assert not any("recorded_unix" in k for k in record["metrics"])
        assert record["legacy"] == self.LEGACY
        assert record["ts_unix"] == 1786165123

    def test_migrate_trajectory_in_place(self, tmp_path):
        path = tmp_path / "trajectory.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.LEGACY) + "\n")
            fh.write("not json at all\n")
        ledger = migrate_trajectory(path)
        (record,) = ledger.read()
        assert record["workload"]["bench"] == "sketch_accuracy"
        assert record["seq"] == 1 and "crc" in record
        # Idempotent: a second migration leaves the bytes alone.
        before = path.read_bytes()
        migrate_trajectory(path)
        assert path.read_bytes() == before

    def test_migrated_and_fresh_records_share_workload_key(self, tmp_path):
        path = tmp_path / "trajectory.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.LEGACY) + "\n")
        ledger = migrate_trajectory(path)
        fresh = ledger.append(
            migrate_legacy_line(dict(self.LEGACY, conservative_speedup=12.0))
        )
        old, new = ledger.read()
        assert old["workload_key"] == new["workload_key"]
        assert fresh["seq"] == 2
