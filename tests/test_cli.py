"""Command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.graph import write_edge_list
from repro.graph.generators import erdos_renyi


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    write_edge_list(erdos_renyi(40, 160, seed=1), path)
    return str(path)


class TestCluster:
    def test_basic(self, graph_file, capsys):
        assert main(["cluster", graph_file, "--eps", "0.4", "--mu", "2"]) == 0
        out = capsys.readouterr().out
        assert "ppSCAN" in out
        assert "cores=" in out

    @pytest.mark.parametrize(
        "algo", ["scan", "pscan", "ppscan", "scanxp", "anyscan"]
    )
    def test_all_algorithms(self, graph_file, capsys, algo):
        assert main(["cluster", graph_file, "--algorithm", algo]) == 0
        assert "clusters" in capsys.readouterr().out

    def test_show_clusters(self, graph_file, capsys):
        main(["cluster", graph_file, "--eps", "0.2", "--show-clusters"])
        out = capsys.readouterr().out
        assert "cluster " in out

    def test_workers_flag(self, graph_file, capsys):
        assert main(["cluster", graph_file, "--workers", "2"]) == 0

    def test_workers_ignored_for_sequential(self, graph_file, capsys):
        assert (
            main(["cluster", graph_file, "--algorithm", "pscan", "--workers", "2"])
            == 0
        )
        assert "ignored" in capsys.readouterr().err


class TestFaultTolerance:
    def test_chaos_recovers_and_exits_zero(self, graph_file, capsys):
        assert (
            main(
                [
                    "cluster",
                    graph_file,
                    "--workers",
                    "2",
                    "--chaos-plan",
                    "seed=42,tasks=16,kill=1",
                ]
            )
            == 0
        )
        assert "clusters" in capsys.readouterr().out

    def test_poison_task_exits_three(self, graph_file, capsys):
        code = main(
            [
                "cluster",
                graph_file,
                "--workers",
                "2",
                "--chaos-plan",
                "seed=1,tasks=16,poison=1",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "execution fault" in err
        assert "quarantined poison task" in err
        assert "recovery events:" in err

    def test_chaos_plan_file(self, graph_file, tmp_path, capsys):
        from repro.parallel import FaultPlan

        plan_path = tmp_path / "plan.json"
        FaultPlan.from_seed(42, tasks=16, kills=1).save(plan_path)
        assert (
            main(
                [
                    "cluster",
                    graph_file,
                    "--workers",
                    "2",
                    "--chaos-plan",
                    str(plan_path),
                ]
            )
            == 0
        )

    def test_retry_and_timeout_flags_accepted(self, graph_file):
        assert (
            main(
                [
                    "cluster",
                    graph_file,
                    "--workers",
                    "2",
                    "--max-retries",
                    "5",
                    "--task-timeout",
                    "30",
                ]
            )
            == 0
        )

    def test_gsindex_algorithm_choice(self, graph_file, capsys):
        assert main(["cluster", graph_file, "--algorithm", "gsindex"]) == 0
        assert "clusters" in capsys.readouterr().out


class TestCompareAndSweep:
    def test_compare_all_agree(self, graph_file, capsys):
        assert main(["compare", graph_file, "--eps", "0.4", "--mu", "2"]) == 0
        out = capsys.readouterr().out
        assert "all algorithms agree" in out
        for name in ("SCAN", "pSCAN", "SCAN++", "anySCAN", "SCAN-XP", "ppSCAN"):
            assert name in out

    def test_sweep_grid(self, graph_file, capsys):
        assert (
            main(["sweep", graph_file, "--eps", "0.3,0.7", "--mu", "1,3"]) == 0
        )
        out = capsys.readouterr().out
        assert out.count("\n") >= 6  # header + separator + 4 rows

    def test_sweep_csv_export(self, graph_file, tmp_path, capsys):
        csv_path = str(tmp_path / "grid.csv")
        assert (
            main(
                ["sweep", graph_file, "--eps", "0.5", "--mu", "2", "--csv", csv_path]
            )
            == 0
        )
        lines = open(csv_path).read().splitlines()
        assert lines[0].startswith("eps,mu,clusters")
        assert len(lines) == 2

    def test_cluster_save(self, graph_file, tmp_path, capsys):
        out_path = str(tmp_path / "result.npz")
        assert main(["cluster", graph_file, "--save", out_path]) == 0
        from repro.core import ClusteringResult

        loaded = ClusteringResult.load(out_path)
        assert loaded.num_vertices == 40


class TestStats:
    def test_stats(self, graph_file, capsys):
        assert main(["stats", graph_file]) == 0
        out = capsys.readouterr().out
        assert "|V| = 40" in out
        assert "|E| = 160" in out


class TestGraphFormatErrors:
    """A malformed graph file is one ``error:`` line and exit 2."""

    @pytest.mark.parametrize("command", ["cluster", "stats", "compare"])
    @pytest.mark.parametrize(
        "content",
        [b"0 1\n\xff 2\n", b"0 1\n0 99999999999999999999\n", b"0 1\nx y\n"],
        ids=["non-utf8", "past-int64", "non-integer"],
    )
    def test_one_line_no_traceback(self, tmp_path, capsys, command, content):
        path = tmp_path / "bad.txt"
        path.write_bytes(content)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: ")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "name, content",
        [
            (
                "bad.mtx",
                b"%%MatrixMarket matrix coordinate pattern symmetric\n"
                b"3 3 1\n4 1\n",
            ),
            # Header claims 2**61 vertices in a 32-byte file.
            ("bad.bin", b"PPSCANG1" + bytes(7) + b"\x20" + bytes(16)),
        ],
        ids=["mtx-index", "bin-huge-header"],
    )
    def test_stats_subprocess(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "stats", str(path)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode != 0
        assert proc.stderr.startswith(f"error: {path}")
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1


class TestGenerate:
    def test_standin(self, tmp_path, capsys):
        out_path = str(tmp_path / "o.txt")
        assert main(["generate", "orkut", out_path, "--scale", "0.05"]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["stats", out_path]) == 0

    def test_roll(self, tmp_path, capsys):
        out_path = str(tmp_path / "r.txt")
        assert (
            main(
                [
                    "generate",
                    "roll",
                    out_path,
                    "--vertices",
                    "300",
                    "--avg-degree",
                    "8",
                ]
            )
            == 0
        )
        assert "wrote" in capsys.readouterr().out


class TestBench:
    def test_table1(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        from repro.bench import clear_caches

        clear_caches()
        assert main(["bench", "table1", "--scale", "0.05"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "fig99"])


class TestVerify:
    def test_verify_ok(self, graph_file, tmp_path, capsys):
        saved = str(tmp_path / "c.npz")
        main(["cluster", graph_file, "--eps", "0.4", "--save", saved])
        capsys.readouterr()
        assert main(["verify", graph_file, saved]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_detects_wrong_graph(self, graph_file, tmp_path, capsys):
        from repro.graph import write_edge_list
        from repro.graph.generators import erdos_renyi

        saved = str(tmp_path / "c.npz")
        main(["cluster", graph_file, "--eps", "0.4", "--save", saved])
        other = tmp_path / "other.txt"
        write_edge_list(erdos_renyi(40, 200, seed=99), other)
        capsys.readouterr()
        assert main(["verify", str(other), saved]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestBenchOut:
    def test_bench_out_writes_files(self, tmp_path, capsys, monkeypatch):
        from repro.bench import clear_caches

        clear_caches()
        out = tmp_path / "results"
        assert (
            main(
                ["bench", "table2", "--scale", "0.05", "--out", str(out)]
            )
            == 0
        )
        assert (out / "table2.txt").exists()


class TestProfile:
    def test_profile_output(self, graph_file, capsys):
        assert main(["profile", graph_file, "--mu", "2", "--eps", "0.3,0.6"]) == 0
        out = capsys.readouterr().out
        assert "similarity distribution" in out
        assert "core fraction" in out
        assert "0.3" in out and "0.6" in out


class TestParser:
    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out.strip()


class TestValidateCommand:
    def test_valid_graph_ok(self, graph_file, capsys):
        assert main(["validate", graph_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_malformed_edge_list(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 -2\n")
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and f"{path}:2" in out

    def test_truncated_binary(self, tmp_path, capsys):
        from repro.graph import write_csr_binary
        from repro.graph.generators import erdos_renyi as er

        path = tmp_path / "g.bin"
        write_csr_binary(er(30, 90, seed=2), path)
        path.write_bytes(path.read_bytes()[:40])
        assert main(["validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.txt")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestFingerprintAndStdin:
    """Every subcommand names the graph fingerprint; stats/validate
    read edge lists from stdin via ``-``."""

    def _fingerprint_of(self, graph_file):
        from repro.cache import graph_fingerprint
        from repro.graph import load_graph

        return graph_fingerprint(load_graph(graph_file))

    def _stdin(self, monkeypatch, graph_file):
        import io
        import sys

        monkeypatch.setattr(
            sys, "stdin", io.StringIO(open(graph_file).read())
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "{g}", "--eps", "0.4", "--mu", "2"],
            ["stats", "{g}"],
            ["validate", "{g}"],
            ["compare", "{g}", "--eps", "0.4", "--mu", "2"],
            ["sweep", "{g}", "--eps", "0.5", "--mu", "2"],
            ["profile", "{g}", "--eps", "0.4", "--mu", "2"],
        ],
    )
    def test_subcommands_report_fingerprint(
        self, graph_file, capsys, argv
    ):
        fingerprint = self._fingerprint_of(graph_file)
        argv = [a.format(g=graph_file) for a in argv]
        assert main(argv) == 0
        assert f"fingerprint: {fingerprint}" in capsys.readouterr().out

    def test_generate_reports_fingerprint(self, tmp_path, capsys):
        out_path = str(tmp_path / "g.txt")
        assert main(["generate", "orkut", out_path, "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert f"fingerprint: {self._fingerprint_of(out_path)}" in out

    def test_stats_reads_stdin(self, graph_file, capsys, monkeypatch):
        self._stdin(monkeypatch, graph_file)
        assert main(["stats", "-"]) == 0
        out = capsys.readouterr().out
        assert "|V| = 40" in out
        # Same bytes, same fingerprint as the file-based path.
        assert f"fingerprint: {self._fingerprint_of(graph_file)}" in out

    def test_validate_reads_stdin(self, graph_file, capsys, monkeypatch):
        self._stdin(monkeypatch, graph_file)
        assert main(["validate", "-"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_rejects_bad_stdin(self, capsys, monkeypatch):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO("0 1\n1 -2\n"))
        assert main(["validate", "-"]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_serve_parser_registered(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--port", "--graph", "--max-graphs",
                     "--max-concurrent-queries", "--memory-budget-mb"):
            assert flag in out


class TestCheckpointFlags:
    def test_cluster_writes_checkpoints(self, graph_file, tmp_path, capsys):
        ck = tmp_path / "ck"
        assert (
            main(
                [
                    "cluster",
                    graph_file,
                    "--checkpoint-dir",
                    str(ck),
                    "--checkpoint-every",
                    "8",
                ]
            )
            == 0
        )
        assert (ck / "manifest.json").exists()
        assert list(ck.glob("ckpt-*.npz"))

    def test_resume_reproduces_output(self, graph_file, tmp_path, capsys):
        ck = tmp_path / "ck"
        args = ["cluster", graph_file, "--checkpoint-dir", str(ck)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out

        def stable(text):
            return [
                line
                for line in text.splitlines()
                if "wall time" not in line
            ]

        assert stable(first) == stable(second)

    def test_resume_requires_checkpoint_dir(self, graph_file):
        with pytest.raises(SystemExit, match="--checkpoint-dir"):
            main(["cluster", graph_file, "--resume"])

    def test_resume_mismatch_exit_code(self, graph_file, tmp_path, capsys):
        from repro.graph import write_edge_list as wel
        from repro.graph.generators import erdos_renyi as er

        ck = tmp_path / "ck"
        assert (
            main(["cluster", graph_file, "--checkpoint-dir", str(ck)]) == 0
        )
        other = tmp_path / "other.txt"
        wel(er(40, 160, seed=2), other)
        code = main(
            [
                "cluster",
                str(other),
                "--checkpoint-dir",
                str(ck),
                "--resume",
            ]
        )
        assert code == 4
        assert "refusing to resume" in capsys.readouterr().err

    def test_checkpoint_ignored_for_unsupported_algorithm(
        self, graph_file, tmp_path, capsys
    ):
        assert (
            main(
                [
                    "cluster",
                    graph_file,
                    "--algorithm",
                    "scan",
                    "--checkpoint-dir",
                    str(tmp_path / "ck"),
                ]
            )
            == 0
        )
        assert "ignored" in capsys.readouterr().err

    def test_sweep_checkpoint_resume(self, graph_file, tmp_path, capsys):
        ck = tmp_path / "ck"
        args = [
            "sweep",
            graph_file,
            "--eps",
            "0.3,0.5",
            "--mu",
            "2",
            "--checkpoint-dir",
            str(ck),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "0.3" in out and "0.5" in out


class TestObservabilityFlags:
    def test_cluster_ledger_appends_record(self, graph_file, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.jsonl"
        assert (
            main(["cluster", graph_file, "--ledger", str(ledger_path)]) == 0
        )
        assert "ledger: appended" in capsys.readouterr().out
        from repro.obs import RunLedger

        (record,) = RunLedger(ledger_path).read()
        assert record["kind"] == "cluster"
        assert record["workload"]["graph"] == graph_file
        assert "graph_fingerprint" in record["workload"]
        assert record["stage_walls"]
        assert record["metrics"]
        assert record["memory"]["parent_peak_rss_kb"] > 0

    def test_cluster_ledger_runs_are_comparable(
        self, graph_file, tmp_path, capsys
    ):
        ledger_path = tmp_path / "ledger.jsonl"
        for _ in range(2):
            assert (
                main(["cluster", graph_file, "--ledger", str(ledger_path)])
                == 0
            )
        from repro.obs import RunLedger

        first, second = RunLedger(ledger_path).read()
        assert first["workload_key"] == second["workload_key"]
        assert first["options_key"] == second["options_key"]

    def test_compare_table_and_csv_gain_stage_and_rss_columns(
        self, graph_file, tmp_path, capsys
    ):
        csv_path = tmp_path / "cmp.csv"
        assert (
            main(
                ["compare", graph_file, "--eps", "0.4", "--mu", "2",
                 "--csv", str(csv_path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stage wall" in out and "peak RSS" in out
        header = csv_path.read_text().splitlines()[0]
        assert "stage wall" in header and "peak RSS" in header

    def test_compare_ledger_records_leg_stats(
        self, graph_file, tmp_path, capsys
    ):
        ledger_path = tmp_path / "ledger.jsonl"
        assert (
            main(
                ["compare", graph_file, "--eps", "0.4", "--mu", "2",
                 "--ledger", str(ledger_path)]
            )
            == 0
        )
        from repro.obs import RunLedger

        (record,) = RunLedger(ledger_path).read()
        assert record["kind"] == "compare"
        assert record["legs"]
        for stats in record["legs"].values():
            assert stats["wall_seconds"] >= 0.0

    def test_profile_spans_prints_flight_recorder(self, graph_file, capsys):
        assert main(["cluster", graph_file, "--profile-spans"]) == 0
        assert "profile:" in capsys.readouterr().out

    def test_profile_memory_prints_phase_deltas(self, graph_file, capsys):
        assert main(["cluster", graph_file, "--profile-memory"]) == 0
        assert "profile:" in capsys.readouterr().out

    def test_progress_flag_runs_quietly_without_tty(self, graph_file):
        assert main(["cluster", graph_file, "--progress"]) == 0

    def test_history_and_report_over_cli_ledger(
        self, graph_file, tmp_path, capsys
    ):
        ledger_path = tmp_path / "ledger.jsonl"
        for _ in range(2):
            main(["cluster", graph_file, "--ledger", str(ledger_path)])
        capsys.readouterr()
        assert main(["history", str(ledger_path)]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out and "cluster" in out
        om_path = tmp_path / "metrics.prom"
        assert (
            main(
                ["report", str(ledger_path), "--openmetrics", str(om_path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "trend report" in out
        assert om_path.read_text().endswith("# EOF\n")

    def test_history_json_mode(self, graph_file, tmp_path, capsys):
        import json as _json

        ledger_path = tmp_path / "ledger.jsonl"
        main(["cluster", graph_file, "--ledger", str(ledger_path)])
        capsys.readouterr()
        assert main(["history", str(ledger_path), "--json"]) == 0
        records = _json.loads(capsys.readouterr().out)
        assert len(records) == 1 and records[0]["kind"] == "cluster"


class TestStream:
    @pytest.fixture
    def script_file(self, tmp_path, graph_file):
        from repro.graph import read_edge_list
        from repro.streaming import random_edit_script

        script = random_edit_script(
            read_edge_list(graph_file), batches=3, batch_size=6, seed=5
        )
        return str(script.save(tmp_path / "edits.txt"))

    def test_stream_verify(self, graph_file, script_file, capsys):
        assert (
            main(
                [
                    "stream", graph_file, script_file,
                    "--eps", "0.4,0.6", "--mu", "2", "--verify",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "batch" in out
        assert "verify: all 3 checkpoints bit-identical" in out
        assert "fingerprint" in out

    def test_stream_csv_and_ledger(
        self, graph_file, script_file, tmp_path, capsys
    ):
        csv = tmp_path / "stream.csv"
        ledger = tmp_path / "ledger.jsonl"
        assert (
            main(
                [
                    "stream", graph_file, script_file,
                    "--csv", str(csv), "--ledger", str(ledger),
                ]
            )
            == 0
        )
        rows = csv.read_text().strip().splitlines()
        assert len(rows) == 4  # header + 3 batches
        assert ledger.exists()
        import json

        records = [
            json.loads(line) for line in ledger.read_text().splitlines()
        ]
        assert len(records) == 3
        assert all(r["kind"] == "stream" for r in records)

    def test_stream_rejects_bad_points(self, graph_file, script_file):
        assert (
            main(["stream", graph_file, script_file, "--eps", "nope"]) == 2
        )
