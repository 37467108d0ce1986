"""Batched execution mode: ``exec_mode="batched"`` must produce the exact
clustering of the scalar path for every algorithm that supports it, across
kernels, backends, ablations, and parameter grids."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.cli import main
from repro.core import ClusteringResult, assert_same_clustering, ppscan, scanxp
from repro.core.context import RunContext
from repro.core.ppscan import auto_batch_task_threshold, auto_task_threshold
from repro.graph import write_edge_list
from repro.graph.generators import (
    chung_lu,
    erdos_renyi,
    planted_partition,
    powerlaw_weights,
)
from repro.options import ExecMode, ExecutionOptions
from repro.parallel import ProcessBackend, commit_arc_states
from repro.types import ScanParams

PARAM_GRID = [
    ScanParams(0.3, 2),
    ScanParams(0.5, 4),
    ScanParams(0.7, 2),
]


def sample_graphs():
    yield erdos_renyi(60, 240, seed=2)
    yield chung_lu(powerlaw_weights(80, 2.5), 300, seed=5)
    yield planted_partition(4, 18, 0.5, 0.04, seed=9)[0]


class TestPpscanBatched:
    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_identical_to_scalar(self, params):
        for graph in sample_graphs():
            scalar = ppscan(graph, params)
            batched = ppscan(graph, params, exec_mode="batched")
            assert_same_clustering(scalar, batched)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(prune_phase=False),
            dict(two_phase_clustering=False),
            dict(kernel="merge"),
            dict(kernel="pivot"),
            dict(lanes=8),
            dict(task_threshold=16),
        ],
    )
    def test_ablations_identical(self, kwargs):
        graph = erdos_renyi(50, 200, seed=3)
        params = ScanParams(0.45, 3)
        scalar = ppscan(graph, params, **kwargs)
        batched = ppscan(graph, params, exec_mode="batched", **kwargs)
        assert_same_clustering(scalar, batched)

    def test_process_backend(self):
        graph = erdos_renyi(60, 260, seed=4)
        params = ScanParams(0.5, 3)
        scalar = ppscan(graph, params)
        batched = ppscan(
            graph, params, exec_mode="batched", backend=ProcessBackend(workers=2)
        )
        assert_same_clustering(scalar, batched)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=140),
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from([0.25, 0.5, 0.75]),
        st.integers(min_value=1, max_value=5),
    )
    def test_property_identical(self, n, m, seed, eps, mu):
        graph = erdos_renyi(n, min(m, n * (n - 1) // 2), seed=seed)
        params = ScanParams(eps, mu)
        assert_same_clustering(
            ppscan(graph, params),
            ppscan(graph, params, exec_mode="batched"),
        )

    def test_unknown_mode_rejected(self):
        graph = erdos_renyi(10, 20, seed=1)
        with pytest.raises(ValueError, match="exec_mode"):
            ppscan(graph, ScanParams(0.5, 2), exec_mode="simd")

    def test_work_accounting_populated(self):
        graph = erdos_renyi(60, 240, seed=8)
        result = ppscan(graph, ScanParams(0.4, 3), exec_mode="batched")
        total = result.record.total()
        assert result.record.compsim_invocations > 0
        assert total.vector_ops > 0
        # Stage structure is preserved: the batched mode reports the same
        # seven ppSCAN phases the scalar mode does.
        assert len(result.record.stages) == len(
            ppscan(graph, ScanParams(0.4, 3)).record.stages
        )


class TestScanxpBatched:
    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_identical_to_scalar(self, params):
        for graph in sample_graphs():
            scalar = scanxp(graph, params)
            batched = scanxp(graph, params, exec_mode="batched")
            assert_same_clustering(scalar, batched)

    def test_process_backend(self):
        graph = erdos_renyi(60, 260, seed=6)
        params = ScanParams(0.5, 3)
        assert_same_clustering(
            scanxp(graph, params),
            scanxp(
                graph,
                params,
                exec_mode="batched",
                backend=ProcessBackend(workers=2),
            ),
        )

    def test_workload_stays_eps_independent(self):
        # SCAN-XP's defining property: every arc is fully counted, so the
        # invocation count must not depend on eps — batched included.
        graph = erdos_renyi(50, 200, seed=7)
        runs = [
            scanxp(graph, ScanParams(eps, 3), exec_mode="batched")
            for eps in (0.2, 0.5, 0.8)
        ]
        invocations = {r.record.compsim_invocations for r in runs}
        assert len(invocations) == 1
        assert invocations.pop() == graph.num_arcs


class TestBatchedSupport:
    def test_auto_batch_threshold_coarser_than_scalar(self):
        for num_arcs in (100, 10_000, 1_000_000, 100_000_000):
            assert auto_batch_task_threshold(num_arcs) >= auto_task_threshold(
                num_arcs
            )
        assert auto_batch_task_threshold(10**9) == 32768

    def test_commit_arc_states_mirrors(self):
        sim = np.zeros(6, dtype=np.int8)
        rev = np.array([3, 4, 5, 0, 1, 2], dtype=np.int64)
        arcs = np.array([0, 2], dtype=np.int64)
        states = np.array([1, 2], dtype=np.int8)
        commit_arc_states(sim, rev, arcs, states)
        assert sim.tolist() == [1, 0, 2, 1, 0, 2]

    def test_commit_arc_states_empty(self):
        sim = np.zeros(4, dtype=np.int8)
        commit_arc_states(
            sim,
            np.arange(4),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int8),
        )
        assert sim.tolist() == [0, 0, 0, 0]


class TestCliExecMode:
    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(erdos_renyi(40, 160, seed=1), path)
        return str(path)

    @pytest.mark.parametrize("algo", ["ppscan", "pscan", "scanxp"])
    def test_batched_flag(self, graph_file, capsys, algo):
        assert (
            main(
                [
                    "cluster",
                    graph_file,
                    "--algorithm",
                    algo,
                    "--exec-mode",
                    "batched",
                ]
            )
            == 0
        )
        assert "clusters" in capsys.readouterr().out

    def test_batched_matches_scalar_output(self, graph_file, capsys):
        main(["cluster", graph_file, "--eps", "0.4", "--mu", "2"])
        scalar_out = capsys.readouterr().out
        main(
            [
                "cluster",
                graph_file,
                "--eps",
                "0.4",
                "--mu",
                "2",
                "--exec-mode",
                "batched",
            ]
        )
        batched_out = capsys.readouterr().out
        pick = lambda text: [
            line for line in text.splitlines() if line.startswith("cores=")
        ]
        assert pick(scalar_out) == pick(batched_out)

    def test_ignored_for_unsupported_algorithm(self, graph_file, capsys):
        assert (
            main(
                [
                    "cluster",
                    graph_file,
                    "--algorithm",
                    "anyscan",
                    "--exec-mode",
                    "batched",
                ]
            )
            == 0
        )
        assert "ignored" in capsys.readouterr().err


@pytest.fixture
def run_modes(monkeypatch):
    """The ``exec_mode`` of every :class:`RunContext` built while active."""
    modes = []
    init = RunContext.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        modes.append(self.engine.exec_mode)

    monkeypatch.setattr(RunContext, "__init__", spy)
    return modes


class TestDefaultPolicy:
    """ppSCAN and SCAN-XP resolve batched unless scalar is asked for;
    the core functions and ``RunContext`` keep the counted scalar path."""

    GRAPH = chung_lu(powerlaw_weights(90, 2.2), 360, seed=4)
    PARAMS = ScanParams(0.4, 3)
    SCALAR = ExecutionOptions(exec_mode=ExecMode.SCALAR)

    @pytest.mark.parametrize("algo", ["ppscan", "scanxp"])
    def test_facade_defaults_to_batched(self, run_modes, algo):
        result = api.cluster(self.GRAPH, self.PARAMS, algorithm=algo)
        assert run_modes == ["batched"]
        scalar = api.cluster(
            self.GRAPH, self.PARAMS, algorithm=algo, options=self.SCALAR
        )
        assert run_modes == ["batched", "scalar"]
        assert_same_clustering(result, scalar)

    @pytest.mark.parametrize("algo", ["ppscan", "scanxp"])
    def test_graph_handle_defaults_to_batched(self, run_modes, algo):
        handle = api.open(self.GRAPH)
        result = handle.cluster(self.PARAMS, algorithm=algo)
        assert run_modes == ["batched"]
        scalar = handle.cluster(self.PARAMS, algorithm=algo, options=self.SCALAR)
        assert run_modes == ["batched", "scalar"]
        assert_same_clustering(result, scalar)

    @pytest.mark.parametrize("algo", ["ppscan", "scanxp"])
    def test_cli_defaults_to_batched(self, tmp_path, capsys, run_modes, algo):
        graph_file = tmp_path / "g.txt"
        write_edge_list(self.GRAPH, graph_file)
        saved = {}
        for mode in (None, "scalar"):
            out = tmp_path / f"{mode}.npz"
            argv = ["cluster", str(graph_file), "--algorithm", algo,
                    "--eps", "0.4", "--mu", "3", "--save", str(out)]
            if mode is not None:
                argv += ["--exec-mode", mode]
            assert main(argv) == 0
            saved[mode] = ClusteringResult.load(out)
        assert "ignored" not in capsys.readouterr().err
        assert run_modes == ["batched", "scalar"]
        assert_same_clustering(saved[None], saved["scalar"])

    def test_core_functions_and_run_context_stay_scalar(self, run_modes):
        ppscan(self.GRAPH, self.PARAMS)
        scanxp(self.GRAPH, self.PARAMS)
        assert run_modes == ["scalar", "scalar"]
        assert RunContext(self.GRAPH, self.PARAMS).engine.exec_mode == "scalar"
