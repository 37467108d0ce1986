"""The repro.api facade, algorithm registry, and typed execution options."""

import warnings

import pytest

from repro import api
from repro.core import assert_same_clustering
from repro.graph.generators import erdos_renyi
from repro.options import BackendKind, ExecMode, ExecutionOptions, Kernel
from repro.parallel import FaultPlan, FaultTolerancePolicy
from repro.types import ScanParams


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(200, 1200, seed=11)


@pytest.fixture(scope="module")
def params():
    return ScanParams(eps=0.3, mu=2)


class TestRegistry:
    def test_builtins_registered(self):
        names = set(api.available_algorithms())
        assert {
            "scan",
            "pscan",
            "scanpp",
            "anyscan",
            "scanxp",
            "ppscan",
            "gsindex",
        } <= names

    def test_round_trip(self, graph, params):
        spec = api.AlgorithmSpec(
            name="test-algo",
            display_name="Test",
            runner=lambda g, p, o: api.get_algorithm("scan").run(g, p, o),
            in_compare=False,
        )
        api.register_algorithm(spec)
        try:
            assert api.get_algorithm("test-algo") is spec
            result = api.cluster(graph, params, algorithm="test-algo")
            assert_same_clustering(
                result, api.cluster(graph, params, algorithm="scan")
            )
        finally:
            api._REGISTRY.pop("test-algo")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            api.register_algorithm(api.get_algorithm("scan"))

    def test_unknown_algorithm(self, graph, params):
        with pytest.raises(KeyError, match="registered"):
            api.cluster(graph, params, algorithm="nope")

    def test_capability_flags(self):
        assert api.get_algorithm("ppscan").supports_backend
        assert not api.get_algorithm("scan").supports_backend
        assert not api.get_algorithm("gsindex").in_compare

    def test_ignored_options(self):
        opts = ExecutionOptions(
            backend=BackendKind.PROCESS, exec_mode=ExecMode.BATCHED
        )
        assert api.get_algorithm("scan").ignored_options(opts) == [
            "backend",
            "exec_mode",
        ]
        assert api.get_algorithm("ppscan").ignored_options(opts) == []


class TestClusterFacade:
    def test_all_algorithms_agree_via_facade(self, graph, params):
        outcome = api.compare(graph, params)
        assert "gsindex" not in outcome.results  # index excluded by default
        assert len(outcome.results) >= 6
        assert outcome.num_clusters >= 0

    def test_gsindex_through_facade(self, graph, params):
        result = api.cluster(graph, params, algorithm="gsindex")
        assert_same_clustering(result, api.cluster(graph, params))

    def test_process_backend_identical(self, graph, params):
        serial = api.cluster(graph, params)
        parallel = api.cluster(
            graph,
            params,
            options=ExecutionOptions(backend=BackendKind.PROCESS, workers=2),
        )
        assert_same_clustering(serial, parallel)

    def test_chaos_through_options(self, graph, params):
        opts = ExecutionOptions(
            backend=BackendKind.PROCESS,
            workers=4,
            chaos=FaultPlan.from_seed(42, tasks=16, kills=2),
        )
        assert_same_clustering(
            api.cluster(graph, params),
            api.cluster(graph, params, options=opts),
        )

    def test_compare_explicit_subset(self, graph, params):
        outcome = api.compare(
            graph, params, algorithms=["scan", "ppscan"]
        )
        assert set(outcome.results) == {"scan", "ppscan"}
        assert outcome.reference == "scan"


class TestExecutionOptions:
    def test_enums_compare_equal_to_strings(self):
        assert ExecMode.BATCHED == "batched"
        assert BackendKind.PROCESS == "process"
        assert Kernel.MERGE == "merge"

    def test_string_coercion_warns(self):
        with pytest.warns(DeprecationWarning, match="ExecMode.BATCHED"):
            opts = ExecutionOptions(exec_mode="batched")
        assert opts.exec_mode is ExecMode.BATCHED

    def test_unknown_string_rejected(self):
        with pytest.raises(ValueError, match="unknown exec_mode"):
            ExecutionOptions(exec_mode="quantum")

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionOptions(workers=0)
        with pytest.raises(ValueError):
            FaultTolerancePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            FaultTolerancePolicy(task_timeout=0.0)

    def test_serial_builds_no_backend(self, graph):
        assert ExecutionOptions().make_backend(graph) is None

    def test_process_builds_supervised_backend(self, graph):
        opts = ExecutionOptions(
            backend=BackendKind.PROCESS,
            workers=2,
            policy=FaultTolerancePolicy(max_retries=5),
        )
        backend = opts.make_backend(graph)
        assert backend.workers == 2
        assert backend.policy.max_retries == 5
        assert backend.cost_model is not None

    def test_evolve(self):
        opts = ExecutionOptions().evolve(workers=3)
        assert opts.workers == 3


class TestLegacyShims:
    def test_unknown_kwarg_rejected(self, graph, params):
        with pytest.raises(TypeError, match="unexpected keyword"):
            api.cluster(graph, params, flux_capacitor=True)

    def test_no_warning_on_typed_path(self, graph, params):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.cluster(
                graph,
                params,
                options=ExecutionOptions(exec_mode=ExecMode.BATCHED),
            )

    def test_algorithms_still_accept_string_kwargs(self, graph, params):
        # the historical call signature, bypassing the facade entirely
        from repro.core import ppscan

        result = ppscan(graph, params, exec_mode="batched", kernel="merge")
        assert_same_clustering(result, api.cluster(graph, params))

    # The keyword arguments the facade took before ExecutionOptions;
    # each is now an ordinary unexpected keyword.
    FORMER_KWARGS = {
        "backend": "process",
        "workers": 2,
        "exec_mode": "batched",
        "kernel": "merge",
        "lanes": 4,
        "task_threshold": 512,
    }

    @pytest.mark.parametrize("kwarg", sorted(FORMER_KWARGS))
    @pytest.mark.parametrize("entry_point", ["cluster", "compare", "sweep"])
    def test_former_kwarg_raises_type_error(
        self, graph, params, entry_point, kwarg
    ):
        extra = {kwarg: self.FORMER_KWARGS[kwarg]}
        with pytest.raises(TypeError, match=rf"unexpected keyword.*{kwarg}"):
            if entry_point == "cluster":
                api.cluster(graph, params, **extra)
            elif entry_point == "compare":
                api.compare(graph, params, algorithms=["ppscan"], **extra)
            else:
                api.sweep(graph, [0.4], [2], **extra)
