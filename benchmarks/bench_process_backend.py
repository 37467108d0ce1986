"""Real wall-clock behaviour of the fork-based process backend.

Two configurations, each run serially and with ``ProcessBackend(2)``:

* ``scalar`` — scalar ppSCAN on the twitter stand-in at scale 0.2
  (ε 0.3, µ 5), through ``ppscan()`` directly;
* ``offline-cold`` — batched ppSCAN through ``api.cluster``, the process
  path of the perfbench ``offline-cold`` workload, on the twitter
  (ε 0.3, µ 3) and webbase (ε 0.2, µ 3) stand-ins at scale 1.0.  Besides
  the walls it saves each stage's wall, serial against two workers, from
  the fastest of three runs per side, so core checking and core
  clustering can be followed from run to run.

The guarantees checked are correctness (identical clustering under
bulk-synchronous execution) and one worker pool per run: a run forks
``workers`` processes once, not once per phase (``spawns`` per run, from
the ``backend.process.spawns`` tracer counter).  Speedup depends on the
host's free cores, so none is asserted; the walls are recorded for
inspection.
"""

import os
import time

from repro import api
from repro.bench.experiments import ExperimentResult
from repro.bench.reporting import format_table
from repro.core import assert_same_clustering, ppscan
from repro.graph.generators import real_world_standin
from repro.obs import Tracer, use_tracer
from repro.options import BackendKind, ExecMode, ExecutionOptions
from repro.parallel import ProcessBackend
from repro.types import ScanParams

WORKERS = 2
#: (stand-in, eps, mu) of the offline-cold configuration, at scale 1.0.
COLD_POINTS = (("twitter", 0.3, 3), ("webbase", 0.2, 3))


def _spawns(run) -> tuple[object, int]:
    """``run()``'s result and the worker processes it forked."""
    tracer = Tracer()
    with use_tracer(tracer):
        result = run()
    return result, int(tracer.metrics.as_dict().get("backend.process.spawns", 0))


def _best_run(run, rounds: int = 3) -> tuple[float, dict[str, float]]:
    """The fastest of ``rounds`` runs: its wall and its stage walls."""
    best = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = run()
        wall = time.perf_counter() - t0
        if best is None or wall < best[0]:
            stages = {s.name: s.wall_seconds for s in result.record.stages}
            best = (wall, stages)
    return best


def test_process_backend_wall_time(benchmark, save_result):
    graph = real_world_standin("twitter", scale=0.2)
    params = ScanParams(0.3, 5)

    serial_result = ppscan(graph, params)

    def run_parallel():
        return ppscan(graph, params, backend=ProcessBackend(workers=WORKERS))

    parallel_result = benchmark.pedantic(run_parallel, rounds=2, iterations=1)
    assert_same_clustering(serial_result, parallel_result)
    _, spawns = _spawns(run_parallel)
    assert spawns == WORKERS

    # The offline-cold configuration: batched ppSCAN through the facade.
    batched = ExecutionOptions(exec_mode=ExecMode.BATCHED)
    process = batched.evolve(backend=BackendKind.PROCESS, workers=WORKERS)
    offline_cold = {}
    for name, eps, mu in COLD_POINTS:
        cold_graph = real_world_standin(name, scale=1.0)
        cold_params = ScanParams(eps, mu)

        def cold(options):
            return lambda: api.cluster(
                cold_graph, cold_params, algorithm="ppscan", options=options
            )

        cold_serial = cold(batched)()
        cold_parallel, cold_spawns = _spawns(cold(process))
        assert_same_clustering(cold_serial, cold_parallel)
        assert cold_spawns == WORKERS
        serial_wall, serial_stages = _best_run(cold(batched))
        parallel_wall, parallel_stages = _best_run(cold(process))
        offline_cold[name] = {
            "serial": serial_wall,
            "parallel": parallel_wall,
            "spawns": cold_spawns,
            "stages": {
                stage: {"serial": wall, "parallel": parallel_stages[stage]}
                for stage, wall in serial_stages.items()
            },
        }

    text = format_table(
        f"process backend (host cores: {os.cpu_count()})",
        ["config", "serial", f"{WORKERS} workers", "spawns/run"],
        [
            [
                "scalar (twitter 0.2)",
                f"{serial_result.record.wall_seconds:.3f}s",
                f"{parallel_result.record.wall_seconds:.3f}s",
                str(spawns),
            ],
            *(
                [
                    f"offline-cold ({name} 1.0, batched)",
                    f"{cold['serial']:.3f}s",
                    f"{cold['parallel']:.3f}s",
                    str(cold["spawns"]),
                ]
                for name, cold in offline_cold.items()
            ),
        ],
    )
    for name, cold in offline_cold.items():
        text += "\n\n" + format_table(
            f"offline-cold stage walls ({name} 1.0, best of 3 runs)",
            ["stage", "serial", f"{WORKERS} workers"],
            [
                [stage, *(f"{w[side] * 1e3:.1f}ms" for side in w)]
                for stage, w in cold["stages"].items()
            ],
        )
    save_result(
        ExperimentResult(
            "process_backend",
            "Process backend wall time",
            text,
            {
                "serial": serial_result.record.wall_seconds,
                "parallel": parallel_result.record.wall_seconds,
                "spawns": spawns,
                "offline_cold": offline_cold,
            },
        )
    )
