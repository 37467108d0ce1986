"""Real wall-clock behaviour of the fork-based process backend.

Two configurations, each run serially and with ``ProcessBackend(2)``:

* ``scalar`` — scalar ppSCAN on the twitter stand-in at scale 0.2
  (ε 0.3, µ 5), through ``ppscan()`` directly;
* ``offline-cold`` — batched ppSCAN on the twitter stand-in at scale 1.0
  (ε 0.3, µ 3) through ``api.cluster``, the process path of the
  perfbench ``offline-cold`` workload.

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


def _spawns(run) -> tuple[object, int]:
    """``run()``'s result and the worker processes it forked."""
    tracer = Tracer()
    with use_tracer(tracer):
        result = run()
    return result, int(tracer.metrics.as_dict().get("backend.process.spawns", 0))


def _best_wall(run, rounds: int = 3) -> float:
    walls = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        run()
        walls.append(time.perf_counter() - t0)
    return min(walls)


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
    cold_graph = real_world_standin("twitter", scale=1.0)
    cold_params = ScanParams(0.3, 3)
    batched = ExecutionOptions(exec_mode=ExecMode.BATCHED)
    process = batched.evolve(backend=BackendKind.PROCESS, workers=WORKERS)

    def cold(options):
        return lambda: api.cluster(
            cold_graph, cold_params, algorithm="ppscan", options=options
        )

    cold_serial = cold(batched)()
    cold_parallel, cold_spawns = _spawns(cold(process))
    assert_same_clustering(cold_serial, cold_parallel)
    assert cold_spawns == WORKERS
    cold_walls = {
        "serial": _best_wall(cold(batched)),
        "parallel": _best_wall(cold(process)),
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
            [
                "offline-cold (twitter 1.0, batched)",
                f"{cold_walls['serial']:.3f}s",
                f"{cold_walls['parallel']:.3f}s",
                str(cold_spawns),
            ],
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
                "offline_cold": {**cold_walls, "spawns": cold_spawns},
            },
        )
    )
