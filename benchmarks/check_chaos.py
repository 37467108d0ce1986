#!/usr/bin/env python
"""CI gate for the fault-tolerant execution layer.

Runs ppSCAN under a fixed-seed :class:`repro.parallel.FaultPlan` that
kills workers mid-phase and verifies, deterministically:

1. the chaotic process-backend run produces the *bit-identical*
   clustering of the serial reference (the supervisor's recovery paths
   cannot change the answer);
2. the expected recovery events (``crash``, ``retry``, ``respawn``)
   actually fired and are visible in the exported trace — both as
   ``supervisor.*`` counters and as ``recovery:*`` spans;
3. a poison-task plan aborts with a structured
   :class:`~repro.parallel.QuarantineReport` (and would exit non-zero
   at the CLI).

Usage::

    PYTHONPATH=src python benchmarks/check_chaos.py
    PYTHONPATH=src python benchmarks/check_chaos.py \
        --trace-out bench_results/chaos_trace.json

Exit status is non-zero on any mismatch or missing recovery evidence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import api  # noqa: E402 - path setup first
from repro.core import assert_same_clustering  # noqa: E402
from repro.graph.generators import real_world_standin  # noqa: E402
from repro.obs import Tracer, use_tracer, write_trace  # noqa: E402
from repro.options import BackendKind, ExecutionOptions  # noqa: E402
from repro.parallel import (  # noqa: E402
    FaultPlan,
    FaultTolerancePolicy,
    PoisonTaskError,
)
from repro.types import ScanParams  # noqa: E402

CHAOS_SEED = 42
WORKERS = 4
EXPECTED_EVENTS = ("crash", "retry", "respawn")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="also write the chaotic run's Chrome trace to PATH",
    )
    parser.add_argument("--scale", type=float, default=0.05)
    args = parser.parse_args(argv)

    graph = real_world_standin("livejournal", scale=args.scale, seed=7)
    params = ScanParams(eps=0.4, mu=4)
    print(
        f"chaos gate: |V|={graph.num_vertices:,}, |E|={graph.num_edges:,}, "
        f"{params}, seed={CHAOS_SEED}"
    )

    serial = api.cluster(graph, params)

    chaos = FaultPlan.from_seed(CHAOS_SEED, tasks=16, kills=2)
    options = ExecutionOptions(
        backend=BackendKind.PROCESS, workers=WORKERS, chaos=chaos
    )
    tracer = Tracer()
    with use_tracer(tracer):
        chaotic = api.cluster(graph, params, options=options)

    assert_same_clustering(serial, chaotic)
    print("labels: chaotic run is bit-identical to the serial reference")

    metrics = tracer.metrics.as_dict()
    missing = [
        kind
        for kind in EXPECTED_EVENTS
        if metrics.get(f"supervisor.{kind}", 0) < 1
    ]
    if missing:
        print(f"FAIL: no supervisor.{missing} counter in trace metrics")
        return 1
    span_names = {s.name for s in tracer.sorted_spans()}
    missing = [
        kind
        for kind in EXPECTED_EVENTS
        if f"recovery:{kind}" not in span_names
    ]
    if missing:
        print(f"FAIL: no recovery:{missing} span in trace")
        return 1
    rollup = ", ".join(
        f"{name.removeprefix('supervisor.')}={value}"
        for name, value in sorted(metrics.items())
        if name.startswith("supervisor.")
    )
    print(f"recovery events in trace: {rollup}")

    if args.trace_out:
        out = Path(args.trace_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        write_trace(out, tracer, "chrome", title="chaos gate")
        print(f"wrote chrome trace to {out}")

    poison_options = ExecutionOptions(
        backend=BackendKind.PROCESS,
        workers=WORKERS,
        chaos=FaultPlan.poison(0),
        policy=FaultTolerancePolicy(max_retries=5),
    )
    try:
        api.cluster(graph, params, options=poison_options)
    except PoisonTaskError as exc:
        print(
            f"poison task quarantined as expected: "
            f"{exc.report.describe().splitlines()[0]}"
        )
    else:
        print("FAIL: poison plan completed without quarantine")
        return 1

    print("chaos gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
