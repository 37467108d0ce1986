"""Run one benchmark workload; the last line of stdout is its result.

    python3 perfbench/run.py --workload offline-cold --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the result carries every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` it carries every per-layer metric
(layers a workload does not exercise read 0).  A line before the result
records the seed, the host and the service flags.  Exit status is 0
when a result was printed and 2 when the checkout cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    SetupError,
    host_metadata,
    load_spec,
    log,
    require_program,
)

#: How far the layer self times may exceed the traced wall before the
#: run counts as double counting (clock reads sit outside the spans).
LAYER_SUM_TOLERANCE = 0.02


def _layer_sum_problems(values: dict) -> list[str]:
    wall = values["trace.wall_s"]
    self_total = wall - values["unaccounted_s"]
    if self_total > wall * (1 + LAYER_SUM_TOLERANCE):
        return [
            f"layer self times sum to {self_total:.3f}s, more than the "
            f"traced wall {wall:.3f}s + {LAYER_SUM_TOLERANCE:.0%}: a span "
            "is counted twice"
        ]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        require_program()
    except SetupError as exc:
        log(f"perfbench: {exc}")
        return 2
    from perfbench import offline, serve

    workloads = {
        "offline-cold": offline.run,
        "serve-read": serve.run_read,
        "serve-mixed": serve.run_mixed,
    }
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"perfbench: unknown workload {args.workload!r}")
        return 2

    out = workloads[args.workload](args.seed, float(args.seconds), bool(args.trace))
    problems = list(out["problems"])
    if args.trace:
        wanted, values = spec["per_layer"], out["layer"]
        problems += _layer_sum_problems(values)
        unknown = sorted(set(values) - {m["name"] for m in wanted})
        if unknown:
            log(f"perfbench: per-layer values not in BENCHMARK.json: {unknown}")
    else:
        wanted, values = spec["end_to_end"], out["metrics"]
        problems += [
            f"end-to-end metric {m['name']} is {values.get(m['name'])!r}"
            for m in wanted
            if not values.get(m["name"], 0) > 0
        ]
    for problem in problems:
        log(f"perfbench: PROBLEM: {problem}")
    print(json.dumps({
        "workload": args.workload,
        "host": host_metadata(args.seed, **out["meta"]),
        "problems": problems,
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
