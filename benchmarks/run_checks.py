#!/usr/bin/env python
"""One entry point for every ``benchmarks/check_*.py`` CI gate.

Usage
-----
Run every gate in sequence (stop-on-nothing: all gates always run, the
worst exit code wins)::

    PYTHONPATH=src python benchmarks/run_checks.py

Run a subset, forwarding extra arguments to each selected gate::

    PYTHONPATH=src python benchmarks/run_checks.py --only regression \
        -- --smoke --scale 0.1

    PYTHONPATH=src python benchmarks/run_checks.py \
        --only chaos,warm_cache

List the registered gates::

    PYTHONPATH=src python benchmarks/run_checks.py --list

Exit codes (the contract every gate follows)
--------------------------------------------
* ``0`` — every selected gate passed;
* ``1`` — at least one gate detected a regression / violated invariant;
* ``2`` — usage or setup error (unknown gate name, missing baseline,
  bad arguments) before any gating happened.

Each gate is a module with ``main(argv) -> int`` honouring the same
codes, so this runner simply takes the maximum over the legs.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 2

#: name -> (module, default argv, one-line purpose).
CHECKS: dict[str, tuple[str, list[str], str]] = {
    "regression": (
        "check_regression",
        ["--smoke"],
        "smoke workload vs ledger trend bands / static baseline",
    ),
    "chaos": (
        "check_chaos",
        [],
        "fault-injected supervised runs stay bit-identical",
    ),
    "crash_restart": (
        "check_crash_restart",
        [],
        "whole-process crash + resume recovers bit-identically",
    ),
    "warm_cache": (
        "check_warm_cache",
        [],
        "cross-run similarity cache reuse invariants",
    ),
    "service": (
        "check_service",
        [],
        "clustering service: coalescing, errors, reads beside updates, "
        "ledger, clean shutdown",
    ),
    "stream": (
        "check_stream",
        [],
        "streaming updates: differential corpus bit-identity + throughput",
    ),
    "service_crash": (
        "check_service_crash",
        [],
        "kill -9 at seeded WAL points + SIGTERM drain recover bit-identically",
    ),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Arguments after a literal ``--`` are forwarded to every selected
    # gate *instead of* its default argv.
    forward: list[str] | None = None
    if "--" in argv:
        split = argv.index("--")
        argv, forward = argv[:split], argv[split + 1 :]

    parser = argparse.ArgumentParser(
        description="run the benchmark CI gates with shared exit codes"
    )
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated subset of gates (default: all), "
        f"known: {', '.join(CHECKS)}",
    )
    parser.add_argument(
        "--list", action="store_true", help="list gates and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, (module, default_argv, purpose) in CHECKS.items():
            default = " ".join(default_argv) or "(none)"
            print(f"{name:<14} {module}.py  [{default}]  {purpose}")
        return EXIT_OK

    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = [n for n in names if n not in CHECKS]
        if unknown:
            print(
                f"unknown gate(s): {', '.join(unknown)}; "
                f"known: {', '.join(CHECKS)}",
                file=sys.stderr,
            )
            return EXIT_USAGE
    else:
        names = list(CHECKS)

    worst = EXIT_OK
    outcomes: list[tuple[str, int, float]] = []
    for name in names:
        module_name, default_argv, _ = CHECKS[name]
        gate_argv = forward if forward is not None else default_argv
        print(f"=== {name}: {module_name}.py {' '.join(gate_argv)} ===")
        t0 = time.perf_counter()
        try:
            module = importlib.import_module(module_name)
            code = int(module.main(list(gate_argv)))
        except SystemExit as exc:  # argparse errors inside a gate
            code = int(exc.code or 0)
        wall = time.perf_counter() - t0
        outcomes.append((name, code, wall))
        worst = max(worst, code)

    print("=== summary ===")
    for name, code, wall in outcomes:
        verdict = {EXIT_OK: "pass", EXIT_REGRESSION: "FAIL"}.get(
            code, f"error({code})"
        )
        print(f"  {name:<14} {verdict:<9} {wall:7.1f}s")
    return worst


if __name__ == "__main__":
    sys.exit(main())
