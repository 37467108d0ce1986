#!/usr/bin/env python
"""CI gate for crash-safe checkpoint/resume.

Kills the *real* CLI process (``os._exit``, exit code 137 — the shape of
a SIGKILL / OOM-kill) at seeded checkpoint epochs via the
``REPRO_CRASH="checkpoint:<mode>:<epoch>"`` environment hook, resumes
with ``--resume``, and verifies deterministically:

1. every crash/resume pair yields the *bit-identical* clustering of an
   uninterrupted baseline run (compared through the saved
   :class:`~repro.core.result.ClusteringResult`, not stdout);
2. both ``before-save`` and ``after-save`` crash timings recover — the
   durable state machine has no window where a kill loses or corrupts
   progress;
3. an interrupted + resumed parameter sweep reproduces the same per-point
   grid CSV and at least the uninterrupted run's cache-reuse fraction;
4. a checkpoint directory recorded for a different graph refuses to
   resume (exit code 4), never silently producing wrong results.

Usage::

    PYTHONPATH=src python benchmarks/check_crash_restart.py --smoke
    PYTHONPATH=src python benchmarks/check_crash_restart.py

``--smoke`` probes one seeded epoch per algorithm/mode leg (CI-sized);
the full gate probes every epoch the baseline run wrote.  Results land
in ``bench_results/crash_restart.json`` and the final run's checkpoint
manifest is copied to ``bench_results/crash_restart_manifest.json`` so
CI can archive what the durable state actually looked like.

Exit status is non-zero on any divergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import assert_same_clustering  # noqa: E402
from repro.core.result import ClusteringResult  # noqa: E402
from repro.graph.generators import real_world_standin  # noqa: E402
from repro.graph.io import write_edge_list  # noqa: E402
from repro.parallel import CRASH_EXIT_CODE  # noqa: E402

GRAPH_SEED = 7
CHECKPOINT_EVERY = 25
EPS, MU = "0.4", "4"

#: Every (algorithm, exec-mode) leg the differential covers.
LEGS = [
    ("ppscan", "scalar"),
    ("ppscan", "batched"),
    ("pscan", "scalar"),
    ("pscan", "batched"),
    ("scanxp", "scalar"),
    ("scanxp", "batched"),
    ("anyscan", "scalar"),
]


def run_cli(args: list[str], env_extra: dict | None = None) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_CRASH", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode not in (0, CRASH_EXIT_CODE, 4):
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
    return proc.returncode


def count_epochs(ck_dir: Path) -> int:
    manifest = json.loads((ck_dir / "manifest.json").read_text())
    return len(manifest.get("epochs", []))


def check_leg(
    workdir: Path,
    graph_file: Path,
    algorithm: str,
    exec_mode: str,
    smoke: bool,
) -> dict:
    """Crash/resume differential for one algorithm/mode leg."""
    leg = f"{algorithm}-{exec_mode}"
    base_dir = workdir / leg
    base_dir.mkdir()
    baseline_npz = base_dir / "baseline.npz"
    ck_dir = base_dir / "ckpt-baseline"

    common = [
        "cluster",
        str(graph_file),
        "--eps",
        EPS,
        "--mu",
        MU,
        "--algorithm",
        algorithm,
        "--exec-mode",
        exec_mode,
        "--checkpoint-every",
        str(CHECKPOINT_EVERY),
    ]
    rc = run_cli(
        common
        + ["--checkpoint-dir", str(ck_dir), "--save", str(baseline_npz)]
    )
    if rc != 0:
        raise SystemExit(f"{leg}: baseline run failed with exit {rc}")
    baseline = ClusteringResult.load(baseline_npz)
    epochs = count_epochs(ck_dir)
    if epochs < 2:
        raise SystemExit(
            f"{leg}: baseline wrote only {epochs} checkpoint epoch(s); "
            "the differential needs at least 2 (shrink --checkpoint-every)"
        )

    probe_epochs = [max(2, epochs // 2)] if smoke else range(1, epochs + 1)
    probes = 0
    for epoch in probe_epochs:
        for mode in ("before-save", "after-save"):
            crash_ck = base_dir / f"ckpt-e{epoch}-{mode}"
            rc = run_cli(
                common + ["--checkpoint-dir", str(crash_ck)],
                env_extra={"REPRO_CRASH": f"checkpoint:{mode}:{epoch}"},
            )
            if rc != CRASH_EXIT_CODE:
                raise SystemExit(
                    f"{leg}: crash at epoch {epoch} ({mode}) exited {rc}, "
                    f"expected {CRASH_EXIT_CODE}"
                )
            resumed_npz = crash_ck / "resumed.npz"
            rc = run_cli(
                common
                + [
                    "--checkpoint-dir",
                    str(crash_ck),
                    "--resume",
                    "--save",
                    str(resumed_npz),
                ]
            )
            if rc != 0:
                raise SystemExit(
                    f"{leg}: resume after epoch-{epoch} {mode} crash "
                    f"exited {rc}"
                )
            assert_same_clustering(
                baseline, ClusteringResult.load(resumed_npz)
            )
            probes += 1
    print(f"  {leg}: {probes} crash/resume probe(s) bit-identical "
          f"({epochs} baseline epochs)")
    return {"leg": leg, "epochs": epochs, "probes": probes}


def read_grid_csv(path: Path) -> tuple[list[tuple], list[float]]:
    points, reuse = [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            raw = row.pop("reuse", "-").rstrip("%")
            reuse_val = float(raw) if raw not in ("-", "") else 0.0
            row.pop("wall_ms", None)  # timing varies run to run
            row.pop("CompSims", None)  # restored points report 0 work
            points.append(tuple(sorted(row.items())))
            reuse.append(reuse_val)
    return points, reuse


def check_sweep(workdir: Path, graph_file: Path) -> dict:
    """Interrupted + resumed sweep: same grid, no lost cache reuse."""
    sweep_dir = workdir / "sweep"
    sweep_dir.mkdir()
    common = [
        "sweep",
        str(graph_file),
        "--eps",
        "0.3,0.5",
        "--mu",
        "3,5",
        "--algorithm",
        "ppscan",
    ]
    baseline_csv = sweep_dir / "baseline.csv"
    rc = run_cli(
        common
        + [
            "--cache-dir",
            str(sweep_dir / "cache-baseline"),
            "--csv",
            str(baseline_csv),
        ]
    )
    if rc != 0:
        raise SystemExit(f"sweep baseline failed with exit {rc}")
    base_points, base_reuse = read_grid_csv(baseline_csv)

    ck_dir = sweep_dir / "ckpt"
    crash_args = common + [
        "--cache-dir",
        str(sweep_dir / "cache-crash"),
        "--checkpoint-dir",
        str(ck_dir),
    ]
    rc = run_cli(
        crash_args,
        env_extra={"REPRO_CRASH": "checkpoint:after-save:2"},
    )
    if rc != CRASH_EXIT_CODE:
        raise SystemExit(f"sweep crash run exited {rc}, expected 137")
    resumed_csv = sweep_dir / "resumed.csv"
    rc = run_cli(crash_args + ["--resume", "--csv", str(resumed_csv)])
    if rc != 0:
        raise SystemExit(f"sweep resume exited {rc}")
    res_points, res_reuse = read_grid_csv(resumed_csv)
    if base_points != res_points:
        raise SystemExit(
            "sweep grid diverged after resume:\n"
            f"  baseline: {base_points}\n  resumed:  {res_points}"
        )
    for i, (a, b) in enumerate(zip(base_reuse, res_reuse)):
        if b < a - 1e-9:
            raise SystemExit(
                f"sweep point {i}: resumed reuse {b} < baseline {a}"
            )
    print(f"  sweep: {len(base_points)} grid points identical after "
          "crash+resume, reuse preserved")
    return {"points": len(base_points)}


def check_mismatch_refusal(workdir: Path, graph_file: Path) -> None:
    """A checkpoint for another graph must refuse (exit 4), not corrupt."""
    ck_dir = workdir / "mismatch-ck"
    rc = run_cli(
        [
            "cluster",
            str(graph_file),
            "--eps",
            EPS,
            "--mu",
            MU,
            "--checkpoint-dir",
            str(ck_dir),
        ]
    )
    if rc != 0:
        raise SystemExit(f"mismatch seed run exited {rc}")
    other = workdir / "other.txt"
    write_edge_list(
        real_world_standin("livejournal", scale=0.02, seed=GRAPH_SEED + 1),
        other,
    )
    rc = run_cli(
        [
            "cluster",
            str(other),
            "--eps",
            EPS,
            "--mu",
            MU,
            "--checkpoint-dir",
            str(ck_dir),
            "--resume",
        ]
    )
    if rc != 4:
        raise SystemExit(
            f"resume against a different graph exited {rc}, expected 4"
        )
    print("  mismatch: resume against a different graph refused (exit 4)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one seeded crash epoch per leg instead of every epoch",
    )
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument(
        "--out-dir",
        default=str(REPO_ROOT / "bench_results"),
        metavar="DIR",
        help="where the JSON summary and manifest artifact land",
    )
    args = parser.parse_args(argv)

    graph = real_world_standin("livejournal", scale=args.scale, seed=GRAPH_SEED)
    print(
        f"crash-restart gate: |V|={graph.num_vertices:,}, "
        f"|E|={graph.num_edges:,}, eps={EPS}, mu={MU}, "
        f"{'smoke' if args.smoke else 'full'} mode"
    )

    summary: dict = {"mode": "smoke" if args.smoke else "full", "legs": []}
    with tempfile.TemporaryDirectory(prefix="crash-restart-") as tmp:
        workdir = Path(tmp)
        graph_file = workdir / "graph.txt"
        write_edge_list(graph, graph_file)

        for algorithm, exec_mode in LEGS:
            summary["legs"].append(
                check_leg(workdir, graph_file, algorithm, exec_mode, args.smoke)
            )
        summary["sweep"] = check_sweep(workdir, graph_file)
        check_mismatch_refusal(workdir, graph_file)

        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        # Archive the last leg's baseline manifest: the durable record of
        # every epoch the gate's final differential trusted.
        last_leg = "{}-{}".format(*LEGS[-1])
        manifest_src = workdir / last_leg / "ckpt-baseline" / "manifest.json"
        shutil.copy(manifest_src, out_dir / "crash_restart_manifest.json")
        (out_dir / "crash_restart.json").write_text(
            json.dumps(summary, indent=2) + "\n"
        )
        print(
            f"wrote {out_dir / 'crash_restart.json'} and "
            f"{out_dir / 'crash_restart_manifest.json'}"
        )

    print("crash-restart gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
