"""``offline-cold``: the paper's experiment through ``repro.api.cluster``.

Four paper stand-ins at scale 1.0, each clustered cold by five exact
paths.  One operation is one ``api.cluster`` call on one graph by one
path; every round makes all twenty calls in a seeded order, and rounds
repeat until the run has measured for ``--seconds`` (at least one).
Answers are checked after the timed region: the five paths must agree
per graph, and the batched ppSCAN result must pass the independent
``verify_clustering`` oracle.
"""

from __future__ import annotations

import gc
import math
import random
import time

from .common import geomean, host_slowness, log, median, percentile, self_peak_rss_mb
from .spans import Recorder, install, layer_metrics

#: (stand-in, eps, mu): the paper's four graphs; each point gives >= 5
#: clusters.  The stand-ins use the generator's canonical seed, like the
#: repo's other benches: clustering cost moves by up to 20% between
#: generator seeds, more than the bounds allow.
POINTS = (
    ("orkut", 0.2, 3),
    ("webbase", 0.2, 3),
    ("twitter", 0.3, 3),
    ("friendster", 0.1, 3),
)
SCALE = 1.0
PATHS = (
    "ppscan",
    "ppscan_batched",
    "scanxp_batched",
    "ppscan_process2",
    "gsindex",
)
#: Record-stage names of ppSCAN folded into the per-layer stage metrics.
PPSCAN_STAGES = {
    "similarity pruning": "similarity_pruning_s",
    "core checking": "core_checking_s",
    "core consolidating": "core_consolidating_s",
    "core clustering (no compsim)": "core_clustering_s",
    "core clustering (compsim)": "core_clustering_s",
    "cluster id init": "core_clustering_s",
    "non-core clustering": "noncore_clustering_s",
}
#: ppSCAN paths named by their execution strategy in per-layer metrics.
PPSCAN_PATHS = {
    "ppscan": "scalar",
    "ppscan_batched": "batched",
    "ppscan_process2": "process2",
}
COUNTER_PATHS = {**PPSCAN_PATHS, "scanxp_batched": "scanxp"}
WORKERS = 2
SETUPS = 3


def _call(path: str):
    from repro.options import BackendKind, ExecMode, ExecutionOptions

    batched = ExecutionOptions(exec_mode=ExecMode.BATCHED)
    return {
        "ppscan": ("ppscan", None),
        "ppscan_batched": ("ppscan", batched),
        "scanxp_batched": ("scanxp", batched),
        "ppscan_process2": (
            "ppscan",
            batched.evolve(backend=BackendKind.PROCESS, workers=WORKERS),
        ),
        "gsindex": ("gsindex", None),
    }[path]


def _measure(graphs, seed: int, seconds: float):
    """Timed rounds; returns per-call walls and the last result per call."""
    from repro import api
    from repro.types import ScanParams

    rng = random.Random(seed)
    calls = [(name, path) for name, _, _ in POINTS for path in PATHS]
    params = {name: ScanParams(eps, mu) for name, eps, mu in POINTS}
    walls: list[tuple[str, str, float]] = []
    results: dict = {}
    errors: list[str] = []
    slowness = [host_slowness()]
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        rng.shuffle(calls)
        for name, path in calls:
            algorithm, options = _call(path)
            # Start every call from a collected heap, so the garbage the
            # previous call left (which depends on the seeded order) is
            # not charged to this one.
            gc.collect()
            t0 = time.perf_counter()
            try:
                result = api.cluster(
                    graphs[name], params[name], algorithm=algorithm, options=options
                )
            except Exception as exc:  # noqa: BLE001 - counted as failed
                errors.append(f"{name}/{path}: {type(exc).__name__}: {exc}")
                continue
            walls.append((name, path, time.perf_counter() - t0))
            slowness.append(host_slowness())
            results[(name, path)] = result
    return walls, results, errors, slowness


def _check(graphs, results) -> list[str]:
    """Every path agrees per graph; one result per graph is verified."""
    from repro.core import assert_same_clustering, verify_clustering

    problems = []
    for name, _, _ in POINTS:
        reference = results.get((name, "ppscan_batched"))
        if reference is None:
            problems.append(f"{name}: no batched ppSCAN result to verify")
            continue
        try:
            verify_clustering(graphs[name], reference)
        except AssertionError as exc:
            problems.append(f"{name}: verify_clustering failed: {exc}")
        if reference.num_clusters < 5:
            problems.append(f"{name}: only {reference.num_clusters} clusters")
        for path in PATHS:
            other = results.get((name, path))
            if other is None:
                continue
            try:
                assert_same_clustering(reference, other)
            except AssertionError as exc:
                problems.append(f"{name}/{path} disagrees: {exc}")
    return problems


def _scaled(walls, slowness):
    """Each call's wall divided by the geometric mean of the slowness
    measured just before and just after it.  Over six seeds that spread
    9% on ops_per_s where dividing by the run's median slowness spread
    13%: the host's speed moves within a run."""
    return [
        (name, path, wall / math.sqrt(before * after))
        for (name, path, wall), before, after in zip(walls, slowness, slowness[1:])
    ]


def _end_to_end(setup_s: float, walls, rss_mb: float) -> dict:
    seconds = [w for _, _, w in walls]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "p50_ms": median(seconds) * 1e3,
        "p99_ms": percentile(seconds, 99) * 1e3,
        "heavy_ms": geomean(seconds) * 1e3,
        "ops_per_s": len(seconds) / sum(seconds),
    }


def _per_layer(rec: Recorder, walls, results, setup_s: float) -> dict:
    out: dict[str, float] = {}
    rounds = max(1, len(walls) // (len(POINTS) * len(PATHS)))
    for path in PATHS:
        out[f"cluster_{path}_s"] = (
            sum(w for _, p, w in walls if p == path) / rounds
        )
    for (name, path), result in results.items():
        record = result.record
        if path in PPSCAN_PATHS:
            prefix = f"core.ppscan.{PPSCAN_PATHS[path]}"
            for stage in record.stages:
                key = f"{prefix}.{PPSCAN_STAGES[stage.name]}"
                out[key] = out.get(key, 0.0) + stage.wall_seconds
        elif path == "scanxp_batched":
            for stage in record.stages:
                key = (
                    "core.scanxp.similarity_computation_s"
                    if stage.name == "similarity computation"
                    else "core.scanxp.clustering_s"
                )
                out[key] = out.get(key, 0.0) + stage.wall_seconds
        if path in COUNTER_PATHS:
            total = record.total()
            prefix = f"intersect.{COUNTER_PATHS[path]}"
            for field in ("compsims", "scalar_cmp", "vector_ops", "bound_updates"):
                key = f"{prefix}.{field}"
                out[key] = out.get(key, 0) + getattr(total, field)

    out.update(layer_metrics(rec.spans, rec.counts))
    out["parallel.speedup_2"] = (
        out["cluster_ppscan_batched_s"] / out["cluster_ppscan_process2_s"]
    )
    out["graph.generate_s"] = setup_s
    out["trace.wall_s"] = setup_s + sum(w for _, _, w in walls)
    self_total = sum(v for k, v in out.items() if k.startswith("self_s."))
    out["unaccounted_s"] = out["trace.wall_s"] - self_total
    return out


def _generate(rec: Recorder) -> tuple[dict, float]:
    """Set-up: generate the four stand-ins; returns them and the time."""
    from repro.graph.generators import real_world_standin

    t0 = time.perf_counter()
    graphs = {}
    for name, _, _ in POINTS:
        with rec.span("graph.generate", tag=name):
            graphs[name] = real_world_standin(name, scale=SCALE)
    return graphs, time.perf_counter() - t0


def run(seed: int, seconds: float, trace: bool) -> dict:
    rec = Recorder()
    rec.enabled = trace
    graphs, setup_s = _generate(rec)
    log(f"offline-cold: generated {len(graphs)} stand-ins in {setup_s:.2f}s")

    if trace:
        # The untraced pass first: tracing overhead is the difference.
        rec.enabled = False
        plain, _, _, plain_slowness = _measure(graphs, seed, seconds)
        install(rec)
        rec.enabled = True
    walls, results, errors, slowness = _measure(graphs, seed, seconds)
    rec.enabled = False
    rss_mb = self_peak_rss_mb()
    log(f"offline-cold: {len(walls)} clustering calls in "
        f"{sum(w for _, _, w in walls):.2f}s")
    # setup_s is the median of SETUPS set-ups.  The others run after the
    # peak RSS is read (graphs generated and freed leave the heap about
    # 20 MB larger) and not in a traced run, whose spans count one.
    setups = [setup_s]
    if not trace:
        setups += [_generate(rec)[1] for _ in range(SETUPS - 1)]
    setup_s = median(setups)

    problems = errors + _check(graphs, results)
    # Set-up runs outside the calls and is divided by the run's median.
    slow = median(slowness)
    metrics = _end_to_end(setup_s / slow, _scaled(walls, slowness), rss_mb)
    attempted = len(walls) + len(errors)
    out = {
        "attempted": attempted,
        "failed": min(attempted, len(problems)),
        "problems": problems,
        "metrics": metrics,
        "meta": {
            "paths": list(PATHS),
            "scale": SCALE,
            "workers": WORKERS,
            "host_slowness": slow,
            "setups_s": setups,
            "unscaled": _end_to_end(setup_s, walls, rss_mb),
            "host_slowness_series": slowness,
        },
    }
    p99_ms = metrics.pop("p99_ms")
    if trace:
        layer = _per_layer(rec, walls, results, setup_s)
        layer["client.p99_ms"] = p99_ms
        layer["trace.overhead_p50_ms"] = (
            metrics["p50_ms"]
            - median([w for _, _, w in _scaled(plain, plain_slowness)]) * 1e3
        )
        out["layer"] = layer
    return out
