"""Benchmark regression gating: compare fresh results against baselines.

The CI hook behind ``benchmarks/check_regression.py``: a *baseline* JSON
(committed under ``benchmarks/baselines/``) records the metrics of a
known-good run; a fresh run reproduces them and every metric is compared
under a per-kind tolerance.  Metrics fall into three kinds, classified
by name:

* **counts** (default) — machine-independent work tallies (CompSim
  invocations, scalar/vector ops, cluster counts).  Deterministic for a
  fixed seed, so *any* drift beyond ``count_tol`` (default 0.1%) fails —
  in either direction: an unexplained drop is as suspicious as a rise.
* **wall** (name contains ``wall`` or ends in ``_seconds``) — lower is
  better; fails when the fresh value exceeds baseline by more than
  ``wall_tol``.  Wall metrics should be *calibrated* (divided by
  :func:`calibrate`'s fixed-workload time on the same host) so baselines
  survive hardware changes.
* **speedup** (name contains ``speedup``) — higher is better; fails when
  the fresh value falls below baseline by more than ``speedup_tol``.

The smoke workload (:func:`run_smoke`) runs ppSCAN in both execution
modes on a deterministic stand-in graph, asserts the clusterings agree,
and emits one comparable metrics dict (plus, optionally, the Chrome
trace of the batched run for CI artifacts).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = [
    "Regression",
    "TrendViolation",
    "calibrate",
    "classify_metric",
    "compare_results",
    "flatten",
    "median_mad",
    "run_smoke",
    "trend_bands",
    "trend_gate",
    "DEFAULT_COUNT_TOL",
    "DEFAULT_WALL_TOL",
    "DEFAULT_SPEEDUP_TOL",
    "DEFAULT_MIN_HISTORY",
    "DEFAULT_NSIGMA",
    "DEFAULT_REL_FLOOR",
]

DEFAULT_COUNT_TOL = 0.001
DEFAULT_WALL_TOL = 0.15
DEFAULT_SPEEDUP_TOL = 0.40

#: Trend gating: fewer comparable ledger records than this and the gate
#: falls back to the static baseline (history too thin for robust bands).
DEFAULT_MIN_HISTORY = 3
#: Width of the MAD band in (scaled) sigmas.  MAD × 1.4826 estimates the
#: standard deviation under normality; 4σ keeps the false-positive rate
#: negligible over hundreds of gated metrics while a 2x slowdown (≈ +100%)
#: still lands far outside any realistic smoke-benchmark band.
DEFAULT_NSIGMA = 4.0
#: Relative floor on the band half-width.  Protects against a degenerate
#: MAD (near-identical history values → zero-width band) flagging noise;
#: a genuine 2x regression clears a 25% floor with a 4x margin.
DEFAULT_REL_FLOOR = 0.25


@dataclass(frozen=True)
class Regression:
    """One metric that violated its tolerance."""

    key: str
    kind: str
    baseline: float
    fresh: float
    tolerance: float

    @property
    def rel_change(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.fresh else 0.0
        return (self.fresh - self.baseline) / abs(self.baseline)

    def describe(self) -> str:
        return (
            f"{self.key} [{self.kind}]: baseline {self.baseline:g} -> "
            f"fresh {self.fresh:g} ({self.rel_change:+.1%}, "
            f"tolerance {self.tolerance:.1%})"
        )


def flatten(tree: Mapping[str, Any], prefix: str = "") -> dict[str, float]:
    """Flatten nested mappings into dot-keyed numeric leaves; non-numeric
    leaves (labels, descriptions) are skipped."""
    out: dict[str, float] = {}
    for key, value in tree.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            out.update(flatten(value, name))
        elif isinstance(value, bool):
            out[name] = float(value)
        elif isinstance(value, (int, float)):
            out[name] = float(value)
    return out


def classify_metric(key: str) -> str:
    """``wall`` / ``speedup`` / ``count`` / ``info`` from the metric's name.

    ``info`` metrics (host calibration) are recorded for debuggability
    but never gated — they are *expected* to differ between hosts.
    """
    lowered = key.lower()
    if "calibration" in lowered:
        return "info"
    if "speedup" in lowered:
        return "speedup"
    if "wall" in lowered or lowered.endswith("_seconds"):
        return "wall"
    return "count"


def compare_results(
    baseline: Mapping[str, Any],
    fresh: Mapping[str, Any],
    count_tol: float = DEFAULT_COUNT_TOL,
    wall_tol: float = DEFAULT_WALL_TOL,
    speedup_tol: float = DEFAULT_SPEEDUP_TOL,
) -> list[Regression]:
    """Every metric of ``baseline`` checked against ``fresh``.

    Metrics present only in ``fresh`` are ignored (new instrumentation is
    not a regression); metrics missing from ``fresh`` fail loudly.
    """
    base_flat = flatten(baseline)
    fresh_flat = flatten(fresh)
    regressions: list[Regression] = []
    for key in sorted(base_flat):
        kind = classify_metric(key)
        if kind == "info":
            continue
        base = base_flat[key]
        if key not in fresh_flat:
            regressions.append(Regression(key, "missing", base, float("nan"), 0.0))
            continue
        value = fresh_flat[key]
        if kind == "wall":
            limit = base * (1.0 + wall_tol)
            if value > limit and value - base > 1e-12:
                regressions.append(Regression(key, kind, base, value, wall_tol))
        elif kind == "speedup":
            limit = base * (1.0 - speedup_tol)
            if value < limit:
                regressions.append(
                    Regression(key, kind, base, value, speedup_tol)
                )
        else:
            if base == 0:
                drift = abs(value)
            else:
                drift = abs(value - base) / abs(base)
            if drift > count_tol:
                regressions.append(Regression(key, kind, base, value, count_tol))
    return regressions


# ---------------------------------------------------------------------------
# Trend-aware gating over ledger history
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrendViolation:
    """One metric outside its robust history band."""

    key: str
    kind: str
    fresh: float
    median: float
    mad: float
    limit: float
    n_history: int

    def describe(self) -> str:
        direction = "above" if self.kind != "speedup" else "below"
        return (
            f"{self.key} [{self.kind}]: fresh {self.fresh:g} is {direction} "
            f"the trend limit {self.limit:g} "
            f"(median {self.median:g}, MAD {self.mad:g}, "
            f"n={self.n_history})"
        )


def median_mad(values: "list[float]") -> tuple[float, float]:
    """Median and median absolute deviation of ``values``.

    Both are 50%-breakdown robust: one wild outlier in the history (a
    noisy CI run that still passed) shifts neither, which is the whole
    reason the trend gate prefers them to mean/stdev.
    """
    if not values:
        raise ValueError("median_mad of empty sequence")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    med = (
        ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    )
    deviations = sorted(abs(v - med) for v in ordered)
    mad = (
        deviations[mid]
        if n % 2
        else (deviations[mid - 1] + deviations[mid]) / 2.0
    )
    return med, mad


def trend_bands(
    histories: "list[Mapping[str, Any]]",
) -> dict[str, tuple[float, float, int]]:
    """Per-metric ``(median, MAD, n)`` over flattened history dicts.

    A metric contributes wherever it appears; metrics absent from some
    records (older instrumentation) simply have smaller ``n``.
    """
    series: dict[str, list[float]] = {}
    for entry in histories:
        for key, value in flatten(entry).items():
            series.setdefault(key, []).append(value)
    out: dict[str, tuple[float, float, int]] = {}
    for key, values in series.items():
        med, mad = median_mad(values)
        out[key] = (med, mad, len(values))
    return out


#: MAD → sigma under normality (1 / Φ⁻¹(3/4)).
MAD_SIGMA = 1.4826


def trend_gate(
    histories: "list[Mapping[str, Any]]",
    fresh: Mapping[str, Any],
    *,
    min_history: int = DEFAULT_MIN_HISTORY,
    nsigma: float = DEFAULT_NSIGMA,
    count_tol: float = DEFAULT_COUNT_TOL,
    rel_floor: float = DEFAULT_REL_FLOOR,
) -> list[TrendViolation]:
    """Gate ``fresh`` against the robust bands of comparable history.

    Classification reuses :func:`classify_metric`:

    * **wall** — one-sided upper band: fails when
      ``fresh > median + max(nsigma · 1.4826 · MAD, rel_floor · median)``;
    * **speedup** — the symmetric lower band (higher is better);
    * **count** — deterministic, so the band is the same tight
      ``count_tol`` relative drift off the *median* (both directions)
      that the static gate uses off the baseline;
    * **info** — never gated.

    Metrics with fewer than ``min_history`` history points are skipped
    (the caller decides whether thin history falls back to the static
    baseline — :func:`trend_gate` itself only gates what it can defend).
    New metrics absent from history are never violations.
    """
    bands = trend_bands(histories)
    fresh_flat = flatten(fresh)
    violations: list[TrendViolation] = []
    for key in sorted(fresh_flat):
        kind = classify_metric(key)
        if kind == "info":
            continue
        band = bands.get(key)
        if band is None:
            continue
        median, mad, n = band
        if n < min_history:
            continue
        value = fresh_flat[key]
        if kind == "wall":
            width = max(nsigma * MAD_SIGMA * mad, rel_floor * abs(median))
            limit = median + width
            if value > limit and value - median > 1e-12:
                violations.append(
                    TrendViolation(key, kind, value, median, mad, limit, n)
                )
        elif kind == "speedup":
            width = max(nsigma * MAD_SIGMA * mad, rel_floor * abs(median))
            limit = median - width
            if value < limit:
                violations.append(
                    TrendViolation(key, kind, value, median, mad, limit, n)
                )
        else:
            if median == 0:
                drift = abs(value)
            else:
                drift = abs(value - median) / abs(median)
            if drift > count_tol:
                limit = median * (1.0 + count_tol)
                violations.append(
                    TrendViolation(key, kind, value, median, mad, limit, n)
                )
    return violations


# ---------------------------------------------------------------------------
# Host calibration and the smoke workload
# ---------------------------------------------------------------------------


def calibrate(rounds: int = 3) -> float:
    """Seconds for a fixed reference workload on this host (best of
    ``rounds``).

    The mixture mirrors the hot paths (interpreted integer loop + NumPy
    sort/cumsum dispatches) so ``wall / calibrate()`` is a roughly
    host-independent "calibrated wall" unit that a committed baseline can
    gate within a few tens of percent.
    """
    import numpy as np

    data = np.arange(200_000, dtype=np.int64)[::-1].copy()
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        for i in range(120_000):
            acc += i & 7
        np.sort(data)
        np.cumsum(data).sum()
        best = min(best, time.perf_counter() - t0)
    # Keep the value visible so a pathological host is debuggable.
    return best + (0.0 * acc)


def _record_counts(record) -> dict[str, int]:
    total = record.total()
    return {
        "compsims": total.compsims,
        "scalar_cmp": total.scalar_cmp,
        "vector_ops": total.vector_ops,
        "bound_updates": total.bound_updates,
        "arcs": total.arcs,
        "atomics": total.atomics,
    }


def run_smoke(
    scale: float = 0.15,
    rounds: int = 3,
    trace_path=None,
) -> dict[str, Any]:
    """The deterministic smoke workload for regression gating.

    Runs ppSCAN in scalar and batched mode on the livejournal stand-in at
    ``scale`` (fixed seed), keeps best-of-``rounds`` walls, verifies both
    modes agree, and returns the comparable metrics dict.  When
    ``trace_path`` is given, the last batched run is traced and exported
    in Chrome format (the CI build artifact).
    """
    from ..core import assert_same_clustering
    from ..core.ppscan import ppscan
    from ..graph.generators import real_world_standin
    from ..types import ScanParams
    from .export import write_chrome_trace
    from .tracer import Tracer, use_tracer

    params = ScanParams(eps=0.4, mu=5)
    graph = real_world_standin("livejournal", scale=scale)
    calib = calibrate()

    legs = (
        ("scalar", dict(exec_mode="scalar")),
        ("batched", dict(exec_mode="batched")),
    )
    results: dict[str, Any] = {}
    walls = {name: float("inf") for name, _ in legs}
    for _ in range(max(rounds, 1)):
        for mode, kwargs in legs:
            t0 = time.perf_counter()
            results[mode] = ppscan(graph, params, **kwargs)
            walls[mode] = min(walls[mode], time.perf_counter() - t0)
    assert_same_clustering(results["scalar"], results["batched"])

    if trace_path is not None:
        tracer = Tracer()
        with use_tracer(tracer):
            ppscan(graph, params, exec_mode="batched")
        tracer.metrics.ingest_record(results["batched"].record)
        write_chrome_trace(trace_path, tracer)

    reference = results["scalar"]
    data: dict[str, Any] = {
        "workload": {
            "graph": "livejournal",
            "scale": scale,
            "eps": params.eps,
            "mu": params.mu,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
        },
        "clustering": {
            "clusters": reference.num_clusters,
            "cores": reference.num_cores,
            "noncore_memberships": len(reference.noncore_pairs),
        },
        "calibration_seconds": calib,
        "scalar": {
            **_record_counts(results["scalar"].record),
            "wall_units": walls["scalar"] / calib,
        },
        "batched": {
            **_record_counts(results["batched"].record),
            "wall_units": walls["batched"] / calib,
            "speedup": walls["scalar"] / walls["batched"],
        },
    }
    return data
