"""Parameter-sweep engine with cross-run similarity reuse.

The paper's robustness study (Fig. 7, §5.5) re-clusters one graph over a
whole (ε, µ) grid.  Run independently, every grid point recomputes every
edge overlap; but the overlap is parameter-independent, so one exact
resolution serves the entire grid.  :class:`SweepEngine` threads a
:class:`~repro.cache.SimilarityStore` through the grid:

* the first grid point seeds the store with whichever arcs its (pruned)
  run actually resolved — partial coverage still transfers;
* every later point prefolds the covered arcs (one vectorized integer
  comparison per arc against *its own* ε² thresholds) and only
  intersects the remainder;
* grid points are ordered by descending ε within each µ — higher ε
  prunes least, so the earliest runs contribute the broadest coverage
  and later (easier) points inherit it.

Because the store holds exact integer overlaps and every consumer
decides ``overlap >= min_cn`` in integer arithmetic, each grid point's
clustering is bit-identical to an independent run — the differential
conformance suite locks this in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .bench.reporting import format_table
from .cache import CacheStats, SimilarityStore
from .core.result import ClusteringResult
from .graph.csr import CSRGraph
from .metrics.records import RunRecord
from .obs.tracer import current_tracer
from .options import ExecutionOptions
from .types import ScanParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .checkpoint import CheckpointManager

__all__ = ["SweepEngine", "SweepOutcome", "SweepPoint"]


@dataclass(frozen=True)
class SweepPoint:
    """One executed grid point: its result plus the store traffic it saw."""

    eps: float
    mu: int
    result: ClusteringResult
    hits: int
    misses: int
    wall_seconds: float

    @property
    def reuse_fraction(self) -> float:
        """Fraction of this point's overlap lookups served from the store."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class SweepOutcome:
    """All grid points (in execution order) plus aggregate store stats."""

    algorithm: str
    points: list[SweepPoint] = field(default_factory=list)
    wall_seconds: float = 0.0
    stats: CacheStats = field(default_factory=CacheStats)
    cached: bool = True
    spilled: int = 0

    def point(self, eps: float, mu: int) -> SweepPoint:
        for p in self.points:
            if p.eps == eps and p.mu == mu:
                return p
        raise KeyError(f"no grid point (eps={eps}, mu={mu})")

    def results(self) -> dict[tuple[float, int], ClusteringResult]:
        return {(p.eps, p.mu): p.result for p in self.points}

    def report(self) -> str:
        """Human-readable grid table with per-point reuse fractions."""
        rows = []
        for p in self.points:
            rows.append(
                [
                    f"{p.eps:g}",
                    str(p.mu),
                    str(p.result.num_clusters),
                    str(p.result.num_cores),
                    f"{p.wall_seconds * 1e3:.1f}",
                    f"{p.reuse_fraction * 100:.1f}%" if self.cached else "-",
                ]
            )
        table = format_table(
            f"(eps, mu) sweep — {self.algorithm}",
            ["eps", "mu", "clusters", "cores", "wall_ms", "reuse"],
            rows,
        )
        if self.cached:
            summary = (
                f"store: {self.stats.hits} hits, {self.stats.misses} misses "
                f"({self.stats.reuse_fraction * 100:.1f}% reuse)"
            )
            if self.spilled:
                summary += f", spilled {self.spilled} entr" + (
                    "y" if self.spilled == 1 else "ies"
                )
            return table + "\n" + summary
        return table


class SweepEngine:
    """Executes an (ε, µ) grid, resolving each arc overlap at most once.

    ``store`` attaches an existing :class:`~repro.cache.SimilarityStore`
    (so several sweeps, or a sweep plus ad-hoc ``cluster`` calls, share
    one memo); otherwise a fresh store is created — disk-backed when
    ``cache_dir`` is given, in-memory only when not.  ``use_cache=False``
    degrades to plain independent runs (for A/B measurement).
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        algorithm: str = "ppscan",
        options: ExecutionOptions | None = None,
        store: SimilarityStore | None = None,
        cache_dir=None,
        use_cache: bool = True,
        checkpoint: "CheckpointManager | None" = None,
    ) -> None:
        self.graph = graph
        self.algorithm = algorithm
        self.options = options if options is not None else ExecutionOptions()
        if store is None and use_cache and self.options.cache is not None:
            store = self.options.cache
        if store is None and use_cache:
            store = SimilarityStore(cache_dir=cache_dir)
        self.store = store if use_cache else None
        #: Per-grid-point durable resume: after each point the cumulative
        #: results (plus the store's coverage) are snapshotted, so a
        #: crashed sweep restarts at the first unfinished point with at
        #: least the reuse the interrupted run had accumulated.
        self.checkpoint = (
            checkpoint
            if checkpoint is not None
            else self.options.checkpoint
        )

    @staticmethod
    def grid_order(
        eps_values, mu_values
    ) -> list[tuple[float, int]]:
        """The execution order: µ as given, ε descending within each µ.

        Higher ε yields the largest thresholds and therefore the least
        degree-based pruning — those runs resolve (and record) the most
        arcs, so running them first maximizes what later points inherit.
        """
        eps_sorted = sorted(eps_values, key=float, reverse=True)
        return [(eps, mu) for mu in mu_values for eps in eps_sorted]

    def run(self, eps_values, mu_values) -> SweepOutcome:
        """Cluster every grid point; returns points in execution order."""
        from . import api  # runtime import: api imports this module lazily

        t0 = time.perf_counter()
        opts = self.options
        if self.store is not None:
            opts = opts.evolve(cache=self.store)
        elif opts.cache is not None:
            opts = opts.evolve(cache=None)
        # The sweep owns the checkpoint: each grid point is one epoch.
        # Inner cluster() calls must NOT see the manager, or they would
        # rebind it to their own (eps, mu) identity mid-sweep.
        if opts.checkpoint is not None:
            opts = opts.evolve(checkpoint=None)
        tracer = current_tracer()
        points: list[SweepPoint] = []
        spilled = 0
        order = [
            (float(e), int(m))
            for e, m in self.grid_order(eps_values, mu_values)
        ]
        ck = self.checkpoint
        if ck is not None and order:
            ck.bind(
                self.graph,
                ScanParams(order[0][0], order[0][1]),
                algorithm=f"sweep:{self.algorithm}",
                exec_mode=opts.resolved_exec_mode.value,
                extra={
                    "grid": [[e, m] for e, m in order],
                    "cached": self.store is not None,
                },
            )
            snap = ck.load_latest()
            if snap is not None:
                for i, info in enumerate(snap.meta.get("points", [])):
                    pairs_arr = (
                        np.asarray(snap.arrays[f"pt{i}_pairs"])
                        .reshape(-1, 2)
                        .tolist()
                    )
                    result = ClusteringResult(
                        algorithm=str(info["algorithm"]),
                        params=ScanParams(
                            float(info["eps"]), int(info["mu"])
                        ),
                        roles=np.asarray(
                            snap.arrays[f"pt{i}_roles"], dtype=np.int8
                        ),
                        core_labels=np.asarray(
                            snap.arrays[f"pt{i}_labels"], dtype=np.int64
                        ),
                        noncore_pairs=[
                            (int(a), int(b)) for a, b in pairs_arr
                        ],
                        record=RunRecord(
                            algorithm=str(info["algorithm"]),
                            stages=[],
                            wall_seconds=float(info["wall"]),
                        ),
                    )
                    points.append(
                        SweepPoint(
                            eps=float(info["eps"]),
                            mu=int(info["mu"]),
                            result=result,
                            hits=int(info["hits"]),
                            misses=int(info["misses"]),
                            wall_seconds=float(info["wall"]),
                        )
                    )
                if self.store is not None and "store_overlap" in snap.arrays:
                    entry = self.store.entry_for(self.graph)
                    entry.overlap = np.asarray(
                        snap.arrays["store_overlap"], dtype=np.int64
                    ).copy()
                    entry.coverage = np.unpackbits(
                        np.asarray(
                            snap.arrays["store_coverage"], dtype=np.uint8
                        ),
                        count=entry.num_arcs,
                    ).astype(bool)
                    entry.dirty = True

        def _save_points() -> None:
            arrays: dict[str, np.ndarray] = {}
            infos = []
            for i, p in enumerate(points):
                arrays[f"pt{i}_roles"] = np.asarray(
                    p.result.roles, dtype=np.int8
                )
                arrays[f"pt{i}_labels"] = np.asarray(
                    p.result.core_labels, dtype=np.int64
                )
                arrays[f"pt{i}_pairs"] = np.asarray(
                    p.result.noncore_pairs, dtype=np.int64
                ).reshape(-1, 2)
                infos.append(
                    {
                        "eps": p.eps,
                        "mu": p.mu,
                        "hits": p.hits,
                        "misses": p.misses,
                        "wall": p.wall_seconds,
                        "algorithm": p.result.algorithm,
                    }
                )
            if self.store is not None:
                entry = self.store.entry_for(self.graph)
                arrays["store_overlap"] = entry.overlap
                arrays["store_coverage"] = np.packbits(entry.coverage)
            ck.save(
                arrays=arrays,
                meta={"cursor": len(points), "points": infos},
                phase=f"sweep point {len(points)}/{len(order)}",
            )

        for idx, (eps, mu) in enumerate(order):
            if idx < len(points):
                continue  # restored from the checkpoint
            before = self.store.stats() if self.store is not None else None
            t_point = time.perf_counter()
            with tracer.span("sweep:point", eps=float(eps), mu=int(mu)):
                result = api.cluster(
                    self.graph,
                    ScanParams(eps, mu),
                    algorithm=self.algorithm,
                    options=opts,
                )
            wall = time.perf_counter() - t_point
            hits = misses = 0
            if before is not None:
                after = self.store.stats()
                hits = after.hits - before.hits
                misses = after.misses - before.misses
            points.append(
                SweepPoint(
                    eps=float(eps),
                    mu=int(mu),
                    result=result,
                    hits=hits,
                    misses=misses,
                    wall_seconds=wall,
                )
            )
            if ck is not None:
                if self.store is not None:
                    spilled += self.store.spill()
                _save_points()
        spilled += self.store.spill() if self.store is not None else 0
        if self.store is not None:
            live = self.store.stats()
            # Aggregate over the whole grid, including points restored
            # from a checkpoint (whose traffic happened before the crash
            # and is not visible in this process's store counters).
            stats = CacheStats(
                hits=sum(p.hits for p in points),
                misses=sum(p.misses for p in points),
                spills=live.spills,
                rejects=live.rejects,
            )
        else:
            stats = CacheStats()
        return SweepOutcome(
            algorithm=self.algorithm,
            points=points,
            wall_seconds=time.perf_counter() - t0,
            stats=stats,
            cached=self.store is not None,
            spilled=spilled,
        )
