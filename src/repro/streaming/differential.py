"""Differential verification of the streaming engine.

Incremental maintenance earns trust differentially: replay an edit
script through the :class:`~repro.streaming.engine.StreamingEngine` and,
at **every** batch checkpoint, rebuild a from-scratch
:class:`~repro.core.gsindex.GSIndex` over the engine's snapshot and
assert bit-identity — roles, core labels, non-core pairs — at every
requested (ε, µ) point (plus fingerprint equality of the snapshot
against an independently maintained plain :class:`DynamicGraph`).
Engine and rebuild share the cluster assembly, so every checkpoint's
reference is also checked against the SCAN definitions by the
independent :func:`~repro.core.verify.verify_clustering`, outside both
timed regions.

:func:`replay_differential` also times both sides, so the CI gate reads
its per-batch speedup (incremental apply + query vs. full rebuild +
query) straight out of the :class:`ReplayReport`.

:func:`build_corpus` is the fixed-seed corpus behind
``benchmarks/check_stream.py`` and the property tests: three fixture
families (ER / LFR / powerlaw) × three script kinds
(insert / delete / mixed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..cache.store import SimilarityStore, graph_fingerprint
from ..core.gsindex import GSIndex
from ..core.verify import ClusteringVerificationError, verify_clustering
from ..graph.csr import CSRGraph
from ..graph.dynamic import DynamicGraph
from ..graph.generators import chung_lu, erdos_renyi, lfr_graph
from ..types import ScanParams
from .edits import EditScript, random_edit_script
from .engine import StreamingEngine

__all__ = [
    "CorpusCase",
    "DifferentialMismatch",
    "ReplayReport",
    "build_corpus",
    "corpus_fixtures",
    "replay_differential",
]

#: Default (ε, µ) checkpoints — two ε regimes, two µ regimes.
DEFAULT_POINTS = (ScanParams(0.4, 2), ScanParams(0.7, 3))


class DifferentialMismatch(AssertionError):
    """The engine diverged from a from-scratch rebuild at a checkpoint."""

    def __init__(self, batch: int, what: str, detail: str = "") -> None:
        self.batch = batch
        self.what = what
        message = f"batch {batch}: {what}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


@dataclass
class ReplayReport:
    """Outcome of one differential replay (all checkpoints verified)."""

    fixture: str
    kind: str
    batches: int = 0
    ops_applied: int = 0
    ops_skipped: int = 0
    arcs_repaired: int = 0
    points: int = 0
    setup_seconds: float = 0.0
    incremental_seconds: float = 0.0
    rebuild_seconds: float = 0.0
    checkpoints: list[dict] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Full-recompute wall over incremental wall, per-batch steady
        state (one-time engine setup is excluded: a streaming deployment
        pays it once, the rebuild side pays construction every batch)."""
        if self.incremental_seconds <= 0.0:
            return float("inf")
        return self.rebuild_seconds / self.incremental_seconds

    @property
    def edits_per_second(self) -> float:
        if self.incremental_seconds <= 0.0:
            return float("inf")
        return self.ops_applied / self.incremental_seconds

    def as_dict(self) -> dict:
        return {
            "fixture": self.fixture,
            "kind": self.kind,
            "batches": self.batches,
            "ops_applied": self.ops_applied,
            "ops_skipped": self.ops_skipped,
            "arcs_repaired": self.arcs_repaired,
            "points": self.points,
            "setup_seconds": self.setup_seconds,
            "incremental_seconds": self.incremental_seconds,
            "rebuild_seconds": self.rebuild_seconds,
            "speedup": self.speedup,
            "edits_per_second": self.edits_per_second,
        }


def replay_differential(
    graph: CSRGraph,
    script: EditScript,
    points=DEFAULT_POINTS,
    *,
    store: SimilarityStore | None = None,
    fixture: str = "graph",
    kind: str | None = None,
    collect_checkpoints: bool = False,
) -> ReplayReport:
    """Replay ``script`` and verify every batch checkpoint bit-for-bit.

    Raises :class:`DifferentialMismatch` on the first divergence —
    snapshot fingerprint vs. an independently maintained plain
    :class:`DynamicGraph`, any (ε, µ) clustering vs. a from-scratch
    :class:`GSIndex` rebuild, or a rebuild that fails
    :func:`verify_clustering`.  Timings for the incremental side (batch
    apply + warm queries) and the rebuild side (index construction +
    queries) accumulate in the returned :class:`ReplayReport`.
    """
    points = [p if isinstance(p, ScanParams) else ScanParams(*p) for p in points]
    engine = StreamingEngine(graph, store=store)
    shadow = DynamicGraph.from_csr(graph)
    report = ReplayReport(
        fixture=fixture,
        kind=kind if kind is not None else str(script.meta.get("kind", "?")),
        points=len(points),
    )

    # Materialize every point once up front so later queries measure the
    # warm serving path a streaming deployment actually runs.
    t0 = time.perf_counter()
    for params in points:
        engine.query(params)
    report.setup_seconds += time.perf_counter() - t0

    for batch_no, batch in enumerate(script):
        t0 = time.perf_counter()
        applied = engine.apply(batch)
        incremental = {
            id(params): engine.query(params) for params in points
        }
        report.incremental_seconds += time.perf_counter() - t0
        report.batches += 1
        report.ops_applied += applied.effective
        report.ops_skipped += applied.skipped
        report.arcs_repaired += applied.arcs_repaired

        # Shadow graph: same edits through the plain DynamicGraph.
        for op in batch:
            if op.insert:
                shadow.insert_edge(op.u, op.v)
            else:
                shadow.remove_edge(op.u, op.v)
        shadow_snapshot = shadow.snapshot()
        if graph_fingerprint(shadow_snapshot) != applied.fingerprint:
            raise DifferentialMismatch(
                batch_no,
                "snapshot fingerprint diverged from shadow graph",
                f"engine={applied.fingerprint[:12]}",
            )

        # From-scratch rebuild at this checkpoint, every point.
        t0 = time.perf_counter()
        reference_index = GSIndex(engine.snapshot)
        references = {
            id(params): reference_index.query(params) for params in points
        }
        report.rebuild_seconds += time.perf_counter() - t0

        for params in points:
            got = incremental[id(params)]
            want = references[id(params)]
            if not want.same_clustering(got):
                raise DifferentialMismatch(
                    batch_no,
                    "clustering diverged from from-scratch rebuild",
                    f"eps={float(params.eps)} mu={params.mu}",
                )
            try:
                verify_clustering(engine.snapshot, want)
            except ClusteringVerificationError as exc:
                raise DifferentialMismatch(
                    batch_no, "rebuild failed verify_clustering", str(exc)
                ) from exc
        if collect_checkpoints:
            report.checkpoints.append(
                {
                    "batch": batch_no,
                    "fingerprint": applied.fingerprint,
                    "num_edges": applied.num_edges,
                    "arcs_repaired": applied.arcs_repaired,
                }
            )
    return report


# ---------------------------------------------------------------------------
# The fixed-seed corpus
# ---------------------------------------------------------------------------

SCRIPT_KINDS = ("insert", "delete", "mixed")


def corpus_fixtures(scale: float = 1.0, seed: int = 2026) -> dict[str, CSRGraph]:
    """The three fixture families the corpus replays scripts on."""
    n_er = max(24, int(120 * scale))
    n_lfr = max(48, int(160 * scale))
    n_pl = max(24, int(120 * scale))
    lfr, _ = lfr_graph(
        n_lfr, avg_degree=8.0, mu_mix=0.2, min_community=8, seed=seed + 1
    )
    weights = [(k + 1) ** -0.8 for k in range(n_pl)]
    return {
        "er": erdos_renyi(n_er, int(4 * n_er), seed=seed),
        "lfr": lfr,
        "powerlaw": chung_lu(weights, int(3 * n_pl), seed=seed + 2),
    }


@dataclass(frozen=True)
class CorpusCase:
    """One corpus cell: a fixture graph plus a seeded edit script."""

    fixture: str
    kind: str
    graph: CSRGraph
    script: EditScript

    def describe(self) -> dict:
        return {
            "fixture": self.fixture,
            "kind": self.kind,
            "num_vertices": self.graph.num_vertices,
            "num_edges": self.graph.num_edges,
            "batches": len(self.script),
            "ops": self.script.num_ops,
            "meta": dict(self.script.meta),
        }


def build_corpus(
    *,
    scale: float = 1.0,
    seed: int = 2026,
    batches: int = 6,
    batch_size: int = 12,
    kinds=SCRIPT_KINDS,
) -> list[CorpusCase]:
    """The fixed-seed differential corpus: fixtures × script kinds."""
    cases: list[CorpusCase] = []
    fixtures = corpus_fixtures(scale, seed)
    for f_no, (fixture, graph) in enumerate(sorted(fixtures.items())):
        for k_no, kind in enumerate(kinds):
            script = random_edit_script(
                graph,
                kind=kind,
                batches=batches,
                batch_size=batch_size,
                seed=seed + 10 * f_no + k_no,
            )
            script.meta["fixture"] = fixture
            cases.append(
                CorpusCase(fixture=fixture, kind=kind, graph=graph, script=script)
            )
    return cases
