"""SCAN-XP (Takahashi et al., NDA'17) — exhaustive parallel baseline.

SCAN-XP exploits thread- and instruction-level parallelism on Xeon Phi but
performs *no pruning*: every arc's similarity is computed with a full
vectorized intersection, independently per arc (each undirected edge is
intersected twice — the synchronization-free design that lets it avoid
all shared writes).  Its workload is therefore independent of ε, the
property Figure 2/3 exposes (flat runtime while ppSCAN's falls).

Each phase has one task body; the run's
:class:`~repro.similarity.engine.SimilarityEngine` policy decides how the
similarity phase's arc blocks are counted — one vectorized count per arc
in order (``exec_mode="scalar"``) or one bulk ``arc_counts`` call per
task (``"batched"``).  Both stay exhaustive.  The phases run through the
shared :class:`~repro.core.phases.PhaseRunner`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from ..graph.csr import CSRGraph
from ..metrics.records import RunRecord, TaskCost
from ..obs.tracer import current_tracer
from ..parallel.backend import ExecutionBackend
from ..types import CORE, NONCORE, SIM, UNKNOWN, ScanParams
from ..unionfind import AtomicUnionFind
from .context import RunContext
from .phases import PhaseRunner
from .ppscan import (
    auto_batch_task_threshold,
    auto_task_threshold,
    core_clustering_body,
)
from .result import ClusteringResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache import SimilarityStore
    from ..checkpoint import CheckpointManager
    from ..sketch import SketchParams

__all__ = ["scanxp"]


def scanxp(
    graph: CSRGraph,
    params: ScanParams,
    *,
    lanes: int = 16,
    backend: ExecutionBackend | None = None,
    task_threshold: int | None = None,
    exec_mode: str = "scalar",
    store: "SimilarityStore | None" = None,
    checkpoint: "CheckpointManager | None" = None,
    sketch: "SketchParams | None" = None,
) -> ClusteringResult:
    """Run SCAN-XP; returns the canonical clustering result.

    ``exec_mode="batched"`` counts each task's whole arc range in one
    bulk call — still exhaustive (every arc is fully counted with no
    pruning and no reverse-arc reuse, preserving SCAN-XP's ε-independent
    workload), just without the per-arc interpreted kernel dispatch.

    ``store`` attaches a :class:`~repro.cache.SimilarityStore`: covered
    arcs are folded before the similarity phase and fresh overlaps are
    recorded (mirrored, so even a cold cached run intersects each edge
    once instead of SCAN-XP's canonical twice).  Decisions — and the
    clustering — are bit-identical; only the work accounting changes,
    which is why caching is opt-in.
    """
    t0 = time.perf_counter()
    ctx = RunContext(
        graph,
        params,
        kernel="vectorized",
        lanes=lanes,
        store=store,
        sketch=sketch,
        exec_mode=exec_mode,
    )
    engine = ctx.engine
    tracer = current_tracer()
    root_span = (
        tracer.start_span(
            "scanxp",
            lane=0,
            exec_mode=exec_mode,
            vertices=graph.num_vertices,
            arcs=ctx.num_arcs,
            eps=params.eps,
            mu=params.mu,
        )
        if tracer.enabled
        else None
    )
    if task_threshold is not None:
        threshold = task_threshold
    elif exec_mode == "scalar":
        threshold = auto_task_threshold(ctx.num_arcs)
    else:
        threshold = auto_batch_task_threshold(ctx.num_arcs)
    mu = ctx.mu
    n = ctx.n
    deg, off, dst = graph.degrees, graph.offsets, graph.dst
    src, mcn = ctx.src_np, ctx.mcn_np
    sim = np.full(ctx.num_arcs, UNKNOWN, dtype=np.int8)
    #: zeros until phase 2 computes (or a snapshot restores) them.
    roles = np.zeros(n, dtype=np.int8)
    uf = AtomicUnionFind(n)
    # Every arc's state is computed in phase 1; an attached store or
    # sketch gate prefolds the arcs it decides, so only the UNKNOWN
    # remainder is intersected.
    if store is not None:
        engine.prefold_cached(sim, mcn)
    if engine.sketch is not None:
        engine.sketch_prefold(sim, mcn)
    runner = PhaseRunner(
        "scanxp",
        ctx,
        sim=sim,
        roles=roles,
        uf=uf,
        threshold=threshold,
        backend=backend,
        checkpoint=checkpoint,
    )

    # -- Phase 1: exhaustive similarity, one full intersection per arc ----

    def similarity_task(beg: int, end: int):
        mark = runner.mark()
        a0, a1 = int(off[beg]), int(off[end])
        arcs = np.flatnonzero(sim[a0:a1] == UNKNOWN) + a0
        states = engine.resolve_exhaustive(arcs, mcn[arcs])
        return (arcs, states), runner.cost(mark, arcs=a1 - a0)

    def commit_similarity(writes) -> None:
        arcs, states = writes
        sim[arcs] = states

    # -- Phase 2: roles from exact similar-degree counts -------------------

    def role_task(beg: int, end: int):
        a0, a1 = int(off[beg]), int(off[end])
        sd = np.bincount(
            src[a0:a1][sim[a0:a1] == SIM] - beg, minlength=end - beg
        )
        core = np.where(sd >= mu, CORE, NONCORE).astype(np.int8)
        return (beg, core), TaskCost(arcs=a1 - a0)

    def commit_roles(writes) -> None:
        beg, values = writes
        roles[beg : beg + len(values)] = values

    # -- Phase 3: core clustering over known similar edges ----------------

    similarity = (similarity_task, commit_similarity)
    role_computation = (role_task, commit_roles)
    clustering = core_clustering_body(runner, ctx, (SIM,))
    with runner.pool(similarity, role_computation, clustering):
        runner.run("similarity computation", *similarity)
        runner.run("role computation", *role_computation)
        runner.run("core clustering", *clustering, needs_role=CORE)

    # -- Phase 4: cluster ids + non-core memberships ----------------------

    t_stage = time.perf_counter()
    cluster_id: dict[int, int] = {}
    labels = np.full(n, -1, dtype=np.int64)
    for u in np.flatnonzero(roles == CORE).tolist():
        root = uf.find(u)
        if root not in cluster_id:
            cluster_id[root] = u
        labels[u] = cluster_id[root]
    sel = np.flatnonzero(
        (roles[src] == CORE) & (roles[dst] == NONCORE) & (sim == SIM)
    )
    pairs = list(zip(labels[src[sel]].tolist(), dst[sel].tolist()))
    pair_arcs = int(deg[roles == CORE].sum())
    runner.record(
        "non-core clustering",
        [TaskCost(arcs=pair_arcs, atomics=uf.num_finds)],
        t_stage,
    )

    record = RunRecord(
        algorithm="SCAN-XP",
        stages=runner.stages,
        wall_seconds=time.perf_counter() - t0,
    )
    if root_span is not None:
        tracer.end_span(root_span)
        tracer.count("run.scanxp", 1)
    return ClusteringResult(
        algorithm="SCAN-XP",
        params=params,
        roles=roles,
        core_labels=labels,
        noncore_pairs=pairs,
        record=record,
    )
