"""ppSCAN — the paper's contribution (Algorithms 3, 4 and 5).

The computation is decomposed into barrier-separated phases, each a set of
degree-bundled vertex-range tasks executed through an
:class:`~repro.parallel.backend.ExecutionBackend` by the shared
:class:`~repro.core.phases.PhaseRunner`:

====  =============================  ===============================
step  phase                           paper reference
====  =============================  ===============================
1     similarity pruning              Alg. 3 ``PruneSim`` (vectorized
                                      whole-graph arithmetic)
2     core checking                   Alg. 3 ``CheckCore`` (u < v)
3     core consolidating              Alg. 3 ``ConsolidateCore``
4     core clustering (no compsim)    Alg. 4 lines 9-11
5     core clustering (compsim)       Alg. 4 lines 12-16
6     cluster id init                 Alg. 4 lines 17-23 (CAS min)
7     non-core clustering             Alg. 4 lines 24-29
====  =============================  ===============================

Task bodies buffer their writes and the backend commits them — after each
task (serial backend: the canonical lock-free interleaving) or at the
phase barrier (process backend: bulk-synchronous, the weakest visibility
the paper's Theorems 4.1–4.5 admit).  Either way every similarity value is
computed at most once (Theorem 4.1) and the final roles/clusters are
exact (Theorems 4.2, 4.5).

Each phase has one task body.  It selects its frontier with array
operations on the int8 ``sim`` / ``roles`` state and hands the arc block
to the run's :class:`~repro.similarity.engine.SimilarityEngine`, whose
``exec_mode`` is the resolution policy:

* ``scalar`` — the paper's counted control flow: one early-terminating
  kernel call per arc, in arc order; each vertex's role walk stops at
  its µ decision; both directions of an edge are resolved separately,
  and a task's own results stay invisible to it.
* ``batched`` — the throughput path: the whole frontier goes through the
  bulk resolution of
  :meth:`~repro.similarity.engine.SimilarityEngine.resolve_arcs`; the
  role walks resolve each undirected edge once per task and fold the
  mirror results into the task's own walks.

Roles, labels and non-core memberships are identical under both policies
(enforced by the batched-mode test suite); only *which* arcs get resolved
— and so the work each task is charged — may differ.  The bodies never
read the policy; ``tests/test_work_records.py`` pins every per-task cost
of both.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..graph.csr import CSRGraph
from ..metrics.records import RunRecord, TaskCost
from ..obs.tracer import current_tracer
from ..parallel.backend import ExecutionBackend, commit_arc_states
from ..parallel.scheduler import degree_based_tasks
from ..similarity.bulk import predicate_prune_arcs
from ..types import CORE, NONCORE, NSIM, ROLE_UNKNOWN, SIM, UNKNOWN, ScanParams
from ..unionfind import AtomicUnionFind
from .context import RunContext
from .phases import PhaseRunner
from .result import ClusteringResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache import SimilarityStore
    from ..checkpoint import CheckpointManager

__all__ = [
    "ppscan",
    "core_clustering_body",
    "auto_task_threshold",
    "auto_batch_task_threshold",
    "PPSCAN_STAGES",
]

#: Stage names in execution order (benchmarks group them into the paper's
#: four Figure-6 stages).
PPSCAN_STAGES = (
    "similarity pruning",
    "core checking",
    "core consolidating",
    "core clustering (no compsim)",
    "core clustering (compsim)",
    "cluster id init",
    "non-core clustering",
)

_NO_ARCS = np.empty(0, dtype=np.int64)
_NO_STATES = np.empty(0, dtype=np.int8)
_NO_ROLE_WRITES = (_NO_ARCS, _NO_STATES, _NO_ARCS, np.empty(0, dtype=bool))
_NO_PAIRS = np.empty((0, 2), dtype=np.int64)


def auto_task_threshold(num_arcs: int) -> int:
    """Scale the paper's 32768 degree-sum threshold to the graph size.

    The paper tunes 32768 for billion-edge graphs (~10^5 tasks); scaling
    by arc count keeps the task count in the load-balanceable range for
    the laptop-scale graphs this reproduction runs.
    """
    return max(64, min(32768, num_arcs // 1024))


def auto_batch_task_threshold(num_arcs: int) -> int:
    """Default degree-sum threshold for the batched execution mode.

    Batched task bodies pay a fixed NumPy dispatch cost per task, so the
    throughput sweet spot is far coarser than the scalar mode's cut: the
    batch must amortize the call overhead, but tasks past ~32k arcs start
    losing intra-phase similarity reuse (later tasks inherit mirror
    writes from earlier commits under the serial backend).
    """
    return max(auto_task_threshold(num_arcs), min(32768, num_arcs // 16))


def core_clustering_body(
    runner: PhaseRunner,
    ctx: RunContext,
    states: tuple[int, ...],
) -> tuple[Callable, Callable]:
    """The ``(run_task, commit)`` of one core-clustering site
    (Algorithm 4 lines 9-16).

    Each task unions the core pairs ``u < v`` of its range whose
    similarity state is one of ``states``: known-SIM pairs directly,
    UNKNOWN ones after the engine resolves them — both only when
    union-find pruning has not already joined the pair.  ppSCAN runs it
    twice (no-compsim, compsim); SCAN-XP once over its known states.
    """
    sim, roles, uf = runner.sim, runner.roles, runner.uf
    engine = ctx.engine
    graph = ctx.graph
    deg, off, dst = graph.degrees, graph.offsets, graph.dst
    src, rev, mcn = ctx.src_np, ctx.rev_np, ctx.mcn_np

    def run_task(beg: int, end: int):
        mark = runner.mark()
        a0, a1 = int(off[beg]), int(off[end])
        s_src, s_dst, seg = src[a0:a1], dst[a0:a1], sim[a0:a1]
        picked = seg == states[0]
        for other in states[1:]:
            picked |= seg == other
        cand = np.flatnonzero(
            picked
            & (s_dst > s_src)
            & (roles[s_src] == CORE)
            & (roles[s_dst] == CORE)
        )
        # Every core scans its arcs; each candidate pays two finds.
        arcs = int(deg[beg:end][roles[beg:end] == CORE].sum())
        arcs += 2 * int(cand.size)
        # Union-find pruning against the forest as the task starts.
        ends = uf.roots(np.concatenate((s_src[cand], s_dst[cand])))
        cand = cand[ends[: cand.size] != ends[cand.size :]]
        known = seg[cand] == SIM
        u, v = s_src[cand[known]], s_dst[cand[known]]
        f_arcs, f_states = _NO_ARCS, _NO_STATES
        if not known.all():
            f_arcs = cand[~known] + a0
            f_states = engine.resolve_arcs(f_arcs, mcn[f_arcs])
            similar = f_arcs[f_states == SIM]
            u = np.concatenate((u, src[similar]))
            v = np.concatenate((v, dst[similar]))
        return (u, v, f_arcs, f_states), runner.cost(
            mark, arcs=arcs, atomics=int(u.size)  # one CAS per union
        )

    def commit(writes) -> None:
        u, v, arcs, states = writes
        commit_arc_states(sim, rev, arcs, states)
        uf.union_all(u, v)

    return run_task, commit


def ppscan(
    graph: CSRGraph,
    params: ScanParams,
    *,
    kernel: str = "vectorized",
    lanes: int = 16,
    backend: ExecutionBackend | None = None,
    task_threshold: int | None = None,
    prune_phase: bool = True,
    two_phase_clustering: bool = True,
    algorithm_name: str | None = None,
    exec_mode: str = "scalar",
    store: "SimilarityStore | None" = None,
    checkpoint: "CheckpointManager | None" = None,
) -> ClusteringResult:
    """Run ppSCAN and return the canonical clustering result.

    Parameters mirror the paper's design choices so the ablation benches
    can switch them off: ``prune_phase`` (the PruneSim pre-processing),
    ``two_phase_clustering`` (core clustering split into no-compsim /
    compsim passes), ``kernel``/``lanes`` (``"merge"`` gives ppSCAN-NO,
    ``"vectorized"`` with 8 or 16 lanes models AVX2/AVX512),
    ``task_threshold`` (Algorithm 5's degree-sum cut, auto-scaled by
    default), and ``exec_mode`` (the engine's ``"scalar"`` or
    ``"batched"`` resolution policy — see the module docstring).

    ``store`` attaches a :class:`~repro.cache.SimilarityStore`: covered
    arcs are folded into the similarity-pruning phase from their cached
    exact overlaps and every freshly computed overlap is recorded, so
    repeated runs (and (ε, µ) sweeps) skip the intersections.  Decisions
    are bit-identical with or without it.

    ``checkpoint`` attaches a
    :class:`~repro.checkpoint.CheckpointManager`: the full resumable
    state (similarity/role arrays, union-find parents, cluster ids,
    non-core pairs, store coverage, stage records) is snapshotted at
    every phase barrier — and, with ``checkpoint.every`` set, after
    every N scheduler tasks inside a phase — so a killed run resumed
    from the same directory reproduces the uninterrupted clustering
    bit-for-bit (see :mod:`repro.core.phases`).
    """
    t0 = time.perf_counter()
    ctx = RunContext(
        graph,
        params,
        kernel=kernel,
        lanes=lanes,
        store=store,
        exec_mode=exec_mode,
    )
    engine = ctx.engine
    tracer = current_tracer()
    root_span = (
        tracer.start_span(
            "ppscan",
            lane=0,
            exec_mode=exec_mode,
            kernel=kernel,
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
    src, rev, mcn = ctx.src_np, ctx.rev_np, ctx.mcn_np
    sim = np.full(ctx.num_arcs, UNKNOWN, dtype=np.int8)
    roles = np.full(n, ROLE_UNKNOWN, dtype=np.int8)
    uf = AtomicUnionFind(n)
    # Phase 6's CAS-min per root (-1: no core of that root seen yet).
    cluster_id = np.full(n, -1, dtype=np.int64)
    pairs: list[np.ndarray] = [_NO_PAIRS]  # phase 7 (cid, non-core vertex)

    def extra_arrays() -> dict[str, np.ndarray]:
        arrays = {"pairs": np.concatenate(pairs)}
        roots = np.flatnonzero(cluster_id >= 0)
        if roots.size:
            arrays["cid_roots"] = roots
            arrays["cid_vids"] = cluster_id[roots]
        return arrays

    runner = PhaseRunner(
        "ppscan",
        ctx,
        sim=sim,
        roles=roles,
        uf=uf,
        threshold=threshold,
        backend=backend,
        checkpoint=checkpoint,
        bind_extra={
            "kernel": kernel,
            "prune_phase": bool(prune_phase),
            "two_phase_clustering": bool(two_phase_clustering),
        },
        extra_arrays=extra_arrays,
    )
    snap = runner.restored
    if snap is not None:
        if "cid_roots" in snap.arrays:
            cluster_id[snap.arrays["cid_roots"]] = snap.arrays["cid_vids"]
        pairs.append(
            np.asarray(snap.arrays["pairs"], dtype=np.int64).reshape(-1, 2)
        )

    # ==== Step 1: role computing (Algorithm 3) ==========================

    # -- Phase 1: similarity pruning --------------------------------------
    # One inline data-parallel kernel with no task barrier inside, so it
    # runs only when no snapshot covers it (a crash mid-prune replays it).
    if runner.claim():
        t_stage = time.perf_counter()
        if prune_phase:
            sim[:] = predicate_prune_arcs(graph, mcn)
        if store is not None:
            # Fold store-covered arcs alongside the degree-pruned ones, so
            # a warm store resolves the similarity work before any kernel
            # runs.  Bounds only get tighter; the role fold stays exact.
            engine.prefold_cached(sim, mcn)
        if prune_phase or store is not None:
            sd0 = np.bincount(src[sim == SIM], minlength=n)
            ed0 = deg - np.bincount(src[sim == NSIM], minlength=n)
            roles[ed0 < mu] = NONCORE
            roles[sd0 >= mu] = CORE
        # Per-task costs are synthesized from the ranges the scheduler
        # would cut (1 arc scan + 1 bound update per arc).
        prune_tasks = []
        for beg, end in degree_based_tasks(deg, None, threshold):
            arcs_in_range = int(off[end] - off[beg])
            prune_tasks.append(
                TaskCost(arcs=arcs_in_range, bound_updates=arcs_in_range)
            )
        runner.finish(
            "similarity pruning", prune_tasks, t_stage, enabled=prune_phase
        )

    # -- Phases 2 & 3: core checking, core consolidating -----------------

    def make_role_task(final: bool):
        def run_task(beg: int, end: int):
            mark = runner.mark()
            walking = roles[beg:end] == ROLE_UNKNOWN
            if not walking.any():
                return _NO_ROLE_WRITES, runner.cost(mark)
            # Core checking resolves only u < v (the vertex-order
            # constraint of §4.1); consolidation resolves the rest and
            # decides every vertex it walks.
            *writes, scanned = engine.resolve_walks(
                beg, end, walking, sim[off[beg] : off[end]], mu, final
            )
            return writes, runner.cost(mark, arcs=scanned)

        return run_task

    def commit_role(writes) -> None:
        arcs, states, decided, core = writes
        commit_arc_states(sim, rev, arcs, states)
        roles[decided] = np.where(core, CORE, NONCORE)

    checking = (make_role_task(False), commit_role)
    consolidating = (make_role_task(True), commit_role)

    # ==== Step 2: core and non-core clustering (Algorithm 4) ============

    # The single-phase ablation's compsim pass also takes the known-SIM
    # pairs.
    clustering = [
        core_clustering_body(runner, ctx, states)
        for states in (
            ((SIM,), (UNKNOWN,)) if two_phase_clustering else ((UNKNOWN, SIM),)
        )
    ]

    # -- Phase 6: cluster id initialization (CAS-min per root) ------------

    def init_cluster_id_task(beg: int, end: int):
        cores = np.flatnonzero(roles[beg:end] == CORE) + beg
        # Cores ascend, so a root's first core is the task's minimum:
        # one CAS attempt (Algorithm 4 line 23) per distinct root.
        roots, first = np.unique(uf.roots(cores), return_index=True)
        return (roots, cores[first]), TaskCost(
            arcs=2 * int(cores.size),  # find = pointer chases
            atomics=int(roots.size),
        )

    def commit_cluster_id(writes) -> None:
        roots, vids = writes
        cur = cluster_id[roots]
        lower = (cur < 0) | (vids < cur)
        cluster_id[roots[lower]] = vids[lower]

    # -- Phase 7: non-core clustering --------------------------------------

    def noncore_task(beg: int, end: int):
        mark = runner.mark()
        a0, a1 = int(off[beg]), int(off[end])
        s_src, s_dst = src[a0:a1], dst[a0:a1]
        cand = (
            np.flatnonzero((roles[s_src] == CORE) & (roles[s_dst] == NONCORE))
            + a0
        )
        # Every core scans its arcs after one find for its cluster id.
        cores = roles[beg:end] == CORE
        arcs = int(deg[beg:end][cores].sum()) + 2 * int(cores.sum())
        state = sim[cand]
        unknown = state == UNKNOWN
        f_arcs = cand[unknown]
        f_states = engine.resolve_arcs(f_arcs, mcn[f_arcs])
        state[unknown] = f_states
        similar = cand[state == SIM]
        local_pairs = np.stack(
            (cluster_id[uf.roots(src[similar])], dst[similar]), axis=1
        )
        return (local_pairs, f_arcs, f_states), runner.cost(mark, arcs=arcs)

    def commit_noncore(writes) -> None:
        local_pairs, arcs, states = writes
        commit_arc_states(sim, rev, arcs, states)
        pairs.append(local_pairs)

    # -- The scheduled sites, on one worker pool --------------------------

    cluster_ids = (init_cluster_id_task, commit_cluster_id)
    noncore = (noncore_task, commit_noncore)
    with runner.pool(
        checking, consolidating, *clustering, cluster_ids, noncore
    ):
        runner.run("core checking", *checking, needs_role=ROLE_UNKNOWN)
        runner.run(
            "core consolidating", *consolidating, needs_role=ROLE_UNKNOWN
        )
        if two_phase_clustering:
            runner.run(
                "core clustering (no compsim)", *clustering[0], needs_role=CORE
            )
        elif runner.claim():
            # The ablation's placeholder record still occupies a site, so
            # the resume cursor arithmetic stays uniform.
            runner.finish(
                "core clustering (no compsim)", [], time.perf_counter()
            )
        runner.run(
            "core clustering (compsim)", *clustering[-1], needs_role=CORE
        )
        runner.run("cluster id init", *cluster_ids, needs_role=CORE)
        runner.run("non-core clustering", *noncore, needs_role=CORE)

    # ==== Result assembly ================================================

    labels = np.full(n, -1, dtype=np.int64)
    cores = np.flatnonzero(roles == CORE)
    labels[cores] = cluster_id[uf.roots(cores)]

    name = algorithm_name or (
        "ppSCAN" if kernel == "vectorized" else "ppSCAN-NO"
    )
    record = RunRecord(
        algorithm=name,
        stages=runner.stages,
        wall_seconds=time.perf_counter() - t0,
    )
    if root_span is not None:
        root_span.attrs["algorithm"] = name
        tracer.end_span(root_span)
        tracer.count("run.ppscan", 1)
    return ClusteringResult(
        algorithm=name,
        params=params,
        roles=roles,
        core_labels=labels,
        noncore_pairs=np.concatenate(pairs),
        record=record,
    )
