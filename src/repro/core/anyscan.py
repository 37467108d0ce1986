"""anySCAN (Mai et al., ICDE'17) — block-iterative parallel baseline.

anySCAN grows clusters from "super-nodes" in α-sized blocks of vertices,
processing each block in parallel and synchronizing between blocks.  The
paper uses it as the strongest parallel competitor and attributes its gap
to ppSCAN to two structural causes, both modelled here:

* *dynamic memory allocation* — per-vertex candidate lists and state
  transitions allocate on the hot path (charged to ``TaskCost.allocs``;
  the machine model prices an allocation like a contended atomic), and
  the per-vertex footprint is large enough that paper-scale webbase /
  friendster exceed the 64 GB server (``estimated_memory_bytes``
  reproduces exactly that RE pattern);
* *block-synchronous execution* — one barrier per α-block instead of
  ppSCAN's seven phases, which caps scalability on big graphs.

This implementation is exact (identical clusters to SCAN/pSCAN/ppSCAN):
each block computes the full ε-neighborhood of its vertices with
similarity reuse, after which clustering proceeds over known predicates.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from ..graph.csr import CSRGraph
from ..metrics.records import RunRecord, TaskCost
from ..parallel.backend import ExecutionBackend
from ..parallel.scheduler import degree_based_tasks
from ..types import CORE, NONCORE, NSIM, SIM, UNKNOWN, ScanParams
from ..unionfind import AtomicUnionFind
from .context import RunContext
from .phases import PhaseRunner
from .result import ClusteringResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..checkpoint import CheckpointManager

__all__ = [
    "anyscan",
    "anyscan_progressive",
    "ProgressSnapshot",
    "estimated_memory_bytes",
]

#: Modelled per-vertex footprint: state machine, super-node candidate
#: vectors and allocator slack (bytes).
BYTES_PER_VERTEX = 400
#: Modelled per-undirected-edge footprint: adjacency + similarity +
#: candidate duplication (bytes).
BYTES_PER_EDGE = 40

_NO_IDS = np.empty(0, dtype=np.int64)


def estimated_memory_bytes(num_vertices: int, num_edges: int) -> int:
    """anySCAN's modelled resident set for a graph of the given size.

    Calibrated so the paper's observed out-of-memory pattern on the 64 GB
    server reproduces: twitter (41.6M/684.5M) fits, webbase
    (118.1M/525.0M) and friendster (124.8M/1806.1M) do not.
    """
    return BYTES_PER_VERTEX * num_vertices + BYTES_PER_EDGE * num_edges


def _core_labels(uf: AtomicUnionFind, roles) -> np.ndarray:
    """Each core's cluster id, -1 elsewhere.  A cluster's id is its first
    core, which is its root: link-by-index keeps each set's smallest id at
    the root (and only cores are ever unioned)."""
    labels = np.full(len(roles), -1, dtype=np.int64)
    cores = np.flatnonzero(np.asarray(roles) == CORE)
    labels[cores] = uf.roots(cores)
    return labels


def anyscan(
    graph: CSRGraph,
    params: ScanParams,
    *,
    alpha: int = 512,
    backend: ExecutionBackend | None = None,
    task_threshold: int | None = None,
    memory_limit_bytes: int | None = None,
    checkpoint: "CheckpointManager | None" = None,
) -> ClusteringResult:
    """Run anySCAN; returns the canonical clustering result.

    Raises ``MemoryError`` when the modelled footprint exceeds
    ``memory_limit_bytes`` (used by the figure benches to reproduce the
    paper's RE entries at paper scale; ``None`` disables the check).

    ``checkpoint`` attaches a :class:`~repro.checkpoint.CheckpointManager`.
    anySCAN's natural barriers are its α-blocks: each summarization block
    and the merging pass is one checkpoint site (plus mid-site snapshots
    every ``every`` tasks), and the final labeling is pure derivation that
    is always recomputed.  Resume is bit-identical.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if memory_limit_bytes is not None:
        need = estimated_memory_bytes(graph.num_vertices, graph.num_edges)
        if need > memory_limit_bytes:
            raise MemoryError(
                f"anySCAN footprint {need / 1e9:.1f} GB exceeds limit "
                f"{memory_limit_bytes / 1e9:.1f} GB"
            )
    t0 = time.perf_counter()
    ctx = RunContext(graph, params, kernel="merge")
    off, dst, adj, deg = ctx.off, ctx.dst, ctx.adj, ctx.deg
    sim, roles, mcn, rev = ctx.sim, ctx.roles, ctx.mcn, ctx.rev
    kernel_fn = ctx.engine.kernel
    mu = ctx.mu
    n = ctx.n
    threshold = (
        task_threshold
        if task_threshold is not None
        else max(64, ctx.num_arcs // 2048)
    )
    uf = AtomicUnionFind(n)
    # Sites in execution order: one per α-block of summarization, then
    # merging; the final labeling is always recomputed.
    runner = PhaseRunner(
        "anyscan",
        ctx,
        sim=sim,
        roles=roles,
        uf=uf,
        threshold=threshold,
        backend=backend,
        checkpoint=checkpoint,
        bind_extra={"alpha": int(alpha)},
    )

    # -- Summarization: α-blocks of full ε-neighborhood evaluations -------

    def block_task(beg: int, end: int):
        mark = runner.mark()
        sim_writes: list[tuple[int, int]] = []
        role_writes: list[tuple[int, int]] = []
        arcs = 0
        allocs = 0
        for u in range(beg, end):
            allocs += 2  # super-node descriptor + candidate vector
            sd = 0
            adj_u = adj[u]
            for arc in range(off[u], off[u + 1]):
                arcs += 1
                allocs += 1  # untouched-list / candidate node per neighbor
                state = sim[arc]
                if state == UNKNOWN:
                    c = mcn[arc]
                    v = dst[arc]
                    if c <= 2:
                        state = SIM
                    elif (deg[u] if deg[u] < deg[v] else deg[v]) + 2 < c:
                        state = NSIM
                    else:
                        state = SIM if kernel_fn(adj_u, adj[v], c) else NSIM
                    sim_writes.append((arc, state))
                    sim_writes.append((rev[arc], state))
                if state == SIM:
                    sd += 1
                    allocs += 1  # candidate push_back
            role_writes.append((u, CORE if sd >= mu else NONCORE))
        return (sim_writes, role_writes), runner.cost(
            mark, arcs=arcs, allocs=allocs
        )

    def commit_block(writes) -> None:
        sim_writes, role_writes = writes
        for arc, state in sim_writes:
            sim[arc] = state
        for u, role in role_writes:
            roles[u] = role

    def block_tasks(block_beg: int, block_end: int):
        block_deg = deg[block_beg:block_end]
        return [
            (beg + block_beg, end + block_beg)
            for beg, end in degree_based_tasks(block_deg, None, threshold)
        ]

    # -- Merging: union cores over known similar edges ---------------------

    def merge_task(beg: int, end: int):
        us: list[int] = []
        vs: list[int] = []
        arcs = 0
        allocs = 0
        for u in range(beg, end):
            if roles[u] != CORE:
                continue
            allocs += 1  # transition record
            arcs += off[u + 1] - off[u]
            for arc in range(off[u], off[u + 1]):
                v = dst[arc]
                if v > u and roles[v] == CORE and sim[arc] == SIM:
                    us.append(u)
                    vs.append(v)
        if not us:
            return (_NO_IDS, _NO_IDS), TaskCost(arcs=arcs, allocs=allocs)
        # Each candidate pays two finds; union-find pruning keeps the
        # pairs not joined as the task starts.
        k = len(us)
        ends = np.array(us + vs, dtype=np.int64)
        r = uf.roots(ends)
        split = np.flatnonzero(r[:k] != r[k:])
        return (ends[split], ends[split + k]), TaskCost(
            arcs=arcs + 2 * k, atomics=int(split.size), allocs=allocs
        )

    def commit_merge(writes) -> None:
        uf.union_all(*writes)

    with runner.pool((block_task, commit_block), (merge_task, commit_merge)):
        for block_beg in range(0, n, alpha):
            block_end = min(block_beg + alpha, n)
            runner.run(
                "summarization",
                block_task,
                commit_block,
                tasks=lambda b=block_beg, e=block_end: block_tasks(b, e),
            )
        runner.run("merging", merge_task, commit_merge, needs_role=CORE)

    # -- Final: cluster ids + non-core memberships ------------------------

    t_stage = time.perf_counter()
    labels = _core_labels(uf, roles)
    pairs: list[tuple[int, int]] = []
    pair_arcs = 0
    for u in range(n):
        if roles[u] != CORE:
            continue
        cid = int(labels[u])
        for arc in range(off[u], off[u + 1]):
            pair_arcs += 1
            v = dst[arc]
            if roles[v] == NONCORE and sim[arc] == SIM:
                pairs.append((cid, v))
    runner.record(
        "labeling", [TaskCost(arcs=pair_arcs, atomics=uf.num_finds)], t_stage
    )

    record = RunRecord(
        algorithm="anySCAN",
        stages=runner.stages,
        wall_seconds=time.perf_counter() - t0,
    )
    return ClusteringResult(
        algorithm="anySCAN",
        params=params,
        roles=np.array(roles, dtype=np.int8),
        core_labels=labels,
        noncore_pairs=pairs,
        record=record,
    )

from dataclasses import dataclass


@dataclass(frozen=True)
class ProgressSnapshot:
    """One anytime checkpoint of :func:`anyscan_progressive`.

    ``roles[v]`` is final for every processed vertex (ROLE_UNKNOWN
    otherwise); ``core_labels`` are the provisional clusters among the
    cores processed so far (they only merge as processing continues —
    never split).
    """

    processed: int
    total: int
    roles: "np.ndarray"
    core_labels: "np.ndarray"

    @property
    def fraction(self) -> float:
        return self.processed / self.total if self.total else 1.0


def anyscan_progressive(
    graph: CSRGraph, params: ScanParams, alpha: int = 256
):
    """anySCAN's *anytime* mode: yield a snapshot after every α-block.

    The ICDE'17 paper's interactive selling point — usable intermediate
    results that refine monotonically — reproduced exactly: each
    snapshot's determined roles are final, provisional clusters only ever
    merge, and the final snapshot equals :func:`anyscan`'s exact output
    (enforced by the tests).
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    ctx = RunContext(graph, params, kernel="merge")
    off, dst, adj, deg = ctx.off, ctx.dst, ctx.adj, ctx.deg
    sim, roles, mcn, rev = ctx.sim, ctx.roles, ctx.mcn, ctx.rev
    kernel_fn = ctx.engine.kernel
    mu = ctx.mu
    n = ctx.n
    uf = AtomicUnionFind(n)

    def resolve_arc(u: int, arc: int) -> int:
        v = dst[arc]
        c = mcn[arc]
        if c <= 2:
            state = SIM
        elif (deg[u] if deg[u] < deg[v] else deg[v]) + 2 < c:
            state = NSIM
        else:
            state = SIM if kernel_fn(adj[u], adj[v], c) else NSIM
        sim[arc] = state
        sim[rev[arc]] = state
        return state

    def snapshot(processed: int) -> ProgressSnapshot:
        return ProgressSnapshot(
            processed=processed,
            total=n,
            roles=np.array(roles, dtype=np.int8),
            core_labels=_core_labels(uf, roles),
        )

    for block_beg in range(0, n, alpha):
        block_end = min(block_beg + alpha, n)
        us: list[int] = []
        vs: list[int] = []
        for u in range(block_beg, block_end):
            sd = 0
            for arc in range(off[u], off[u + 1]):
                state = sim[arc]
                if state == UNKNOWN:
                    state = resolve_arc(u, arc)
                if state == SIM:
                    sd += 1
            roles[u] = CORE if sd >= mu else NONCORE
            # Merge with already-determined similar core neighbors.
            if roles[u] == CORE:
                for arc in range(off[u], off[u + 1]):
                    v = dst[arc]
                    if roles[v] == CORE and sim[arc] == SIM:
                        us.append(u)
                        vs.append(v)
        uf.union_all(us, vs)
        yield snapshot(block_end)
