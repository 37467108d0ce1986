"""pSCAN (Chang et al., ICDE'16) — paper Algorithm 2.

The state-of-the-art *sequential* pruning-based algorithm ppSCAN
parallelizes, with all three pruning techniques of §3.2.1:

* min-max pruning — global ``sd`` / ``ed`` bounds per vertex, explored in
  non-increasing ``ed`` order (a lazy max-heap; the ordering's effect is
  ablatable via ``use_ed_order=False``, reproducing the paper's §4.1 claim
  that dropping it costs little);
* similarity reuse — every computed predicate is mirrored onto the
  reverse arc through the precomputed reverse-arc index;
* union-find pruning — ``ClusterCore`` skips neighbors already in the
  same set.

Like the reference C++ implementation, trivial predicates (``min_cn <= 2``
or unreachable thresholds) are resolved from degrees alone and are *not*
counted as set-intersection invocations — that convention makes the
Figure-4 invocation comparison against ppSCAN meaningful.

pSCAN is the paper's sequential, counted baseline (Figs. 1 and 4), so it
has one execution mode: one kernel call per arc, in its vertex order.
The ``exec_mode`` option of :mod:`repro.api` is reported as ignored for
it.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING

import numpy as np

from ..graph.csr import CSRGraph
from ..metrics.records import RunRecord, StageRecord, TaskCost
from ..obs.tracer import current_tracer
from ..types import CORE, NONCORE, SIM, NSIM, UNKNOWN, ScanParams
from ..unionfind import UnionFind
from .context import RunContext
from .phases import restore_counter, restore_store, store_arrays
from .result import ClusteringResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache import SimilarityStore
    from ..checkpoint import CheckpointManager

__all__ = ["pscan"]


def pscan(
    graph: CSRGraph,
    params: ScanParams,
    kernel: str = "merge",
    use_ed_order: bool = True,
    store: "SimilarityStore | None" = None,
    checkpoint: "CheckpointManager | None" = None,
) -> ClusteringResult:
    """Run sequential pSCAN; returns the canonical clustering result.

    The attached record carries the Figure-1 buckets: ``similarity
    evaluation`` (kernel work), ``workload reduction computation``
    (sd/ed maintenance, ordering, reuse bookkeeping) and ``other
    computation`` (iteration + clustering).

    ``store`` attaches a :class:`~repro.cache.SimilarityStore`: covered
    arcs seed the sd/ed bounds before the first vertex is popped (the
    ed-order heap starts from the tightened bounds) and fresh overlaps
    are recorded for future runs.  Clustering is bit-identical.

    ``checkpoint`` attaches a :class:`~repro.checkpoint.CheckpointManager`.
    pSCAN is a single sequential vertex loop, so snapshots are taken every
    ``every`` processed vertices (cursor 0) and once at loop exit (cursor
    1); each snapshot captures the full loop state — sim/roles, sd/ed
    bounds, the lazy heap, processed flags, the union-find forest — so a
    resumed run pops the exact same vertex sequence and produces a
    bit-identical clustering.  The final labeling pass is pure derivation
    and is always recomputed.
    """
    t0 = time.perf_counter()
    tracer = current_tracer()
    root_span = (
        tracer.start_span(
            "pscan",
            lane=0,
            kernel=kernel,
            eps=params.eps,
            mu=params.mu,
            ed_order=use_ed_order,
        )
        if tracer.enabled
        else None
    )
    ctx = RunContext(graph, params, kernel=kernel, store=store)
    counter = ctx.engine.counter
    off, dst, adj, deg = ctx.off, ctx.dst, ctx.adj, ctx.deg
    sim, roles, mcn, rev = ctx.sim, ctx.roles, ctx.mcn, ctx.rev
    mu = ctx.mu
    n = ctx.n
    engine = ctx.engine
    use_store = store is not None
    cached_arc = engine.resolve_arc_cached

    sd = [0] * n
    ed = deg[:]  # copy
    if use_store:
        # Fold store-covered arcs up front and seed the sd/ed bounds from
        # them — the min-max pruning starts from the tightened state, so
        # a warm store decides most roles without any kernel work.
        state0 = np.full(ctx.num_arcs, UNKNOWN, dtype=np.int8)
        if engine.prefold_cached(state0, ctx.mcn_np):
            sim[:] = state0.tolist()
            src_np = ctx.src_np
            sd = np.bincount(src_np[state0 == SIM], minlength=n).tolist()
            ed = (
                graph.degrees
                - np.bincount(src_np[state0 == NSIM], minlength=n)
            ).tolist()
    uf = UnionFind(n)

    reduction_ops = 0  # sd/ed updates + heap maintenance + reuse writes
    other_arcs = 0

    def resolve_arc(u: int, arc: int) -> int:
        """Compute sim for an unknown arc, mirror it, update both bounds.

        Returns the new state.  Trivial thresholds skip the kernel (and
        the invocation count), like the reference implementation.
        """
        nonlocal reduction_ops
        v = dst[arc]
        c = mcn[arc]
        if c <= 2:
            state = SIM
        elif (deg[u] if deg[u] < deg[v] else deg[v]) + 2 < c:
            state = NSIM
        elif use_store:
            state = cached_arc(arc, adj[u], adj[v], c)
        else:
            state = SIM if ctx.engine.kernel(adj[u], adj[v], c) else NSIM
        sim[arc] = state
        sim[rev[arc]] = state
        reduction_ops += 2
        return state

    # -- core checking and clustering (Algorithm 2 lines 4-7) -------------

    # Seeded from ed (== deg when no store tightened the bounds), so the
    # lazy-heap staleness check matches the live values from the start.
    heap: list[tuple[int, int]] = [(-ed[u], u) for u in range(n)]
    heapify(heap)
    processed = [False] * n
    order_static = sorted(range(n), key=lambda u: -deg[u])
    static_pos = 0

    # ==== Checkpoint/resume ==============================================
    # pSCAN has no phase barriers — the whole algorithm is one vertex
    # loop — so the cursor is binary: 0 while the loop runs (snapshots
    # carry the complete loop state), 1 once it has drained.  The final
    # labeling pass is pure derivation from sim/roles/uf and is always
    # recomputed on resume.
    ck = checkpoint
    restored_cursor = 0
    done = 0  # vertices processed so far (drives the snapshot cadence)

    def _save_ckpt(phase: str, cursor: int) -> int:
        arrays: dict[str, np.ndarray] = {
            "sim": np.asarray(sim, dtype=np.int8),
            "roles": np.asarray(roles, dtype=np.int8),
            "sd": np.asarray(sd, dtype=np.int64),
            "ed": np.asarray(ed, dtype=np.int64),
            "processed": np.asarray(processed, dtype=bool),
            "heap": np.asarray(heap, dtype=np.int64).reshape(-1, 2),
        }
        uf_state = uf.snapshot()
        arrays["uf_parent"] = uf_state["parent"]
        arrays["uf_size"] = uf_state["size"]
        if use_store:
            arrays.update(store_arrays(store, graph))
        meta = {
            "cursor": cursor,
            "static_pos": static_pos,
            "reduction_ops": reduction_ops,
            "other_arcs": other_arcs,
            "done": done,
            "counter": counter.as_dict(),
        }
        return ck.save(arrays=arrays, meta=meta, phase=phase)

    if ck is not None:
        ck.bind(
            graph,
            params,
            algorithm="pscan",
            extra={"kernel": kernel, "ed_order": bool(use_ed_order)},
        )
        snap = ck.load_latest()
        if snap is not None:
            restored_cursor = int(snap.meta["cursor"])
            sim[:] = np.asarray(snap.arrays["sim"], dtype=np.int8).tolist()
            roles[:] = np.asarray(
                snap.arrays["roles"], dtype=np.int8
            ).tolist()
            sd[:] = np.asarray(snap.arrays["sd"], dtype=np.int64).tolist()
            ed[:] = np.asarray(snap.arrays["ed"], dtype=np.int64).tolist()
            processed[:] = np.asarray(
                snap.arrays["processed"], dtype=bool
            ).tolist()
            heap[:] = [
                (int(a), int(b))
                for a, b in np.asarray(snap.arrays["heap"])
                .reshape(-1, 2)
                .tolist()
            ]
            uf.restore(
                {
                    "parent": snap.arrays["uf_parent"],
                    "size": snap.arrays["uf_size"],
                }
            )
            if use_store:
                restore_store(store, graph, snap.arrays)
            static_pos = int(snap.meta["static_pos"])
            reduction_ops = int(snap.meta["reduction_ops"])
            other_arcs = int(snap.meta["other_arcs"])
            done = int(snap.meta["done"])
            restore_counter(counter, snap.meta.get("counter"))

    def next_vertex() -> int | None:
        nonlocal static_pos, reduction_ops
        if use_ed_order:
            while heap:
                neg_ed, u = heappop(heap)
                reduction_ops += 1
                if processed[u] or -neg_ed != ed[u]:
                    continue  # stale entry
                return u
            return None
        while static_pos < n:
            u = order_static[static_pos]
            static_pos += 1
            if not processed[u]:
                return u
        return None

    def check_core(u: int) -> None:
        nonlocal reduction_ops, other_arcs
        if sd[u] < mu and ed[u] >= mu:
            for arc in range(off[u], off[u + 1]):
                other_arcs += 1
                if sim[arc] != UNKNOWN:
                    continue
                v = dst[arc]
                state = resolve_arc(u, arc)
                reduction_ops += 4
                if state == SIM:
                    sd[u] += 1
                    sd[v] += 1
                else:
                    ed[u] -= 1
                    ed[v] -= 1
                    if use_ed_order and not processed[v]:
                        heappush(heap, (-ed[v], v))
                        reduction_ops += 1
                if sd[u] >= mu or ed[u] < mu:
                    break
        roles[u] = CORE if sd[u] >= mu else NONCORE

    def cluster_core(u: int) -> None:
        nonlocal reduction_ops, other_arcs
        for arc in range(off[u], off[u + 1]):
            other_arcs += 1
            v = dst[arc]
            if sd[v] < mu or uf.same_set(u, v):
                continue
            if sim[arc] == UNKNOWN:
                state = resolve_arc(u, arc)
                reduction_ops += 2
                if state == SIM:
                    sd[v] += 1
                else:
                    ed[v] -= 1
                    if use_ed_order and not processed[v]:
                        heappush(heap, (-ed[v], v))
                        reduction_ops += 1
            if sim[arc] == SIM:
                uf.union(u, v)

    if restored_cursor < 1:
        while (u := next_vertex()) is not None:
            processed[u] = True
            check_core(u)
            if roles[u] == CORE:
                cluster_core(u)
            done += 1
            if (
                ck is not None
                and ck.every is not None
                and done % ck.every == 0
            ):
                _save_ckpt("vertex loop", cursor=0)
        if ck is not None:
            _save_ckpt("vertex loop", cursor=1)

    # -- cluster id init + non-core clustering (Algorithm 2 line 8) -------

    cluster_id: dict[int, int] = {}
    labels = [-1] * n
    for u in range(n):
        if roles[u] == CORE:
            root = uf.find(u)
            if root not in cluster_id:
                cluster_id[root] = u  # ascending scan -> min core id
            labels[u] = cluster_id[root]

    pairs: set[tuple[int, int]] = set()
    for u in range(n):
        if roles[u] != CORE:
            continue
        cid = labels[u]
        for arc in range(off[u], off[u + 1]):
            other_arcs += 1
            v = dst[arc]
            if roles[v] != NONCORE:
                continue
            if sim[arc] == UNKNOWN:
                resolve_arc(u, arc)
            if sim[arc] == SIM:
                pairs.add((cid, v))

    wall = time.perf_counter() - t0
    sim_cost = TaskCost(
        scalar_cmp=counter.scalar_cmp,
        vector_ops=counter.vector_ops,
        bound_updates=counter.bound_updates,
        compsims=counter.invocations,
    )
    reduction_cost = TaskCost(bound_updates=reduction_ops)
    other_cost = TaskCost(
        arcs=other_arcs + n,
        atomics=uf.num_finds + uf.num_unions,
    )
    record = RunRecord(
        algorithm="pSCAN",
        stages=[
            StageRecord("similarity evaluation", [sim_cost]),
            StageRecord("workload reduction computation", [reduction_cost]),
            StageRecord("other computation", [other_cost]),
        ],
        wall_seconds=wall,
    )
    # pSCAN's semantic stages interleave in time; attribute the measured
    # wall to them by modelled cost share (Figure-1 style breakdown).
    record.apportion_wall()
    if root_span is not None:
        tracer.end_span(root_span)
        tracer.count("run.pscan", 1)
    return ClusteringResult(
        algorithm="pSCAN",
        params=params,
        roles=ctx.roles_array(),
        core_labels=labels,
        noncore_pairs=sorted(pairs),
        record=record,
    )
