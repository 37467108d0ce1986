"""The structural-similarity engine shared by every SCAN-family algorithm.

Wraps a graph, an ε threshold table and a pluggable intersection kernel,
and exposes the three operations the paper's algorithms need:

* ``predicate_prune(u, v)`` — the zero-intersection similarity-predicate
  pruning of §3.2.2 (returns SIM/NSIM/UNKNOWN from degrees alone);
* ``compsim(u, v)`` — CompSim with intersection-count bounds and early
  termination (Definition 3.9);
* ``compsim_exhaustive(u, v)`` — the full merge-count CompSim that SCAN and
  SCAN-XP perform (Theorem 3.4's cost accounting).

All kernels agree bit-for-bit on the similarity decision; they differ only
in the work they report to the :class:`~repro.intersect.OpCounter`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..graph.csr import CSRGraph
from ..obs.tracer import current_tracer
from ..intersect import (
    BatchIntersector,
    concat_ranges,
    OpCounter,
    merge_compsim,
    merge_count,
    pivot_compsim,
    pivot_vectorized_compsim,
    pivot_vectorized_count,
)
from ..types import NSIM, SIM, UNKNOWN, ScanParams
from .threshold import ThresholdTable

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..cache import SimilarityStore, StoreEntry

__all__ = ["SimilarityEngine", "KERNELS", "EXEC_MODES"]

_NO_ARCS = np.empty(0, dtype=np.int64)
_NO_STATES = np.empty(0, dtype=np.int8)

#: Resolution policies (``exec_mode``) of the engine's arc-block methods:
#: ``scalar`` calls one kernel per arc in the given order (the paper's
#: counted control flow), ``batched`` resolves a whole block at once
#: through the bulk mark-and-count path.
EXEC_MODES = ("scalar", "batched")

#: Registered early-terminating CompSim kernels, by name.
KERNELS: dict[str, str] = {
    "merge": "scalar merge with min-max bounds (pSCAN / ppSCAN-NO)",
    "pivot": "scalar pivot loop (Algorithm 6 fallback path)",
    "vectorized": "pivot-based vectorized intersection (Algorithm 6)",
}


class SimilarityEngine:
    """Similarity predicate evaluation for one ``(graph, ε)`` pair."""

    def __init__(
        self,
        graph: CSRGraph,
        params: ScanParams,
        kernel: str = "vectorized",
        lanes: int = 16,
        counter: OpCounter | None = None,
        store: "SimilarityStore | None" = None,
        exec_mode: str = "batched",
    ) -> None:
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}; known: {sorted(KERNELS)}")
        if exec_mode not in EXEC_MODES:
            raise ValueError(
                f"unknown exec_mode {exec_mode!r}; known: {list(EXEC_MODES)}"
            )
        self.graph = graph
        #: Resolution policy of :meth:`resolve_arcs`, :meth:`resolve_walks`
        #: and :meth:`resolve_exhaustive` (see :data:`EXEC_MODES`).
        self.exec_mode = exec_mode
        self.params = params
        self.kernel_name = kernel
        self.lanes = lanes
        self.counter = counter if counter is not None else OpCounter()
        self.threshold = ThresholdTable(params.eps_fraction)
        self._compsim_kernel = self._bind_kernel(kernel, lanes)
        # Plain-int degree list: hot-path lookups avoid ndarray scalar boxing.
        self._deg: list[int] = graph.degrees.tolist()
        # Lazily-built batched-resolution state (scratch arrays are O(n),
        # so they are only materialized when resolve_arcs is first used).
        self._batch: BatchIntersector | None = None
        self._arc_mcn: np.ndarray | None = None
        self._adj: list[list[int]] | None = None
        self._off: list[int] | None = None  # scalar walks' list views
        self._mcn: list[int] | None = None
        self.store = store
        self._entry: "StoreEntry | None" = (
            store.entry_for(graph) if store is not None else None
        )

    def _bind_kernel(
        self, kernel: str, lanes: int
    ) -> Callable[[Sequence[int], Sequence[int], int, OpCounter], bool]:
        if kernel == "merge":
            return merge_compsim
        if kernel == "pivot":
            return pivot_compsim
        return lambda a, b, min_cn, counter: pivot_vectorized_compsim(
            a, b, min_cn, lanes=lanes, counter=counter
        )

    # -- threshold and pruning -------------------------------------------

    def min_cn(self, u: int, v: int) -> int:
        """Similarity threshold on the closed-neighborhood overlap of (u,v)."""
        return self.threshold(self._deg[u], self._deg[v])

    def predicate_prune(self, u: int, v: int) -> int:
        """Similarity-predicate pruning from degrees alone (§3.2.2).

        Returns ``SIM`` / ``NSIM`` when the initial intersection-count
        bounds (``cn = 2``, ``min(d(u), d(v)) + 2``) already decide the
        predicate, else ``UNKNOWN``.
        """
        c = self.min_cn(u, v)
        if 2 >= c:
            return SIM
        if self._deg[u] + 2 < c or self._deg[v] + 2 < c:
            return NSIM
        return UNKNOWN

    # -- CompSim variants ----------------------------------------------------

    def kernel(self, a: Sequence[int], b: Sequence[int], min_cn: int) -> bool:
        """Raw kernel call on pre-fetched neighbor lists (the ppSCAN hot
        path, which caches adjacency lists and per-arc thresholds)."""
        return self._compsim_kernel(a, b, min_cn, self.counter)

    def compsim(self, u: int, v: int) -> bool:
        """Early-terminating CompSim (Definition 3.1 + 3.9 bounds)."""
        return self._compsim_kernel(
            self.graph.neighbors(u),
            self.graph.neighbors(v),
            self.min_cn(u, v),
            self.counter,
        )

    def compsim_state(self, u: int, v: int) -> int:
        """CompSim returning a SIM/NSIM state instead of a bool."""
        return SIM if self.compsim(u, v) else NSIM

    def compsim_exhaustive(self, u: int, v: int) -> bool:
        """Full-count CompSim — what SCAN / SCAN-XP run (no pruning)."""
        common = merge_count(
            self.graph.neighbors(u), self.graph.neighbors(v), self.counter
        )
        return common + 2 >= self.min_cn(u, v)

    # -- batched resolution -------------------------------------------------

    def arc_thresholds(self) -> np.ndarray:
        """Per-arc ``min_cn`` thresholds for the whole graph (cached; with
        a store attached, shared with every run at the same ε)."""
        if self._arc_mcn is None:
            eps = self.params.eps_fraction
            if self._entry is not None:
                self._arc_mcn = self._entry.thresholds(eps)
            else:
                from .bulk import min_cn_arcs

                self._arc_mcn = min_cn_arcs(self.graph, eps)
        return self._arc_mcn

    def batch_intersector(self) -> BatchIntersector:
        """The engine's batch intersector for its graph (cached)."""
        if self._batch is None:
            self._batch = BatchIntersector(self.graph)
        return self._batch

    def adj_lists(self) -> list[list[int]]:
        """Per-vertex adjacency lists (built once; the scalar kernels'
        zero-copy input, shared with :attr:`RunContext.adj`)."""
        if self._adj is None:
            off = self.graph.offsets.tolist()
            dst = self.graph.dst.tolist()
            self._adj = [
                dst[off[u] : off[u + 1]]
                for u in range(self.graph.num_vertices)
            ]
        return self._adj

    # -- similarity store -----------------------------------------------

    @property
    def store_entry(self) -> "StoreEntry | None":
        """This graph's entry in the attached similarity store (if any)."""
        return self._entry

    def prefold_cached(
        self, states: np.ndarray, mcn: np.ndarray | None = None
    ) -> int:
        """Decide every store-covered UNKNOWN arc in ``states`` in place.

        The warm-run fast path: one vectorized pass compares the cached
        exact overlaps against this ε's integer thresholds
        (``overlap >= min_cn``), so a fully-covered store resolves the
        whole similarity phase without a single intersection.  Returns
        the number of arcs folded (each charged as a store hit).
        """
        entry = self._entry
        if entry is None:
            return 0
        tracer = current_tracer()
        t0 = time.perf_counter() if tracer.enabled else 0.0
        idx = np.flatnonzero(entry.coverage & (states == UNKNOWN))
        if idx.size == 0:
            return 0
        if mcn is None:
            mcn = self.arc_thresholds()
        states[idx] = np.where(entry.overlap[idx] >= mcn[idx], SIM, NSIM)
        entry.hits += int(idx.size)
        if tracer.enabled:
            tracer.add_span(
                "cache:prefold", t0, time.perf_counter(), folded=int(idx.size)
            )
        return int(idx.size)

    def resolve_arc_cached(
        self, arc: int, a: Sequence[int], b: Sequence[int], min_cn: int
    ) -> int:
        """SIM/NSIM for one arc through the store (the scalar hot path).

        A covered arc is decided from its cached overlap by the same
        integer comparison every kernel bottoms out in; a miss runs the
        full merge count (charged to the op counter like any exhaustive
        CompSim) and records the exact overlap for future runs.
        """
        entry = self._entry
        if entry.coverage[arc]:
            entry.hits += 1
            return SIM if entry.overlap[arc] >= min_cn else NSIM
        overlap = merge_count(a, b, self.counter) + 2
        entry.record_one(arc, overlap)
        entry.misses += 1
        return SIM if overlap >= min_cn else NSIM

    def _resolve_each(
        self, arcs: np.ndarray, mcn: np.ndarray, exhaustive: bool = False
    ) -> np.ndarray:
        """The ``scalar`` policy for an arc block: one call per arc, in order.

        Each arc goes through the store when one is attached (a miss runs
        an exact merge count and records it, so a later mirror arc in
        the same block is a hit), else through the configured
        early-terminating kernel — or, ``exhaustive``, through SCAN-XP's
        full vectorized count.
        """
        adj = self.adj_lists()
        counter = self.counter
        cached = self.resolve_arc_cached if self._entry is not None else None
        kernel = self._compsim_kernel
        lanes = self.lanes
        out = []
        # Arc sources by binary search: the scalar policy never needs the
        # batch intersector's O(m) source array.
        srcs = np.searchsorted(self.graph.offsets, arcs, side="right") - 1
        for arc, u, v, c in zip(
            arcs.tolist(),
            srcs.tolist(),
            self.graph.dst[arcs].tolist(),
            mcn.tolist(),
        ):
            if cached is not None:
                out.append(cached(arc, adj[u], adj[v], c))
            elif exhaustive:
                common = pivot_vectorized_count(
                    adj[u], adj[v], lanes=lanes, counter=counter
                )
                out.append(SIM if common + 2 >= c else NSIM)
            else:
                out.append(SIM if kernel(adj[u], adj[v], c, counter) else NSIM)
        return np.array(out, dtype=np.int8)

    def resolve_walks(
        self,
        beg: int,
        end: int,
        walking: np.ndarray,
        states: np.ndarray,
        mu: int,
        final: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """Walk vertices' arcs until each one's µ decision is known.

        ppSCAN's role phases.  ``walking[i]`` says whether vertex
        ``beg + i`` walks; ``states`` are the current states of the
        arcs of ``[beg, end)``.  A walk first folds its vertex's known
        states, then resolves its UNKNOWN arcs — only those to ``v > u``
        unless ``final`` — and is decided once its SIM count reaches
        ``mu`` or its degree minus its NSIM count drops below ``mu``.  A
        ``final`` walk sees every similarity, so it always ends decided.

        The ``scalar`` policy is the paper's counted control flow: each
        walk runs in arc order, one kernel call per arc it resolves,
        checks the bounds after every state it folds and stops at the
        first one crossed; the arcs it scanned are its cost.  Both
        directions of an edge are resolved separately, and a walk never
        sees another walk's results.  The ``batched`` policy folds the
        known states of every walk at once, resolves the arcs of all
        undecided walks in one :meth:`resolve_arcs` block — each
        undirected edge once, its mirror result folded into the other
        endpoint's walk when that walk is in the block — and decides each
        walk from its totals; its cost is every arc of every walk plus
        each arc it resolved.

        Returns the resolved arcs and their states, the decided vertices
        and whether each is a core, and the number of arcs scanned.
        """
        if self.exec_mode == "scalar":
            return self._walk_each(beg, walking, states, mu, final)
        return self._walk_block(beg, end, walking, states, mu, final)

    def _walk_each(self, beg, walking, states, mu, final):
        if self._off is None:
            self._off = self.graph.offsets.tolist()
            self._mcn = self.arc_thresholds().tolist()
        off, deg, mcns = self._off, self._deg, self._mcn
        a0 = off[beg]
        seg = states.tolist()
        adj = self.adj_lists()
        counter = self.counter
        cached = self.resolve_arc_cached if self._entry is not None else None
        kernel = self._compsim_kernel
        arcs: list[int] = []
        arc_states: list[int] = []
        decided: list[int] = []
        core: list[bool] = []
        scanned = 0
        for u, walks in enumerate(walking.tolist(), start=beg):
            if not walks:
                continue
            lo, hi = off[u] - a0, off[u + 1] - a0
            sims_left = mu
            nsims_left = deg[u] - mu + 1
            stop = False
            for k in range(lo, hi):  # fold the known states
                scanned += 1
                s = seg[k]
                if s == SIM:
                    sims_left -= 1
                    if sims_left <= 0:
                        stop = True
                        break
                elif s == NSIM:
                    nsims_left -= 1
                    if nsims_left <= 0:
                        stop = True
                        break
            if not stop:
                adj_u = adj[u]
                for k in range(lo, hi):  # resolve the UNKNOWN arcs
                    if seg[k] != UNKNOWN:
                        continue
                    v = adj_u[k - lo]
                    if not final and v <= u:
                        continue
                    scanned += 1
                    arc = a0 + k
                    c = mcns[arc]
                    if cached is not None:
                        s = cached(arc, adj_u, adj[v], c)
                    else:
                        s = SIM if kernel(adj_u, adj[v], c, counter) else NSIM
                    arcs.append(arc)
                    arc_states.append(s)
                    if s == SIM:
                        sims_left -= 1
                        if sims_left <= 0:
                            stop = True
                            break
                    else:
                        nsims_left -= 1
                        if nsims_left <= 0:
                            stop = True
                            break
            if stop or final:
                decided.append(u)
                core.append(sims_left <= 0)
        return (
            np.array(arcs, dtype=np.int64),
            np.array(arc_states, dtype=np.int8),
            np.array(decided, dtype=np.int64),
            np.array(core, dtype=bool),
            scanned,
        )

    def _walk_block(self, beg, end, walking, states, mu, final):
        graph = self.graph
        off, deg, dst = graph.offsets, graph.degrees, graph.dst
        batch = self.batch_intersector()
        src = batch.arc_src
        a0 = int(off[beg])
        walks = np.flatnonzero(walking) + beg
        own = src[a0 : a0 + states.size] - beg
        walk_of = walks - beg
        sims = np.bincount(own[states == SIM], minlength=end - beg)[walk_of]
        nsims = np.bincount(own[states == NSIM], minlength=end - beg)[walk_of]
        nsim_need = deg[walks] - mu + 1
        decided = (sims >= mu) | (nsims >= nsim_need)
        scanned = int(deg[walks].sum())
        open_w = walks[~decided]
        frontier = _NO_ARCS
        if open_w.size:
            frontier = concat_ranges(off[open_w], off[open_w + 1])
            eligible = states[frontier - a0] == UNKNOWN
            if not final:
                eligible &= dst[frontier] > src[frontier]
            frontier = frontier[eligible]
        arc_states = _NO_STATES
        if final and frontier.size:
            # One direction per undirected edge: drop (v, u) when (u, v)
            # is in the (ascending, so key-sorted) frontier as well.  (A
            # forward-only frontier holds one direction already.)
            n = graph.num_vertices
            keys = src[frontier] * n + dst[frontier]
            mirror = dst[frontier] * n + src[frontier]
            pos = np.minimum(np.searchsorted(keys, mirror), frontier.size - 1)
            frontier = frontier[
                (src[frontier] < dst[frontier]) | (keys[pos] != mirror)
            ]
        if frontier.size:
            arc_states = self.resolve_arcs(
                frontier, self.arc_thresholds()[frontier]
            )
            scanned += int(frontier.size)
            # Fold each result into its own walk and, through the mirror
            # arc, into the other endpoint's walk when that one is in the
            # range (only the open walks' tallies are read).
            is_sim = arc_states == SIM
            own = src[frontier] - beg
            peer = dst[frontier] - beg
            peer_in = (peer >= 0) & (peer < end - beg)
            open_at = open_w - beg
            for tally, hit in ((sims, is_sim), (nsims, ~is_sim)):
                tally[~decided] += (
                    np.bincount(own[hit], minlength=end - beg)
                    + np.bincount(peer[hit & peer_in], minlength=end - beg)
                )[open_at]
        if final:
            decided[:] = True
        else:
            decided = (sims >= mu) | (nsims >= nsim_need)
        return frontier, arc_states, walks[decided], sims[decided] >= mu, scanned

    def resolve_exhaustive(
        self, arcs: np.ndarray, mcn: np.ndarray
    ) -> np.ndarray:
        """Full-count SIM/NSIM for an arc block (SCAN-XP's similarity phase).

        Every arc is intersected to the end: per arc in order with the
        vectorized count (``scalar``) or in one bulk ``arc_counts`` call
        (``batched``).  With a store attached both policies take the
        store path of :meth:`resolve_arcs`, whose misses are full counts.
        """
        arcs = np.asarray(arcs, dtype=np.int64)
        mcn = np.asarray(mcn, dtype=np.int64)
        if self._entry is not None or arcs.size == 0:
            return self.resolve_arcs(arcs, mcn)
        if self.exec_mode == "scalar":
            return self._resolve_each(arcs, mcn, exhaustive=True)
        counts = self.batch_intersector().arc_counts(
            arcs, counter=self.counter, lanes=self.lanes
        )
        return np.where(counts + 2 >= mcn, SIM, NSIM).astype(np.int8)

    def resolve_arcs(
        self, arcs: np.ndarray, mcn: np.ndarray | None = None
    ) -> np.ndarray:
        """Resolve CompSim for a whole arc block; returns SIM/NSIM states.

        Under the ``scalar`` policy every arc is one early-terminating
        kernel call (or store lookup), in the given order.  Under the
        ``batched`` policy trivial predicates are folded from degrees
        alone (uncounted, like the scalar algorithms), store-covered arcs
        are decided from their cached overlaps, and every other arc gets
        its exact count from the vectorized mark-and-count bulk path
        (:meth:`~repro.intersect.batch.BatchIntersector.arc_counts`);
        every decision is bit-identical to calling the scalar kernel per
        arc.
        """
        arcs = np.asarray(arcs, dtype=np.int64)
        states = np.empty(arcs.size, dtype=np.int8)
        if arcs.size == 0:
            return states
        if mcn is None:
            mcn = self.arc_thresholds()[arcs]
        else:
            mcn = np.asarray(mcn, dtype=np.int64)
        if self.exec_mode == "scalar":
            return self._resolve_each(arcs, mcn)
        batch = self.batch_intersector()
        deg = self.graph.degrees
        du = deg[batch.arc_src[arcs]]
        dv = deg[self.graph.dst[arcs]]
        # Trivial predicates (§3.2.2) — no kernel, no invocation charge.
        trivial_sim = mcn <= 2
        trivial_nsim = np.minimum(du, dv) + 2 < mcn
        states[trivial_sim] = SIM
        states[trivial_nsim] = NSIM
        rest = np.flatnonzero(~(trivial_sim | trivial_nsim))
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("engine.batches", 1)
            tracer.count("engine.arcs", int(arcs.size))
            tracer.count("engine.arcs_trivial", int(arcs.size - rest.size))
            tracer.observe("engine.batch_size", float(arcs.size))
        entry = self._entry
        if entry is not None and rest.size:
            # Store-backed resolution: covered arcs are decided from the
            # cached exact overlaps; the misses' bulk counts are exact,
            # so they are recorded.
            covered = entry.coverage[arcs[rest]]
            hit = rest[covered]
            if hit.size:
                states[hit] = np.where(
                    entry.overlap[arcs[hit]] >= mcn[hit], SIM, NSIM
                )
                entry.hits += int(hit.size)
            rest = rest[~covered]
        if tracer.enabled:
            tracer.count("engine.arcs_bulk", int(rest.size))
        if rest.size:
            counts = batch.arc_counts(
                arcs[rest], counter=self.counter, lanes=self.lanes
            )
            overlaps = counts + 2
            if entry is not None:
                entry.record(arcs[rest], overlaps)
                entry.misses += int(rest.size)
            states[rest] = np.where(overlaps >= mcn[rest], SIM, NSIM)
        return states

    def similarity_value(self, u: int, v: int) -> float:
        """The raw cosine similarity σ(u, v) of Definition 2.2 (for docs
        and examples; the algorithms themselves never materialize it)."""
        common = merge_count(self.graph.neighbors(u), self.graph.neighbors(v))
        du, dv = self._deg[u] + 1, self._deg[v] + 1
        return (common + 2) / (du * dv) ** 0.5
