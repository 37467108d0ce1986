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
    from ..sketch import SketchParams, VertexSketches

__all__ = ["SimilarityEngine", "KERNELS", "EXEC_MODES"]

_NO_ARCS = np.empty(0, dtype=np.int64)
_NO_STATES = np.empty(0, dtype=np.int8)

#: Resolution policies (``exec_mode``) of the engine's arc-block methods:
#: ``scalar`` calls one kernel per arc in the given order (the paper's
#: counted control flow), ``batched`` resolves a whole block at once
#: through the adaptive bulk dispatcher.
EXEC_MODES = ("scalar", "batched")

#: Registered early-terminating CompSim kernels, by name.
KERNELS: dict[str, str] = {
    "merge": "scalar merge with min-max bounds (pSCAN / ppSCAN-NO)",
    "pivot": "scalar pivot loop (Algorithm 6 fallback path)",
    "vectorized": "pivot-based vectorized intersection (Algorithm 6)",
    "sketch": "sketch pre-pass (Bloom + KMV) with exact boundary fallback",
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
        sketch: "SketchParams | None" = None,
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
        if kernel == "sketch" and sketch is None:
            from ..sketch import SketchParams

            sketch = SketchParams()
        #: Sketch gating configuration; ``None`` disables the sketch
        #: pre-pass entirely (the exact default).
        self.sketch = sketch
        self._sketches: "VertexSketches | None" = None
        self._sketch_prefolded = False
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
        # "vectorized" and "sketch" share the exact fallback kernel: the
        # sketch pre-pass gates *which* arcs reach it, not how they are
        # resolved.
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
        """The engine's reusable mark-and-count scratch (cached)."""
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

    def _neighbor_lists(self, vertices: list[int]) -> dict[int, list[int]]:
        """The sorted neighbor lists of just ``vertices``: the few arcs the
        batched policy routes to a scalar kernel need no whole-graph
        :meth:`adj_lists` (which would cost a batched run O(m) objects)."""
        off, dst = self.graph.offsets, self.graph.dst
        return {u: dst[off[u] : off[u + 1]].tolist() for u in set(vertices)}

    #: Substrate calibration for the dispatcher's work model: one step of
    #: an interpreted scalar kernel costs roughly this many NumPy
    #: vector-block steps (measured on the bundled standins; the exact
    #: value only shifts the hub-degree cutover point).
    SCALAR_STEP_PENALTY = 24

    def route_scalar(
        self, du: np.ndarray, dv: np.ndarray, mcn: np.ndarray
    ) -> np.ndarray:
        """The adaptive dispatcher's work model: which arcs should keep the
        early-terminating scalar kernel?

        The scalar kernel wins when an early-exit bound is *close*: it
        needs at most ``min_cn - 2`` matches to return SIM and tolerates at
        most ``min(d(u), d(v)) + 2 - min_cn`` mismatches on the smaller
        side before returning NSIM, so the distance to the nearest bound
        caps its comparisons.  The bulk estimate charges
        ``d(u) + d(v)`` elements — what a mark pass touches; the keyed
        pass and a swapped leaf→hub arc (see
        :data:`~repro.intersect.batch.PROBE_SWAP_RATIO`) touch fewer, so
        it is an upper bound — but the bulk path retires ``lanes`` per
        vector block and pays no per-step interpreter overhead, hence the
        ``SCALAR_STEP_PENALTY`` weighting: only high-degree arcs whose
        early-exit slack is tiny (hub pairs a few matches away from a
        bound) are worth an interpreted early-terminating walk.  Both
        estimates are integer and deterministic, so the routing — and
        therefore the work accounting — is reproducible.
        """
        slack = np.minimum(mcn - 2, np.minimum(du, dv) + 2 - mcn)
        est_scalar = (4 + 2 * slack) * self.SCALAR_STEP_PENALTY
        est_bulk = 2 + (du + dv + self.lanes - 1) // self.lanes
        return est_scalar <= est_bulk

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

    # -- sketch gating ---------------------------------------------------

    def sketches(self) -> "VertexSketches":
        """Per-vertex Bloom + KMV sketches (built once, store-memoized).

        With a store attached, sketches are shared through it under the
        graph's CSR fingerprint and the sketch configuration key, so
        sweep points and resumed runs reuse one build.
        """
        if self._sketches is None:
            params = self.sketch
            if params is None:
                raise RuntimeError("engine has no sketch configuration")
            store = self.store
            cached = (
                store.sketches_for(self.graph, params)
                if store is not None
                else None
            )
            if cached is not None:
                self._sketches = cached
                return cached
            from ..sketch import build_sketches

            tracer = current_tracer()
            t0 = time.perf_counter() if tracer.enabled else 0.0
            built = build_sketches(self.graph, params)
            if tracer.enabled:
                tracer.add_span(
                    "sketch:build",
                    t0,
                    time.perf_counter(),
                    vertices=int(built.num_vertices),
                    bits=int(params.bits),
                    k=int(params.k),
                    bytes=int(built.nbytes()),
                )
                tracer.count("sketch.built", 1)
            if store is not None:
                store.put_sketches(self.graph, params, built)
            self._sketches = built
        return self._sketches

    def sketch_classify(
        self, arcs: np.ndarray, mcn: np.ndarray
    ) -> np.ndarray:
        """SIM/NSIM/UNKNOWN per arc from sketches; UNKNOWN = fall back."""
        from ..sketch import classify_arcs

        tracer = current_tracer()
        t0 = time.perf_counter() if tracer.enabled else 0.0
        states = classify_arcs(
            self.sketches(),
            self.graph,
            arcs,
            mcn,
            src=self.batch_intersector().arc_src,
        )
        if tracer.enabled:
            definite = int(np.count_nonzero(states != UNKNOWN))
            tracer.add_span(
                "sketch:estimate",
                t0,
                time.perf_counter(),
                arcs=int(np.asarray(arcs).size),
                definite=definite,
            )
            tracer.count("sketch.definite", definite)
            tracer.count(
                "sketch.fallback", int(np.asarray(arcs).size) - definite
            )
        return states

    def sketch_prefold(
        self, states: np.ndarray, mcn: np.ndarray | None = None
    ) -> int:
        """Decide every sketch-decidable UNKNOWN arc in ``states`` in place.

        The whole-graph analogue of :meth:`prefold_cached` for the sketch
        backend: one vectorized pass classifies all still-unknown arcs and
        folds the definite ones, leaving only the exact-fallback arcs
        UNKNOWN.  Marks the engine as prefolded so :meth:`resolve_arcs`
        skips its per-batch sketch pre-pass (those arcs were already
        classified once).  Returns the number of arcs folded.
        """
        if self.sketch is None:
            return 0
        idx = np.flatnonzero(states == UNKNOWN)
        self._sketch_prefolded = True
        if idx.size == 0:
            return 0
        if mcn is None:
            mcn = self.arc_thresholds()
        decided = self.sketch_classify(idx, mcn[idx])
        hit = decided != UNKNOWN
        states[idx[hit]] = decided[hit]
        return int(np.count_nonzero(hit))

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
        alone (uncounted, like the scalar algorithms), the adaptive
        dispatcher routes each remaining arc between the vectorized
        mark-and-count bulk path (grouped by source vertex) and the
        configured early-terminating scalar kernel, and every decision is
        bit-identical to calling the scalar kernel per arc.
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
        dst = self.graph.dst[arcs]
        du = deg[batch.arc_src[arcs]]
        dv = deg[dst]
        # Trivial predicates (§3.2.2) — no kernel, no invocation charge.
        trivial_sim = mcn <= 2
        trivial_nsim = np.minimum(du, dv) + 2 < mcn
        states[trivial_sim] = SIM
        states[trivial_nsim] = NSIM
        rest = ~(trivial_sim | trivial_nsim)
        n_trivial = int(arcs.size - np.count_nonzero(rest))
        tracer = current_tracer()
        entry = self._entry
        if self.sketch is not None and not self._sketch_prefolded:
            # Sketch pre-pass: definite arcs are decided here and never
            # reach the exact path (nor the store — sketch decisions are
            # estimates or certificates, not recordable exact overlaps).
            # Store-covered arcs are skipped: a cached exact overlap is
            # both free and exact, so it always wins over a sketch.
            idx = np.flatnonzero(rest)
            if entry is not None and idx.size:
                idx = idx[~entry.coverage[arcs[idx]]]
            if idx.size:
                decided = self.sketch_classify(arcs[idx], mcn[idx])
                hit = decided != UNKNOWN
                if hit.any():
                    states[idx[hit]] = decided[hit]
                    rest[idx[hit]] = False
        if entry is not None:
            # Store-backed resolution: covered arcs are decided from the
            # cached exact overlaps; misses all take the bulk exhaustive
            # path so their overlaps are exact and recordable (an
            # early-terminating kernel learns only the decision, not the
            # count).  Decisions are identical either way.
            if tracer.enabled:
                tracer.count("engine.batches", 1)
                tracer.count("engine.arcs", int(arcs.size))
                tracer.count("engine.arcs_trivial", n_trivial)
                tracer.observe("engine.batch_size", float(arcs.size))
            idx_rest = np.flatnonzero(rest)
            if idx_rest.size:
                covered = entry.coverage[arcs[idx_rest]]
                hit_idx = idx_rest[covered]
                if hit_idx.size:
                    states[hit_idx] = np.where(
                        entry.overlap[arcs[hit_idx]] >= mcn[hit_idx],
                        SIM,
                        NSIM,
                    )
                    entry.hits += int(hit_idx.size)
                miss_idx = idx_rest[~covered]
                if miss_idx.size:
                    overlaps = (
                        batch.arc_counts(
                            arcs[miss_idx],
                            counter=self.counter,
                            lanes=self.lanes,
                        )
                        + 2
                    )
                    entry.record(arcs[miss_idx], overlaps)
                    entry.misses += int(miss_idx.size)
                    states[miss_idx] = np.where(
                        overlaps >= mcn[miss_idx], SIM, NSIM
                    )
                if tracer.enabled:
                    tracer.count("engine.arcs_bulk", int(idx_rest.size - hit_idx.size))
            return states
        scalar_sel = rest & self.route_scalar(du, dv, mcn)
        bulk_sel = rest & ~scalar_sel
        if tracer.enabled:
            tracer.count("engine.batches", 1)
            tracer.count("engine.arcs", int(arcs.size))
            tracer.count("engine.arcs_trivial", n_trivial)
            tracer.count(
                "engine.arcs_scalar", int(np.count_nonzero(scalar_sel))
            )
            tracer.count("engine.arcs_bulk", int(np.count_nonzero(bulk_sel)))
            tracer.observe("engine.batch_size", float(arcs.size))
        if bulk_sel.any():
            idx = np.flatnonzero(bulk_sel)
            counts = batch.arc_counts(
                arcs[idx], counter=self.counter, lanes=self.lanes
            )
            states[idx] = np.where(counts + 2 >= mcn[idx], SIM, NSIM)
        if scalar_sel.any():
            idx = np.flatnonzero(scalar_sel)
            srcs = batch.arc_src[arcs[idx]].tolist()
            dsts = dst[idx].tolist()
            adj = self._adj or self._neighbor_lists(srcs + dsts)
            thresholds = mcn[idx].tolist()
            kernel = self._compsim_kernel
            counter = self.counter
            for k, (u, v, c) in enumerate(zip(srcs, dsts, thresholds)):
                states[idx[k]] = SIM if kernel(adj[u], adj[v], c, counter) else NSIM
        return states

    def similarity_value(self, u: int, v: int) -> float:
        """The raw cosine similarity σ(u, v) of Definition 2.2 (for docs
        and examples; the algorithms themselves never materialize it)."""
        common = merge_count(self.graph.neighbors(u), self.graph.neighbors(v))
        du, dv = self._deg[u] + 1, self._deg[v] + 1
        return (common + 2) / (du * dv) ** 0.5
