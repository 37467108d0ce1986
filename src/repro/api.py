"""Unified facade over the SCAN-family algorithms.

Every algorithm in the repo registers an :class:`AlgorithmSpec` here, so
callers (the CLI included) go through exactly one entry point::

    from repro import api
    from repro.options import BackendKind, ExecutionOptions

    result = api.cluster(graph, params)                       # ppSCAN, serial
    result = api.cluster(
        graph, params,
        algorithm="scanxp",
        options=ExecutionOptions(backend=BackendKind.PROCESS, workers=8),
    )
    outcome = api.compare(graph, params)                      # all agree?

The registry makes capability differences explicit: a spec declares
whether its algorithm accepts an execution backend, a batched exec
mode, a kernel override, and whether it participates in
:func:`compare`'s agreement check.  Options an algorithm cannot honour
are reported (:meth:`AlgorithmSpec.ignored_options`) rather than
silently dropped.

Fault tolerance rides along transparently: when ``options`` selects the
process backend, every phase runs under the supervised loop of
:class:`~repro.parallel.backend.ProcessBackend`, configured by
``options.policy``, and a failed run raises
:class:`~repro.parallel.supervisor.ExecutionFaultError` annotated with
the algorithm and stage that could not be completed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from .cache import SimilarityStore, graph_fingerprint
from .core import (
    ClusteringResult,
    GSIndex,
    anyscan,
    assert_same_clustering,
    ppscan,
    pscan,
    scan,
    scanpp,
    scanxp,
)
from .graph import CSRGraph
from .obs.tracer import current_tracer
from .options import BackendKind, ExecMode, ExecutionOptions, Kernel
from .types import ScanParams, role_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sweep import SweepOutcome

__all__ = [
    "AlgorithmSpec",
    "register_algorithm",
    "get_algorithm",
    "available_algorithms",
    "cluster",
    "compare",
    "sweep",
    "ComparisonOutcome",
    "Session",
    "GraphHandle",
    "VertexView",
    "open",
]


RunnerFn = Callable[
    [CSRGraph, ScanParams, ExecutionOptions], ClusteringResult
]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One clustering algorithm as seen by the facade.

    ``runner(graph, params, options)`` must return the canonical
    :class:`~repro.core.result.ClusteringResult`; capability flags
    declare which :class:`~repro.options.ExecutionOptions` fields it can
    honour so callers learn what a given choice ignores.
    """

    name: str
    display_name: str
    runner: RunnerFn
    description: str = ""
    supports_backend: bool = False
    supports_exec_mode: bool = False
    supports_kernel: bool = False
    supports_cache: bool = False
    supports_checkpoint: bool = False
    supports_sketch: bool = False
    in_compare: bool = True

    def ignored_options(self, options: ExecutionOptions) -> list[str]:
        """Names of non-default options this algorithm cannot honour."""
        ignored = []
        if (
            options.backend is BackendKind.PROCESS
            and not self.supports_backend
        ):
            ignored.append("backend")
        if (
            options.exec_mode is not ExecMode.SCALAR
            and not self.supports_exec_mode
        ):
            ignored.append("exec_mode")
        if (
            options.kernel is not None
            and not self.supports_kernel
            # Kernel.SKETCH is honoured through the sketch plumbing even
            # by algorithms with a fixed CompSim kernel (e.g. scanxp).
            and not (
                options.kernel is Kernel.SKETCH and self.supports_sketch
            )
        ):
            ignored.append("kernel")
        if options.cache is not None and not self.supports_cache:
            ignored.append("cache")
        if options.checkpoint is not None and not self.supports_checkpoint:
            ignored.append("checkpoint")
        if (
            options.effective_sketch() is not None
            and not self.supports_sketch
        ):
            ignored.append("sketch")
        return ignored

    def run(
        self,
        graph: CSRGraph,
        params: ScanParams,
        options: ExecutionOptions | None = None,
    ) -> ClusteringResult:
        """Execute this algorithm under ``options`` (ignoring what it must)."""
        return self.runner(graph, params, options or ExecutionOptions())


_REGISTRY: dict[str, AlgorithmSpec] = {}


def register_algorithm(spec: AlgorithmSpec, *, replace: bool = False) -> None:
    """Add ``spec`` to the registry (``replace=True`` to override)."""
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"algorithm {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a registered algorithm by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown algorithm {name!r}; registered: {known}"
        ) from None


def available_algorithms() -> Mapping[str, AlgorithmSpec]:
    """A read-only snapshot of the registry, sorted by name."""
    return dict(sorted(_REGISTRY.items()))


# ---------------------------------------------------------------------------
# The facade
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# Session API: bind a graph once, query it many times
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexView:
    """One vertex's standing at a single ``(ε, µ)`` point.

    ``role`` is the extended classification (``core`` / ``noncore`` /
    ``hub`` / ``outlier``); ``clusters`` lists every cluster id the
    vertex belongs to (non-core members can sit in several).
    """

    vertex: int
    eps: float
    mu: int
    role: str
    clusters: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "vertex": self.vertex,
            "eps": self.eps,
            "mu": self.mu,
            "role": self.role,
            "clusters": list(self.clusters),
        }


class GraphHandle:
    """A graph bound to its index and similarity store, queried many times.

    The unit of the session API (and the object the clustering service's
    registry holds): one handle owns one :class:`~repro.graph.CSRGraph`
    plus the lazily built :class:`~repro.core.GSIndex` and the shared
    :class:`~repro.cache.SimilarityStore`, so the cost of similarity
    resolution is paid once and every later ``(ε, µ)`` query is an index
    walk (memoized per parameter point — a repeated query is a
    dictionary hit).

    ``cluster(eps, mu)`` with no ``algorithm`` serves from the index and
    is bit-identical to a direct :func:`repro.api.cluster` call;
    ``cluster(..., algorithm="scanxp")`` runs the named registered
    algorithm through the same options/store instead.
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        options: ExecutionOptions | None = None,
        store: SimilarityStore | None = None,
        label: str | None = None,
    ) -> None:
        self.graph = graph
        self.options = options or ExecutionOptions()
        #: Shared overlap memo: the index construction fully populates
        #: it, and algorithm runs through this handle reuse it.  May be
        #: ``None`` (one-shot sessions keep the facade's exact historical
        #: no-cache behavior).
        self.store = store if store is not None else self.options.cache
        self.label = label
        self._fingerprint: str | None = None
        self._index: GSIndex | None = None
        self._stream = None  # StreamingEngine, created by apply_updates
        self._results: dict[tuple, ClusteringResult] = {}
        self._vertex_views: dict[tuple, tuple] = {}
        self.query_hits = 0
        self.query_misses = 0
        self.batches_applied = 0

    # -- identity -------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """BLAKE2b content fingerprint of the CSR graph (lazy, cached).

        The same hash the similarity store keys by, so service clients
        can pre-compute it with ``repro.cache.graph_fingerprint`` (or
        read it off any CLI subcommand's output).
        """
        if self._fingerprint is None:
            self._fingerprint = graph_fingerprint(self.graph)
        return self._fingerprint

    @property
    def indexed(self) -> bool:
        return self._index is not None

    def memory_bytes(self) -> int:
        """Approximate resident footprint (graph + index + memoized
        results) — the quantity the service's eviction budget meters."""
        graph = self.graph
        total = int(graph.offsets.nbytes + graph.dst.nbytes)
        if self._index is not None:
            total += self._index.memory_bytes()
        for result in self._results.values():
            total += int(result.roles.nbytes + result.core_labels.nbytes)
            total += 16 * len(result.noncore_pairs)
        return total

    # -- index ----------------------------------------------------------

    def ensure_index(self) -> GSIndex:
        """Build (once) and return the GS*-Index for this graph.

        Construction is the one similarity-resolution pass the handle
        ever pays: with a store attached it both reuses whatever
        coverage earlier runs left and commits the full exact overlap
        map back, warming every other consumer of the store.
        """
        if self._index is None:
            tracer = current_tracer()
            with tracer.span(
                "session:index", fingerprint=self.fingerprint[:12]
            ):
                self._index = GSIndex(
                    self.graph,
                    store=self.store,
                    sketch=self.options.effective_sketch(),
                )
            if tracer.enabled:
                tracer.count("session.index_built", 1)
        return self._index

    # -- queries --------------------------------------------------------

    @staticmethod
    def _params(eps, mu=None) -> ScanParams:
        if isinstance(eps, ScanParams):
            if mu is not None:
                raise TypeError("pass either ScanParams or (eps, mu)")
            return eps
        if mu is None:
            raise TypeError("cluster() needs both eps and mu")
        return ScanParams(float(eps), int(mu))

    def _point_key(self, params: ScanParams) -> tuple:
        frac = params.eps_fraction
        return (frac.numerator, frac.denominator, params.mu)

    def _query_index(self, params: ScanParams) -> ClusteringResult:
        key = self._point_key(params)
        result = self._results.get(key)
        if result is not None:
            self.query_hits += 1
            return result
        self.query_misses += 1
        tracer = current_tracer()
        if self._stream is not None:
            # A mutated handle serves from its streaming engine: the
            # engine materializes the point once and repairs it in place
            # across batches (bit-identical to a from-scratch index).
            with tracer.span(
                "session:query", eps=float(params.eps), mu=int(params.mu)
            ):
                result = self._stream.query(params)
            self._results[key] = result
            return result
        index = self.ensure_index()
        with tracer.span(
            "session:query", eps=float(params.eps), mu=int(params.mu)
        ):
            result = index.query(params)
        self._results[key] = result
        return result

    # -- streaming updates ----------------------------------------------

    def apply_updates(self, edits):
        """Apply one batch of edge edits and re-stamp the handle.

        ``edits`` is anything :meth:`repro.streaming.EditBatch.coerce`
        accepts — an :class:`~repro.streaming.EditBatch`, an iterable of
        ``('+'/'-', u, v)`` triples, or an ``{"insert": [[u, v], ...],
        "remove": [[u, v], ...]}`` mapping.  The handle's graph is
        replaced by the post-batch snapshot, its fingerprint re-stamped,
        and every previously queried (ε, µ) point is repaired in place
        (scoped re-cluster) so warm queries keep serving between
        batches.  Returns the :class:`~repro.streaming.BatchReport`.
        """
        from .streaming import StreamingEngine

        if self._stream is None:
            self._stream = StreamingEngine(
                self.graph, store=self.store, label=self.label
            )
            # Points already memoized from the static index stay valid
            # (the graph has not changed yet); materialize them in the
            # engine so the first batch repairs them instead of dropping
            # them cold.
            for result in list(self._results.values()):
                self._stream.query(result.params)
        report = self._stream.apply(edits)
        self.graph = self._stream.snapshot
        self._fingerprint = report.fingerprint
        self._index = None
        self._results = dict(self._stream.materialized())
        self._vertex_views.clear()
        self.batches_applied += 1
        return report

    def materialized_points(self) -> list[list[int]]:
        """The memoized (ε, µ) points as exact ``[num, den, mu]`` triples.

        ``eps`` identity is its snapped rational (see
        :attr:`~repro.types.ScanParams.eps_fraction`), so the triple
        re-materializes the identical point key via
        ``ScanParams(num / den, mu)`` — how the service WAL's snapshot
        records which points recovery must re-warm.
        """
        return [[num, den, mu] for (num, den, mu) in sorted(self._results)]

    def lookup(self, eps, mu=None) -> ClusteringResult | None:
        """The memoized index-served result for this point, or ``None``.

        Never computes anything — the service uses it as the warm fast
        path that stays on the event loop.
        """
        params = self._params(eps, mu)
        result = self._results.get(self._point_key(params))
        if result is not None:
            self.query_hits += 1
        return result

    def cluster(
        self,
        eps,
        mu=None,
        *,
        algorithm: str | None = None,
        options: ExecutionOptions | None = None,
    ) -> ClusteringResult:
        """Exact clustering at ``(eps, mu)`` (or a :class:`ScanParams`).

        Without ``algorithm`` the query is served from the handle's
        GS*-Index (built on first use, memoized per parameter point);
        with one, the named registered algorithm runs under the handle's
        options and shared store — the same code path the module-level
        :func:`cluster` facade uses.
        """
        params = self._params(eps, mu)
        if algorithm is None:
            return self._query_index(params)
        spec = get_algorithm(algorithm)
        opts = options if options is not None else self.options
        if (
            self.store is not None
            and spec.supports_cache
            and opts.cache is None
        ):
            opts = opts.evolve(cache=self.store)
        return spec.run(self.graph, params, opts)

    def vertex(self, v: int, eps, mu=None) -> VertexView:
        """Per-vertex lookup at ``(eps, mu)``: role + cluster memberships.

        Served from the same memoized index query as :meth:`cluster`,
        with the (costlier) hub/outlier classification memoized per
        parameter point as well — per-vertex lookups after the first are
        O(1) dictionary and array reads.
        """
        v = int(v)
        if not 0 <= v < self.graph.num_vertices:
            raise ValueError(
                f"vertex {v} out of range [0, {self.graph.num_vertices})"
            )
        params = self._params(eps, mu)
        key = self._point_key(params)
        view = self._vertex_views.get(key)
        if view is None:
            result = self._query_index(params)
            view = (result.classify(self.graph), result.membership())
            self._vertex_views[key] = view
        classified, membership = view
        return VertexView(
            vertex=v,
            eps=float(params.eps),
            mu=int(params.mu),
            role=role_name(int(classified[v])).lower(),
            clusters=tuple(sorted(membership[v])),
        )

    def sweep(
        self,
        eps_values,
        mu_values,
        *,
        algorithm: str = "ppscan",
        use_cache: bool = True,
        checkpoint=None,
    ) -> "SweepOutcome":
        """Cluster across the (ε, µ) grid, reusing the handle's store."""
        from .sweep import SweepEngine

        engine = SweepEngine(
            self.graph,
            algorithm=algorithm,
            options=self.options,
            store=self.store if use_cache else None,
            use_cache=use_cache,
            checkpoint=checkpoint,
        )
        return engine.run(eps_values, mu_values)

    def stats(self) -> dict:
        """JSON-able snapshot of this handle's state and query traffic."""
        return {
            "fingerprint": self.fingerprint,
            "label": self.label,
            "num_vertices": self.graph.num_vertices,
            "num_edges": self.graph.num_edges,
            "indexed": self.indexed,
            "approximate": bool(getattr(self._index, "approximate", False)),
            "memory_bytes": self.memory_bytes(),
            "points_cached": len(self._results),
            "query_hits": self.query_hits,
            "query_misses": self.query_misses,
            "streaming": self._stream is not None,
            "batches_applied": self.batches_applied,
        }

    def close(self) -> None:
        """Drop the index, streaming engine and memoized queries (the
        store is shared and stays with the session)."""
        self._index = None
        self._stream = None
        self._results.clear()
        self._vertex_views.clear()


class Session:
    """Bind graphs once, then query them through :class:`GraphHandle`\\ s.

    The redesigned front door of :mod:`repro.api`::

        with api.Session(cache_dir="/tmp/simstore") as session:
            handle = session.open(graph)
            result = handle.cluster(0.5, 2)     # index-served
            info = handle.vertex(7, 0.5, 2)     # per-vertex lookup
            grid = handle.sweep([0.4, 0.6], [2, 5])

    One session owns one :class:`~repro.cache.SimilarityStore` (created
    on demand, disk-backed when ``cache_dir`` is given) shared by every
    handle, so index constructions and algorithm runs warm each other.
    The module-level :func:`cluster` / :func:`compare` / :func:`sweep`
    facades are thin wrappers over a one-shot session, and the
    clustering service's registry stores these same handles — CLI,
    library and server share one code path.

    A session with no store configured (``options.cache`` unset, no
    ``store``/``cache_dir``) leaves ``store=None``: one-shot wrappers
    keep the facade's historical uncached behavior exactly.
    """

    def __init__(
        self,
        *,
        options: ExecutionOptions | None = None,
        store: SimilarityStore | None = None,
        cache_dir=None,
    ) -> None:
        opts = options or ExecutionOptions()
        if store is None and cache_dir is not None:
            store = SimilarityStore(cache_dir=cache_dir)
        if store is None:
            store = opts.cache
        elif opts.cache is None:
            opts = opts.evolve(cache=store)
        self.options = opts
        self.store = store
        self._handles: dict[int, GraphHandle] = {}

    def open(self, graph: CSRGraph, *, label: str | None = None) -> GraphHandle:
        """The handle for ``graph`` (one per graph object per session)."""
        handle = self._handles.get(id(graph))
        if handle is None:
            handle = GraphHandle(
                graph, options=self.options, store=self.store, label=label
            )
            self._handles[id(graph)] = handle
        return handle

    def handles(self) -> list[GraphHandle]:
        return list(self._handles.values())

    def discard(self, handle: GraphHandle) -> None:
        """Release ``handle`` (drops its index and memoized queries).

        Looked up by identity, not by ``id(handle.graph)`` — a streamed
        handle's graph object is replaced on every
        :meth:`GraphHandle.apply_updates` batch, so the open-time key
        may no longer match.
        """
        for key, open_handle in list(self._handles.items()):
            if open_handle is handle:
                del self._handles[key]
        handle.close()

    def close(self) -> None:
        """Close every handle and spill the store's dirty entries."""
        for handle in self.handles():
            self.discard(handle)
        if self.store is not None:
            self.store.spill()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open(  # noqa: A001 - deliberate, mirrors Session.open
    graph: CSRGraph,
    *,
    options: ExecutionOptions | None = None,
    store: SimilarityStore | None = None,
    cache_dir=None,
) -> GraphHandle:
    """``api.open(graph) -> GraphHandle`` — a standalone one-graph session.

    Convenience for the common case of binding a single graph; the
    handle owns its session implicitly.
    """
    session = Session(options=options, store=store, cache_dir=cache_dir)
    return session.open(graph)


def cluster(
    graph: CSRGraph,
    params: ScanParams,
    *,
    algorithm: str = "ppscan",
    options: ExecutionOptions | None = None,
) -> ClusteringResult:
    """Cluster ``graph`` at ``params`` with the named algorithm.

    The one entry point for running any registered algorithm: execution
    strategy (backend, workers, exec mode, kernel, fault tolerance,
    chaos injection) comes from ``options``; what the algorithm cannot
    honour it ignores (see :meth:`AlgorithmSpec.ignored_options` to
    check beforehand).

    This facade is a thin wrapper over a one-shot :class:`Session`; to
    run many queries against one graph, hold a :class:`GraphHandle`
    instead (``api.Session().open(graph)``).
    """
    handle = Session(options=options).open(graph)
    return handle.cluster(params, algorithm=algorithm)


@dataclass(frozen=True)
class ComparisonOutcome:
    """Result of :func:`compare`: per-algorithm results, verified equal.

    ``leg_stats`` carries per-algorithm run telemetry measured by the
    facade itself — ``wall_seconds`` (facade-side wall of that leg) and
    ``peak_rss_kb`` (the process's ``ru_maxrss`` after the leg; a
    high-water mark, so it is monotone across legs and the first leg to
    touch the peak owns it) — so the CLI's comparison table and CSV can
    report cost columns without re-deriving them from traces.
    """

    reference: str
    results: dict[str, ClusteringResult] = field(default_factory=dict)
    leg_stats: dict[str, dict] = field(default_factory=dict)

    @property
    def num_clusters(self) -> int:
        return self.results[self.reference].num_clusters

    @property
    def num_cores(self) -> int:
        return self.results[self.reference].num_cores


def _process_peak_rss_kb() -> int | None:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def compare(
    graph: CSRGraph,
    params: ScanParams,
    *,
    algorithms: list[str] | None = None,
    options: ExecutionOptions | None = None,
) -> ComparisonOutcome:
    """Run several algorithms and assert they produce the same clustering.

    Defaults to every registered algorithm with ``in_compare=True``.
    Raises :class:`AssertionError` (from
    :func:`~repro.core.assert_same_clustering`) on the first
    disagreement — the repo-wide correctness gate.
    """
    names = (
        list(algorithms)
        if algorithms is not None
        else [s.name for s in available_algorithms().values() if s.in_compare]
    )
    if not names:
        raise ValueError("no algorithms to compare")
    results: dict[str, ClusteringResult] = {}
    leg_stats: dict[str, dict] = {}
    reference_name = names[0]
    handle = Session(options=options).open(graph)
    for name in names:
        opts = options
        if opts is not None and opts.checkpoint is not None:
            # One manager cannot hold several algorithms' states at once;
            # give each leg its own sibling directory so a crashed compare
            # resumes every leg independently.
            opts = opts.evolve(checkpoint=opts.checkpoint.for_subrun(name))
        t0 = time.perf_counter()
        result = handle.cluster(params, algorithm=name, options=opts)
        wall = time.perf_counter() - t0
        stats: dict = {"wall_seconds": wall}
        rss = _process_peak_rss_kb()
        if rss is not None:
            stats["peak_rss_kb"] = rss
        leg_stats[name] = stats
        if results:
            assert_same_clustering(results[reference_name], result)
        results[name] = result
    return ComparisonOutcome(
        reference=reference_name, results=results, leg_stats=leg_stats
    )


def sweep(
    graph: CSRGraph,
    eps_values,
    mu_values,
    *,
    algorithm: str = "ppscan",
    options: ExecutionOptions | None = None,
    store=None,
    cache_dir=None,
    use_cache: bool = True,
    checkpoint=None,
):
    """Cluster ``graph`` across the (ε, µ) grid with cross-run overlap reuse.

    Thin facade over a one-shot :class:`Session` driving
    :class:`repro.sweep.SweepEngine`; returns its
    :class:`~repro.sweep.SweepOutcome`.  Each arc's exact overlap is
    resolved at most once across the whole grid, and every grid point's
    clustering is bit-identical to an independent run.
    """
    if store is None and use_cache:
        # Preserve SweepEngine's defaults: reuse the options' store when
        # one is attached, else create one per sweep (disk-backed when
        # ``cache_dir`` is given).
        if options is not None and options.cache is not None:
            store = options.cache
        else:
            store = SimilarityStore(cache_dir=cache_dir)
    handle = Session(options=options, store=store).open(graph)
    return handle.sweep(
        eps_values,
        mu_values,
        algorithm=algorithm,
        use_cache=use_cache,
        checkpoint=checkpoint,
    )


# ---------------------------------------------------------------------------
# Built-in registrations
# ---------------------------------------------------------------------------


def _with_cache_counters(fn, graph, params, kwargs, store):
    """Run ``fn`` and mirror the store's hit/miss deltas into the ambient
    tracer as ``cache.hit`` / ``cache.miss`` counters.

    The store entries themselves keep plain-int tallies (the hot paths
    never touch the tracer); this single post-run diff is the one place
    the counters enter the telemetry, so they are never double-counted.
    """
    before = store.stats()
    result = fn(graph, params, **kwargs)
    tracer = current_tracer()
    if tracer.enabled:
        after = store.stats()
        tracer.count("cache.hit", after.hits - before.hits)
        tracer.count("cache.miss", after.misses - before.misses)
    return result


def _runner(
    fn,
    *,
    backend: bool = False,
    exec_mode: bool = False,
    kernel: bool = False,
    cache: bool = False,
    checkpoint: bool = False,
    sketch: bool = False,
) -> RunnerFn:
    """Adapt a core algorithm function to the ``runner`` protocol,
    forwarding exactly the options the flags declare it supports."""

    def run(
        graph: CSRGraph, params: ScanParams, options: ExecutionOptions
    ) -> ClusteringResult:
        kwargs: dict = {}
        if backend:
            built = options.make_backend(graph)
            if built is not None:
                kwargs["backend"] = built
            if options.task_threshold is not None:
                kwargs["task_threshold"] = options.task_threshold
        if exec_mode and options.exec_mode is not ExecMode.SCALAR:
            kwargs["exec_mode"] = options.exec_mode.value
        if kernel and options.kernel is not None:
            kwargs["kernel"] = options.kernel.value
        if checkpoint and options.checkpoint is not None:
            kwargs["checkpoint"] = options.checkpoint
        if sketch:
            sketch_params = options.effective_sketch()
            if sketch_params is not None:
                kwargs["sketch"] = sketch_params
        if cache and options.cache is not None:
            kwargs["store"] = options.cache
            return _with_cache_counters(
                fn, graph, params, kwargs, options.cache
            )
        return fn(graph, params, **kwargs)

    return run


def _run_gsindex(
    graph: CSRGraph, params: ScanParams, options: ExecutionOptions
) -> ClusteringResult:
    """Build (or cache-warm) a GS*-Index and answer one (ε, µ) query."""
    sketch_params = options.effective_sketch()
    if options.cache is not None:
        kwargs: dict = {"store": options.cache}
        if sketch_params is not None:
            kwargs["sketch"] = sketch_params
        return _with_cache_counters(
            lambda g, p, **kw: GSIndex(g, **kw).query(p),
            graph,
            params,
            kwargs,
            options.cache,
        )
    return GSIndex(graph, sketch=sketch_params).query(params)


def _register_core(
    fn, name: str, display_name: str, description: str, **supports: bool
) -> None:
    """Register a core algorithm function from one capability declaration:
    its runner forwards, and its spec reports, the same ``supports``."""
    register_algorithm(
        AlgorithmSpec(
            name=name,
            display_name=display_name,
            runner=_runner(fn, **supports),
            description=description,
            **{f"supports_{option}": on for option, on in supports.items()},
        )
    )


def _register_builtins() -> None:
    _register_core(
        scan, "scan", "SCAN",
        "the original exhaustive algorithm (baseline)",
        cache=True,
    )
    _register_core(
        pscan, "pscan", "pSCAN",
        "pruning-based sequential SCAN",
        kernel=True, cache=True, checkpoint=True, sketch=True,
    )
    _register_core(
        scanpp, "scanpp", "SCAN++",
        "two-hop-away sampling SCAN variant",
    )
    _register_core(
        anyscan, "anyscan", "anySCAN",
        "anytime block-summarizing parallel SCAN",
        backend=True, checkpoint=True, sketch=True,
    )
    _register_core(
        scanxp, "scanxp", "SCAN-XP",
        "exhaustive vectorized parallel SCAN",
        backend=True, exec_mode=True, cache=True, checkpoint=True,
        sketch=True,
    )
    _register_core(
        ppscan, "ppscan", "ppSCAN",
        "the paper's pruning-based parallel SCAN",
        backend=True, exec_mode=True, kernel=True, cache=True,
        checkpoint=True, sketch=True,
    )
    register_algorithm(
        AlgorithmSpec(
            name="gsindex",
            display_name="GS*-Index",
            runner=_run_gsindex,
            description="index-based query (built per graph, queried at "
            "(eps, mu))",
            supports_cache=True,
            supports_sketch=True,
            in_compare=False,
        )
    )


_register_builtins()
