"""Command-line interface: ``repro-scan`` / ``python -m repro``.

Subcommands
-----------
cluster
    Cluster an edge-list (or binary CSR) graph file and print the
    summary, roles and clusters; optionally save the result (.npz).
compare
    Run every algorithm on a graph, assert they produce the identical
    clustering, and print a work/time comparison table.
sweep
    Cluster over an (eps, mu) grid and print/export one row per cell.
stream
    Apply an edit-script file in batches, serving warm (eps, mu)
    queries between batches (see docs/streaming.md).
stats
    Print Table-1-style statistics for a graph file.
generate
    Write a synthetic evaluation graph to an edge-list file.
bench
    Run one of the paper-figure experiments and print its table.
serve
    Start the always-on clustering service (HTTP, see docs/service.md).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack, contextmanager

import numpy as np

from . import __version__, api
from .bench.experiments import EXPERIMENTS
from .checkpoint import ResumeMismatchError
from .graph import graph_stats, load_graph, write_edge_list
from .graph.generators import (
    REAL_WORLD_STANDINS,
    real_world_standin,
    roll_graph,
)
from .obs import TRACE_FORMATS, Tracer, use_tracer, write_trace
from .options import BackendKind, ExecMode, ExecutionOptions, Kernel
from .parallel import (
    ExecutionFaultError,
    FaultPlan,
    FaultTolerancePolicy,
    PoisonTaskError,
    ResumableAbort,
)
from .similarity import EXEC_MODES, KERNELS
from .types import CORE, HUB, OUTLIER, ScanParams

#: Exit code for a run the fault-tolerance layer could not complete
#: (retry budget exhausted or a task quarantined as poison).
EXIT_EXECUTION_FAULT = 3
#: Exit code for ``--resume`` against a checkpoint directory that records
#: a different graph / parameters / algorithm.
EXIT_RESUME_MISMATCH = 4


def _print_fingerprint(graph) -> None:
    """One ``fingerprint:`` line so every subcommand names the graph it
    ran on — the same CSR content key the cache, checkpoints and the
    service registry use."""
    from .cache import graph_fingerprint

    print(f"fingerprint: {graph_fingerprint(graph)}")


def _cache_store(args: argparse.Namespace):
    """The disk-backed similarity store the flags ask for, or ``None``.

    ``cluster`` / ``compare`` cache only when ``--cache-dir`` is given
    (a single run has nothing to reuse from an empty in-memory store);
    ``--no-cache`` wins over everything.
    """
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None or getattr(args, "no_cache", False):
        return None
    from .cache import SimilarityStore

    return SimilarityStore(cache_dir=cache_dir)


def _report_cache(store) -> None:
    """One summary line of store traffic after a cached run."""
    if store is None:
        return
    spilled = store.spill()
    stats = store.stats()
    line = (
        f"cache: {stats.hits} hits, {stats.misses} misses "
        f"({stats.reuse_fraction * 100:.1f}% reuse)"
    )
    if spilled:
        line += f"; spilled {spilled} graph entr" + (
            "y" if spilled == 1 else "ies"
        ) + f" to {store.cache_dir}"
    print(line)


def _checkpoint_manager(args: argparse.Namespace):
    """The durable checkpoint manager the flags ask for, or ``None``.

    ``--resume`` without ``--checkpoint-dir`` is a usage error: there is
    no state to resume from.
    """
    ck_dir = getattr(args, "checkpoint_dir", None)
    resume = bool(getattr(args, "resume", False))
    if resume and ck_dir is None:
        raise SystemExit(
            "error: --resume requires --checkpoint-dir (there is no "
            "checkpoint directory to resume from)"
        )
    if ck_dir is None:
        return None
    from .checkpoint import CheckpointManager

    return CheckpointManager(
        ck_dir,
        every=getattr(args, "checkpoint_every", None),
        resume=resume,
    )


def _sketch_params(args: argparse.Namespace):
    """The :class:`SketchParams` the flags describe, or ``None``.

    Sketch tuning flags only take effect under ``--kernel sketch``; the
    estimators never run behind any other kernel, so silently building
    params there would suggest an approximation that does not happen.
    """
    if getattr(args, "kernel", None) != "sketch":
        return None
    from .sketch import SketchParams

    return SketchParams(
        bits=getattr(args, "sketch_bits", None) or 256,
        error=getattr(args, "sketch_error", None) or 0.0,
        gate=getattr(args, "sketch_gate", None),
    )


def _execution_options(args: argparse.Namespace) -> ExecutionOptions:
    """Build the typed execution options one subcommand's flags describe."""
    workers = getattr(args, "workers", 0)
    chaos_spec = getattr(args, "chaos_plan", None)
    kernel = getattr(args, "kernel", None)
    limits = {  # --max-retries / --task-timeout, when given
        name: value
        for name in ("max_retries", "task_timeout")
        if (value := getattr(args, name, None)) is not None
    }
    return ExecutionOptions(
        backend=BackendKind.PROCESS if workers > 0 else BackendKind.SERIAL,
        workers=workers if workers > 0 else None,
        exec_mode=ExecMode(getattr(args, "exec_mode", "scalar")),
        kernel=Kernel(kernel) if kernel else None,
        sketch=_sketch_params(args),
        policy=FaultTolerancePolicy(**limits) if limits else None,
        chaos=FaultPlan.parse(chaos_spec) if chaos_spec else None,
        cache=_cache_store(args),
        checkpoint=_checkpoint_manager(args),
    )


_IGNORED_NOTES = {
    "backend": "{name} is sequential; --workers ignored",
    "exec_mode": "{name} has no batched mode; --exec-mode ignored",
    "kernel": "{name} has a fixed kernel; --kernel ignored",
    "cache": "{name} cannot use the similarity store; --cache-dir ignored",
    "checkpoint": "{name} cannot checkpoint; --checkpoint-dir ignored",
    "sketch": "{name} has no sketch pre-pass; sketch options ignored",
}


def _report_ignored(spec: api.AlgorithmSpec, options: ExecutionOptions) -> None:
    for what in spec.ignored_options(options):
        print(
            "note: " + _IGNORED_NOTES[what].format(name=spec.name),
            file=sys.stderr,
        )


def _print_fault_report(exc: ExecutionFaultError) -> None:
    """Structured stderr report for a run the supervisor gave up on."""
    print(f"execution fault: {exc}", file=sys.stderr)
    if isinstance(exc, ResumableAbort):
        print(
            f"  checkpoint: epoch {exc.epoch} saved to "
            f"{exc.checkpoint_dir}; re-run with --resume to continue "
            "from it",
            file=sys.stderr,
        )
    if isinstance(exc, PoisonTaskError):
        for line in exc.report.describe().splitlines():
            print(f"  {line}", file=sys.stderr)
    if exc.failures:
        print(f"  failed attempts ({len(exc.failures)}):", file=sys.stderr)
        for failure in exc.failures[-8:]:
            print(
                f"    task {failure.task} attempt {failure.attempt} "
                f"[worker {failure.worker}]: {failure.kind} — "
                f"{failure.detail}",
                file=sys.stderr,
            )
    kinds: dict[str, int] = {}
    for event in exc.events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    if kinds:
        summary = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        print(f"  recovery events: {summary}", file=sys.stderr)


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write run telemetry (spans + metrics) to PATH",
    )
    parser.add_argument(
        "--trace-format",
        choices=list(TRACE_FORMATS),
        default="chrome",
        help="trace file format: Chrome trace events (Perfetto-loadable), "
        "JSONL, or a plain-text report",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--progress",
        action="store_true",
        help="live progress on stderr: per-phase completion with a "
        "cost-model ETA (rewritten status line on a TTY, periodic log "
        "lines otherwise)",
    )
    parser.add_argument(
        "--profile-spans",
        action="store_true",
        help="sample the active span stack (~10ms period) and print a "
        "self/cumulative time profile per span kind after the run",
    )
    parser.add_argument(
        "--profile-memory",
        action="store_true",
        help="account tracemalloc allocation deltas and peaks per "
        "top-level phase (slows the run; implies --profile-spans output)",
    )
    parser.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="append this run's record (workload, options, stage walls, "
        "counters, memory) to the run ledger at PATH (a directory or a "
        ".jsonl file)",
    )


class _ObsSession:
    """Per-invocation observability plumbing shared by the run commands.

    Decides whether a tracer must exist (trace export, profiling and the
    ledger all consume one), owns the optional profiler and progress
    reporter, and installs everything ambiently for the run body.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.trace_path = getattr(args, "trace", None)
        self.profile = bool(getattr(args, "profile_spans", False))
        self.memory = bool(getattr(args, "profile_memory", False))
        self.ledger_path = getattr(args, "ledger", None)
        self.progress = bool(getattr(args, "progress", False))
        need_tracer = bool(
            self.trace_path
            or self.profile
            or self.memory
            or self.ledger_path
        )
        self.tracer: Tracer | None = Tracer() if need_tracer else None
        self.profiler = None
        self._ingested = False

    @contextmanager
    def activate(self):
        with ExitStack() as stack:
            if self.tracer is not None:
                stack.enter_context(use_tracer(self.tracer))
                if self.profile or self.memory:
                    from .obs.profiler import SpanProfiler

                    self.profiler = stack.enter_context(
                        SpanProfiler(self.tracer, memory=self.memory)
                    )
            if self.progress:
                from .obs.progress import ProgressReporter, use_progress

                reporter = ProgressReporter()
                stack.enter_context(reporter)
                stack.enter_context(use_progress(reporter))
            yield self

    def ingest(self, record) -> None:
        """Fold a RunRecord's tallies into the tracer metrics (once)."""
        if self.tracer is not None and record is not None and not self._ingested:
            self.tracer.metrics.ingest_record(record)
            self._ingested = True

    def print_profile(self) -> None:
        if self.profiler is None:
            return
        summary = self.profiler.as_dict()
        print(
            f"profile: {summary['samples']} samples at "
            f"{summary['interval_seconds'] * 1e3:.0f}ms "
            f"({summary['idle_samples']} idle)"
        )
        for name, seconds in self.profiler.hotspots(limit=8):
            cum = summary["spans"][name]["cum_seconds"]
            print(f"  {name:<32} self {seconds:7.3f}s  cum {cum:7.3f}s")
        for name, entry in summary.get("memory", {}).items():
            print(
                f"  {name:<32} alloc {entry['alloc_delta_kb']:+.0f}kB"
                + (
                    f"  peak {entry['peak_kb']:.0f}kB"
                    if entry.get("peak_kb")
                    else ""
                )
            )

    def append_ledger(
        self,
        kind: str,
        *,
        graph=None,
        graph_label=None,
        params=None,
        options=None,
        result=None,
        wall_seconds=None,
        algorithm=None,
        extra=None,
    ) -> None:
        if not self.ledger_path:
            return
        from .obs.ledger import RunLedger, record_from_run

        record = record_from_run(
            kind,
            graph=graph,
            graph_label=graph_label,
            params=params,
            options=options,
            result=result,
            tracer=self.tracer,
            profiler=self.profiler,
            wall_seconds=wall_seconds,
            algorithm=algorithm,
            extra=extra,
        )
        sealed = RunLedger(self.ledger_path).append(record)
        print(
            f"ledger: appended {kind} record seq={sealed['seq']} "
            f"(workload {sealed['workload_key']}, options "
            f"{sealed['options_key']}) to {self.ledger_path}"
        )


def _export_trace(args: argparse.Namespace, tracer: Tracer, title: str) -> None:
    write_trace(args.trace, tracer, args.trace_format, title=title)
    print(f"wrote {args.trace_format} trace to {args.trace}")


def _add_checkpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="snapshot durable run state under DIR at every phase barrier "
        "(crash-safe: atomic writes, checksummed manifest)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="also snapshot mid-phase every N tasks (finer-grained crash "
        "recovery at the cost of more checkpoint writes)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the latest valid checkpoint in --checkpoint-dir; "
        "refuses to run if the directory records a different graph, "
        "parameters or algorithm",
    )


def _add_sketch_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel",
        choices=sorted(KERNELS),
        default=None,
        help="similarity kernel override; 'sketch' enables the Bloom+KMV "
        "pre-pass with exact fallback on uncertain arcs",
    )
    parser.add_argument(
        "--sketch-bits",
        type=int,
        default=256,
        metavar="BITS",
        help="Bloom filter bits per vertex (power of two; --kernel sketch)",
    )
    parser.add_argument(
        "--sketch-error",
        type=float,
        default=0.0,
        metavar="EPS",
        help="per-arc misclassification tolerance; 0 keeps the sketch "
        "pass conservative and the clustering bit-identical "
        "(--kernel sketch)",
    )
    parser.add_argument(
        "--sketch-gate",
        type=int,
        default=None,
        metavar="DEG",
        help="min endpoint degree for an arc to be sketch-classified; "
        "cheaper arcs go straight to the exact kernel (default: "
        "8 x bloom words; 0 sketches everything)",
    )


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist the cross-run similarity store under DIR; a later "
        "run on the same graph reuses its exact overlaps",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the similarity store entirely",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scan",
        description="ppSCAN reproduction: graph structural clustering",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser("cluster", help="cluster a graph file")
    p_cluster.add_argument("graph", help="edge-list (.txt) or CSR (.bin) file")
    p_cluster.add_argument("--eps", type=float, default=0.5)
    p_cluster.add_argument("--mu", type=int, default=2)
    p_cluster.add_argument(
        "--algorithm",
        choices=sorted(api.available_algorithms()),
        default="ppscan",
    )
    p_cluster.add_argument(
        "--workers",
        type=int,
        default=0,
        help="process-backend workers (0 = serial; ppscan/scanxp/anyscan only)",
    )
    p_cluster.add_argument(
        "--exec-mode",
        choices=list(EXEC_MODES),
        default="scalar",
        help="arc-resolution policy: per-arc scalar kernels or batched "
        "vectorized resolution (ppscan/scanxp)",
    )
    _add_sketch_args(p_cluster)
    p_cluster.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="retry budget per task under the supervised process backend",
    )
    p_cluster.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task deadline (scaled by modelled task cost); a task "
        "over deadline is killed and retried",
    )
    p_cluster.add_argument(
        "--chaos-plan",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection: a JSON plan file or a "
        "compact spec like 'seed=42,tasks=16,kill=2'",
    )
    p_cluster.add_argument(
        "--show-clusters", action="store_true", help="print cluster members"
    )
    p_cluster.add_argument(
        "--save", default=None, help="save the clustering to an .npz file"
    )
    _add_cache_args(p_cluster)
    _add_checkpoint_args(p_cluster)
    _add_trace_args(p_cluster)
    _add_obs_args(p_cluster)
    p_cluster.add_argument(
        "--sim-trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace of the *simulated* per-worker schedule "
        "(machine-model replay of the run's stages)",
    )
    p_cluster.add_argument(
        "--sim-threads",
        type=int,
        default=16,
        help="thread count for the simulated schedule",
    )
    p_cluster.add_argument(
        "--sim-machine",
        choices=("cpu", "knl"),
        default="cpu",
        help="machine model pricing the simulated schedule",
    )

    p_compare = sub.add_parser(
        "compare", help="run all algorithms and verify they agree"
    )
    p_compare.add_argument("graph")
    p_compare.add_argument("--eps", type=float, default=0.5)
    p_compare.add_argument("--mu", type=int, default=2)
    _add_sketch_args(p_compare)
    p_compare.add_argument(
        "--csv", default=None, help="also write the comparison table as CSV"
    )
    _add_cache_args(p_compare)
    _add_checkpoint_args(p_compare)
    _add_trace_args(p_compare)
    _add_obs_args(p_compare)

    p_sweep = sub.add_parser("sweep", help="cluster over an (eps, mu) grid")
    p_sweep.add_argument("graph")
    p_sweep.add_argument(
        "--eps",
        default="0.2,0.4,0.6,0.8",
        help="comma-separated eps values",
    )
    p_sweep.add_argument(
        "--mu", default="2,5", help="comma-separated mu values"
    )
    p_sweep.add_argument(
        "--algorithm",
        choices=sorted(api.available_algorithms()),
        default="ppscan",
    )
    p_sweep.add_argument(
        "--csv", default=None, help="also write the grid as CSV"
    )
    _add_cache_args(p_sweep)
    _add_checkpoint_args(p_sweep)
    _add_trace_args(p_sweep)
    _add_obs_args(p_sweep)

    p_stream = sub.add_parser(
        "stream",
        help="apply an edit script in batches, serving warm (eps, mu) "
        "queries between batches",
    )
    p_stream.add_argument("graph", help="edge-list (.txt) or CSR (.bin) file")
    p_stream.add_argument(
        "script",
        help="edit-script file ('+ u v' / '- u v' lines grouped by "
        "'batch' lines; see docs/streaming.md)",
    )
    p_stream.add_argument(
        "--eps",
        default="0.5",
        help="comma-separated eps values to keep materialized",
    )
    p_stream.add_argument(
        "--mu", default="2", help="comma-separated mu values"
    )
    p_stream.add_argument(
        "--verify",
        action="store_true",
        help="after every batch, rebuild a from-scratch GS*-Index and "
        "assert the streamed clustering is bit-identical (slow; the "
        "differential harness the tests and CI gate run)",
    )
    p_stream.add_argument(
        "--csv", default=None, help="also write one row per batch as CSV"
    )
    _add_cache_args(p_stream)
    _add_trace_args(p_stream)
    _add_obs_args(p_stream)

    p_stats = sub.add_parser("stats", help="print graph statistics")
    p_stats.add_argument("graph")

    p_validate = sub.add_parser(
        "validate",
        help="validate a graph file (format, ids, CSR structure)",
    )
    p_validate.add_argument("graph")

    p_gen = sub.add_parser("generate", help="write a synthetic graph")
    p_gen.add_argument(
        "kind",
        choices=sorted(REAL_WORLD_STANDINS) + ["roll"],
        help="stand-in name or 'roll'",
    )
    p_gen.add_argument("output", help="output edge-list path")
    p_gen.add_argument("--scale", type=float, default=1.0)
    p_gen.add_argument("--avg-degree", type=int, default=40, help="roll only")
    p_gen.add_argument("--vertices", type=int, default=50000, help="roll only")
    p_gen.add_argument("--seed", type=int, default=42)

    p_bench = sub.add_parser("bench", help="run a paper experiment")
    p_bench.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"])
    p_bench.add_argument("--scale", type=float, default=None)
    p_bench.add_argument(
        "--out", default=None, help="directory to write result tables into"
    )
    _add_trace_args(p_bench)

    p_serve = sub.add_parser(
        "serve",
        help="start the always-on clustering service (HTTP)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="TCP port (0 picks an ephemeral port and prints it)",
    )
    p_serve.add_argument(
        "--graph",
        action="append",
        default=[],
        metavar="PATH",
        dest="preload",
        help="pre-load and index this graph file at startup (repeatable)",
    )
    p_serve.add_argument(
        "--max-graphs",
        type=int,
        default=8,
        help="LRU registry capacity: resident graph count cap",
    )
    p_serve.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help="LRU registry capacity: resident byte budget (graph + index "
        "+ memoized results); idle graphs age out past it",
    )
    p_serve.add_argument(
        "--max-concurrent-queries",
        type=int,
        default=4,
        help="admission limit on simultaneous heavy operations; beyond "
        "it the service answers 429 with Retry-After",
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist the shared similarity store under DIR",
    )
    p_serve.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="append one service record per query batch to the run "
        "ledger at PATH",
    )
    p_serve.add_argument(
        "--wal-dir",
        default=None,
        metavar="DIR",
        help="make the service durable: write-ahead-log every submission "
        "and edit batch under DIR before acknowledging, replay it on "
        "startup (see docs/service.md)",
    )
    p_serve.add_argument(
        "--snapshot-every",
        type=int,
        default=64,
        metavar="N",
        help="compact the WAL into a snapshot after N appends "
        "(default 64; requires --wal-dir)",
    )
    p_serve.add_argument(
        "--max-request-seconds",
        type=float,
        default=120.0,
        metavar="S",
        help="server-side ceiling on any per-request timeout= parameter; "
        "past it the request gets a structured 504 while the work "
        "continues (default 120)",
    )
    p_serve.add_argument(
        "--idle-timeout",
        type=float,
        default=60.0,
        metavar="S",
        help="close a keep-alive connection after S seconds with no "
        "request bytes (slow-loris defense; 0 disables, default 60)",
    )
    p_serve.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        metavar="S",
        help="on SIGTERM/SIGINT, wait up to S seconds for in-flight "
        "requests before force-closing (default 10)",
    )

    p_verify = sub.add_parser(
        "verify", help="verify a saved clustering against a graph"
    )
    p_verify.add_argument("graph")
    p_verify.add_argument("clustering", help=".npz file from cluster --save")

    p_profile = sub.add_parser(
        "profile", help="similarity/pruning profile of a graph"
    )
    p_profile.add_argument("graph")
    p_profile.add_argument("--mu", type=int, default=5)
    p_profile.add_argument(
        "--eps", default="0.2,0.4,0.6,0.8", help="comma-separated eps values"
    )

    p_history = sub.add_parser(
        "history", help="list the records of a run ledger"
    )
    p_history.add_argument(
        "ledger", help="ledger directory or .jsonl file (see --ledger)"
    )
    p_history.add_argument(
        "--kind",
        default=None,
        help="only records of this kind (cluster/compare/sweep/bench/smoke)",
    )
    p_history.add_argument(
        "--workload-key", default=None, help="only this workload fingerprint"
    )
    p_history.add_argument(
        "--options-key", default=None, help="only this options fingerprint"
    )
    p_history.add_argument(
        "--limit", type=int, default=None, help="only the last N records"
    )
    p_history.add_argument(
        "--json", action="store_true", help="dump matching records as JSON"
    )

    p_report = sub.add_parser(
        "report",
        help="trend report over a run ledger (median/MAD per workload)",
    )
    p_report.add_argument(
        "ledger", help="ledger directory or .jsonl file (see --ledger)"
    )
    p_report.add_argument(
        "--openmetrics",
        default=None,
        metavar="PATH",
        help="also export the latest record's metrics as an OpenMetrics "
        "textfile at PATH",
    )
    p_report.add_argument(
        "--json", action="store_true", help="dump the report as JSON"
    )

    return parser


def _cmd_cluster(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    _print_fingerprint(graph)
    params = ScanParams(eps=args.eps, mu=args.mu)
    spec = api.get_algorithm(args.algorithm)
    options = _execution_options(args)
    _report_ignored(spec, options)
    obs = _ObsSession(args)
    tracer = obs.tracer
    try:
        with obs.activate():
            result = api.cluster(
                graph, params, algorithm=args.algorithm, options=options
            )
    except ExecutionFaultError as exc:
        _print_fault_report(exc)
        if tracer is not None and args.trace:
            _export_trace(args, tracer, title=f"{args.algorithm} (faulted)")
        return EXIT_EXECUTION_FAULT
    except ResumeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESUME_MISMATCH
    print(result.summary())
    classified = result.classify(graph)
    print(
        f"cores={int(np.count_nonzero(classified == CORE))}, "
        f"hubs={int(np.count_nonzero(classified == HUB))}, "
        f"outliers={int(np.count_nonzero(classified == OUTLIER))}"
    )
    if result.record is not None:
        print(f"wall time: {result.record.wall_seconds:.3f}s")
    _report_cache(options.cache)
    if args.show_clusters:
        for cid, members in result.clusters().items():
            print(f"cluster {cid}: {members.tolist()}")
    if args.save:
        result.save(args.save)
        print(f"saved clustering to {args.save}")
    obs.ingest(result.record)
    obs.print_profile()
    if args.trace:
        _export_trace(
            args, tracer, title=f"{args.algorithm} on {args.graph}"
        )
    obs.append_ledger(
        "cluster",
        graph=graph,
        graph_label=args.graph,
        params=params,
        options=options,
        result=result,
        algorithm=args.algorithm,
    )
    if args.sim_trace:
        if result.record is None:
            print("note: no run record; --sim-trace skipped", file=sys.stderr)
        else:
            from .obs.export import schedule_chrome_events, write_chrome_trace
            from .parallel.machine import CPU_SERVER, KNL_SERVER
            from .parallel.trace import trace_stage

            machine = KNL_SERVER if args.sim_machine == "knl" else CPU_SERVER
            traces = [
                trace_stage(stage, machine, args.sim_threads)
                for stage in result.record.stages
                if stage.tasks
            ]
            doc = schedule_chrome_events(
                traces,
                clock_hz=machine.clock_hz,
                process_name=f"simulated {machine.name}",
            )
            write_chrome_trace(args.sim_trace, doc)
            print(
                f"wrote simulated-schedule chrome trace "
                f"({args.sim_threads} threads, {args.sim_machine}) to "
                f"{args.sim_trace}"
            )
    return 0


#: Canonical presentation order for ``compare`` (papers' baselines first).
_COMPARE_ORDER = ("scan", "pscan", "scanpp", "anyscan", "scanxp", "ppscan")


def _cmd_compare(args: argparse.Namespace) -> int:
    from .bench.reporting import format_table

    graph = load_graph(args.graph)
    _print_fingerprint(graph)
    params = ScanParams(eps=args.eps, mu=args.mu)
    names = [
        name
        for name in _COMPARE_ORDER
        if name in api.available_algorithms()
    ]
    store = _cache_store(args)
    checkpoint = _checkpoint_manager(args)
    kernel = getattr(args, "kernel", None)
    options = None
    if store is not None or checkpoint is not None or kernel is not None:
        options = ExecutionOptions(
            cache=store,
            checkpoint=checkpoint,
            kernel=Kernel(kernel) if kernel else None,
            sketch=_sketch_params(args),
        )
    probe = options or ExecutionOptions()

    def _kernel_label(spec: api.AlgorithmSpec) -> str:
        if kernel is None or "kernel" in spec.ignored_options(probe):
            return "exact"
        if kernel == "sketch":
            sk = probe.effective_sketch()
            band = "exact" if sk is None or sk.conservative else "approx"
            return f"sketch/{band}"
        return kernel

    obs = _ObsSession(args)
    tracer = obs.tracer
    try:
        with obs.activate():
            outcome = api.compare(
                graph, params, algorithms=names, options=options
            )
    except ExecutionFaultError as exc:
        _print_fault_report(exc)
        return EXIT_EXECUTION_FAULT
    except ResumeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESUME_MISMATCH
    except AssertionError as exc:
        # Only reachable when an aggressive sketch band was requested:
        # approximate legs may legitimately diverge from the exact ones.
        print(f"DISAGREE: {exc}", file=sys.stderr)
        print(
            "note: --sketch-error > 0 permits misclassified arcs; rerun "
            "with --sketch-error 0 for the bit-identical conservative band",
            file=sys.stderr,
        )
        return 1
    reference = outcome.results[outcome.reference]
    header = [
        "algorithm",
        "kernel",
        "CompSims",
        "scalar ops",
        "vector ops",
        "wall",
        "stage wall",
        "peak RSS",
    ]
    rows = []
    for name in names:
        spec = api.get_algorithm(name)
        display = spec.display_name
        record = outcome.results[name].record
        total = record.total()
        stats = outcome.leg_stats.get(name, {})
        rss_kb = stats.get("peak_rss_kb")
        rows.append(
            [
                display,
                _kernel_label(spec),
                f"{record.compsim_invocations}",
                f"{total.scalar_cmp + total.branchless_cmp}",
                f"{total.vector_ops}",
                f"{record.wall_seconds * 1e3:.1f}ms",
                f"{record.stage_wall_seconds * 1e3:.1f}ms",
                f"{rss_kb / 1024:.1f}MB" if rss_kb is not None else "-",
            ]
        )
        if tracer is not None:
            tracer.metrics.ingest_record(record, prefix=display)
    print(
        format_table(
            f"all algorithms agree on {args.graph} ({params}): "
            f"{reference.num_clusters} clusters, {reference.num_cores} cores",
            header,
            rows,
        )
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        print(f"wrote {args.csv}")
    obs.print_profile()
    if args.trace:
        _export_trace(args, tracer, title=f"compare on {args.graph}")
    obs.append_ledger(
        "compare",
        graph=graph,
        graph_label=args.graph,
        params=params,
        options=options,
        wall_seconds=sum(
            stats.get("wall_seconds", 0.0)
            for stats in outcome.leg_stats.values()
        ),
        extra={"legs": outcome.leg_stats},
    )
    _report_cache(store)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .bench.reporting import format_table
    from .sweep import SweepEngine

    graph = load_graph(args.graph)
    _print_fingerprint(graph)
    eps_values = [float(x) for x in args.eps.split(",") if x]
    mu_values = [int(x) for x in args.mu.split(",") if x]
    # Unlike cluster/compare, a sweep reuses overlaps *within* one
    # invocation, so the store is on by default; --cache-dir merely adds
    # the disk layer and --no-cache restores fully independent runs.
    engine = SweepEngine(
        graph,
        algorithm=args.algorithm,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        checkpoint=_checkpoint_manager(args),
    )
    obs = _ObsSession(args)
    tracer = obs.tracer
    import time as _time

    t0 = _time.perf_counter()
    try:
        with obs.activate():
            outcome = engine.run(eps_values, mu_values)
    except ExecutionFaultError as exc:
        _print_fault_report(exc)
        return EXIT_EXECUTION_FAULT
    except ResumeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESUME_MISMATCH
    header = ["eps", "mu", "clusters", "cores", "CompSims", "wall_ms", "reuse"]
    rows = []
    for mu in mu_values:  # presentation order: as given, not execution order
        for eps in eps_values:
            point = outcome.point(eps, mu)
            rows.append(
                [
                    f"{eps:g}",
                    f"{mu}",
                    f"{point.result.num_clusters}",
                    f"{point.result.num_cores}",
                    f"{point.result.record.compsim_invocations}",
                    f"{point.wall_seconds * 1e3:.1f}",
                    f"{point.reuse_fraction * 100:.1f}%"
                    if outcome.cached
                    else "-",
                ]
            )
    print(format_table(f"parameter sweep on {args.graph}", header, rows))
    if outcome.cached:
        stats = outcome.stats
        line = (
            f"store: {stats.hits} hits, {stats.misses} misses "
            f"({stats.reuse_fraction * 100:.1f}% reuse)"
        )
        if outcome.spilled:
            line += f"; spilled to {args.cache_dir}"
        print(line)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        print(f"wrote {args.csv}")
    obs.print_profile()
    if args.trace:
        _export_trace(args, tracer, title=f"sweep on {args.graph}")
    obs.append_ledger(
        "sweep",
        graph=graph,
        graph_label=args.graph,
        wall_seconds=_time.perf_counter() - t0,
        algorithm=args.algorithm,
        extra={
            "grid": {
                "eps": eps_values,
                "mu": mu_values,
                "points": len(eps_values) * len(mu_values),
            }
        },
    )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    import time as _time

    from .core import assert_same_clustering
    from .core.gsindex import GSIndex
    from .streaming import EditScript, StreamingEngine

    graph = load_graph(args.graph)
    _print_fingerprint(graph)
    script = EditScript.load(args.script)
    try:
        eps_values = [float(x) for x in args.eps.split(",") if x.strip()]
        mu_values = [int(x) for x in args.mu.split(",") if x.strip()]
    except ValueError as exc:
        print(f"error: malformed --eps/--mu: {exc}", file=sys.stderr)
        return 2
    points = [
        ScanParams(eps, mu) for eps in eps_values for mu in mu_values
    ]
    if not points:
        print("error: empty (eps, mu) point set", file=sys.stderr)
        return 2
    store = _cache_store(args)
    obs = _ObsSession(args)
    tracer = obs.tracer
    header = [
        "batch",
        "+",
        "-",
        "skip",
        "arcs",
        "reclustered",
        "edges",
        "ms",
    ]
    rows: list[list[str]] = []
    ledger = None
    if obs.ledger_path:
        from .obs.ledger import RunLedger

        ledger = RunLedger(obs.ledger_path)
    t0 = _time.perf_counter()
    with obs.activate():
        engine = StreamingEngine(graph, store=store, label=args.graph)
        for params in points:
            engine.query(params)
        for batch in script:
            report = engine.apply(batch)
            if args.verify:
                reference = GSIndex(engine.snapshot)
                for params in points:
                    assert_same_clustering(
                        reference.query(params), engine.query(params)
                    )
            rows.append(
                [
                    f"{report.batch}",
                    f"{report.inserted}",
                    f"{report.removed}",
                    f"{report.skipped}",
                    f"{report.arcs_repaired}",
                    f"{report.vertices_reclustered}",
                    f"{report.num_edges}",
                    f"{report.wall_seconds * 1e3:.2f}",
                ]
            )
            if ledger is not None:
                from .obs.ledger import build_record

                ledger.append(
                    build_record(
                        "stream",
                        workload={
                            "graph": args.graph,
                            "fingerprint": report.fingerprint,
                            "num_vertices": report.num_vertices,
                            "num_edges": report.num_edges,
                        },
                        algorithm="StreamingEngine",
                        wall_seconds=report.wall_seconds,
                        metrics={
                            "stream.batch": report.batch,
                            "stream.edits_applied": report.effective,
                            "stream.edits_skipped": report.skipped,
                            "stream.arcs_repaired": report.arcs_repaired,
                            "stream.reclustered": (
                                report.vertices_reclustered
                            ),
                            "stream.overlaps_carried": (
                                report.overlaps_carried
                            ),
                        },
                        extra={"points": len(points)},
                    )
                )
    wall = _time.perf_counter() - t0
    from .bench.reporting import format_table

    print(
        format_table(
            f"streamed {len(script)} batches onto {args.graph}",
            header,
            rows,
        )
    )
    summary = engine.stats()
    throughput = (
        summary["edits_applied"] / wall if wall > 0 else float("inf")
    )
    print(
        f"applied {summary['edits_applied']} edits "
        f"({summary['edits_skipped']} skipped) in {wall:.3f}s "
        f"({throughput:,.0f} edits/s); repaired "
        f"{summary['arcs_repaired']} arcs, reclustered "
        f"{summary['vertices_reclustered']} vertex-points across "
        f"{summary['points_materialized']} warm point(s)"
    )
    print(f"final fingerprint: {engine.fingerprint}")
    if args.verify:
        print(
            f"verify: all {len(script)} checkpoints bit-identical to "
            "from-scratch rebuilds"
        )
    for params in points:
        result = engine.query(params)
        print(
            f"  eps={float(params.eps):g} mu={params.mu}: "
            f"{result.num_clusters} clusters, {result.num_cores} cores"
        )
    _report_cache(store)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        print(f"wrote {args.csv}")
    obs.print_profile()
    if args.trace:
        _export_trace(args, tracer, title=f"stream on {args.graph}")
    if ledger is not None:
        print(
            f"ledger: appended {len(rows)} stream record(s) to "
            f"{obs.ledger_path}"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    _print_fingerprint(graph)
    stats = graph_stats(args.graph, graph)
    print(
        f"|V| = {stats.num_vertices:,}\n|E| = {stats.num_edges:,}\n"
        f"avg degree = {stats.average_degree:.2f}\n"
        f"max degree = {stats.max_degree:,}"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .core.validate import validate_graph
    from .graph.io import GraphFormatError

    try:
        graph = load_graph(args.graph, strict=True)
    except GraphFormatError as exc:
        print(f"INVALID: {exc}")
        return 1
    except OSError as exc:
        print(f"error: cannot read {args.graph}: {exc}", file=sys.stderr)
        return 1
    _print_fingerprint(graph)
    problems = validate_graph(graph)
    if problems:
        print(f"INVALID: {args.graph}")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"OK: {args.graph} — |V|={graph.num_vertices:,}, "
        f"|E|={graph.num_edges:,}"
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "roll":
        graph = roll_graph(args.vertices, args.avg_degree, seed=args.seed)
    else:
        graph = real_world_standin(args.kind, scale=args.scale, seed=args.seed)
    write_edge_list(graph, args.output)
    _print_fingerprint(graph)
    print(
        f"wrote {args.output}: |V|={graph.num_vertices:,}, "
        f"|E|={graph.num_edges:,}"
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    tracer = Tracer() if args.trace else None
    for name in names:
        if tracer is not None:
            with use_tracer(tracer), tracer.span(f"bench:{name}", lane=0):
                result = EXPERIMENTS[name](scale=args.scale)
        else:
            result = EXPERIMENTS[name](scale=args.scale)
        print(result.text)
        print()
        if out_dir is not None:
            (out_dir / f"{result.exp_id}.txt").write_text(result.text + "\n")
    if tracer is not None:
        _export_trace(args, tracer, title=f"bench {args.experiment}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal as _signal

    from .service import ClusteringService

    service = ClusteringService(
        cache_dir=args.cache_dir,
        max_graphs=args.max_graphs,
        memory_budget_mb=args.memory_budget_mb,
        max_concurrent_queries=args.max_concurrent_queries,
        ledger_path=args.ledger,
        wal_dir=args.wal_dir,
        snapshot_every=args.snapshot_every,
        max_request_seconds=args.max_request_seconds,
        idle_timeout_seconds=args.idle_timeout,
        drain_grace_seconds=args.drain_grace,
    )

    async def run() -> int:
        # Bind + recover before preloading: a --graph already restored
        # from the WAL dedupes to already_loaded instead of rebuilding.
        await service.start(args.host, args.port)
        report = service.recovery_report
        if report is not None and (
            report.graphs_restored
            or report.records_replayed
            or report.skipped_lines
        ):
            print(
                f"recovered {len(report.fingerprints)} graph(s) from "
                f"{args.wal_dir}: {report.records_replayed} WAL record(s) "
                f"replayed, {report.warm_points} warm point(s), "
                f"{report.wall_seconds:.2f}s"
            )
        for path in args.preload:
            graph = load_graph(path)
            # The full submission transaction: durable (WAL-logged)
            # when --wal-dir is set, deduped against recovered state.
            _, payload, _ = await service._submit_txn(graph, label=path)
            note = " (recovered)" if payload.get("already_loaded") else ""
            print(
                f"loaded {path}: fingerprint {payload['fingerprint']} "
                f"(|V|={graph.num_vertices:,}, "
                f"|E|={graph.num_edges:,}){note}"
            )
        stopping = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stopping.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        print(
            f"serving on http://{args.host}:{service.port} "
            f"(max {args.max_concurrent_queries} concurrent heavy "
            "queries; SIGTERM or Ctrl-C drains and stops)",
            flush=True,  # supervisors wait on this line to learn the port
        )
        await stopping.wait()
        print("shutting down: draining in-flight work", flush=True)
        summary = await service.drain(grace_seconds=args.drain_grace)
        if summary.get("snapshot_written"):
            print(
                f"final snapshot written "
                f"(lsn {summary['final_lsn']}, "
                f"{summary['drained_inflight']} request(s) were in flight)"
            )
        await service.stop()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - pre-loop Ctrl-C
        print("shutting down")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .core import ClusteringResult, verify_clustering
    from .core.verify import ClusteringVerificationError

    graph = load_graph(args.graph)
    _print_fingerprint(graph)
    result = ClusteringResult.load(args.clustering)
    try:
        verify_clustering(graph, result)
    except ClusteringVerificationError as exc:
        print(f"INVALID: {exc}")
        return 1
    print(
        f"OK: {args.clustering} is the exact SCAN clustering of "
        f"{args.graph} at {result.params}"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .analysis import core_ratio_curve, pruning_profile, similarity_histogram
    from .bench.reporting import format_table

    graph = load_graph(args.graph)
    _print_fingerprint(graph)
    eps_values = tuple(float(x) for x in args.eps.split(",") if x)

    counts, bins = similarity_histogram(graph, bins=10)
    print("edge similarity distribution:")
    total = max(int(counts.sum()), 1)
    for i, count in enumerate(counts):
        bar = "#" * int(40 * count / total)
        print(f"  [{bins[i]:.1f}, {bins[i + 1]:.1f}): {int(count):>8,}  {bar}")

    rows = []
    curve = core_ratio_curve(graph, eps_values, args.mu)
    for eps in eps_values:
        profile = pruning_profile(graph, ScanParams(eps, args.mu))
        rows.append(
            [
                f"{eps}",
                f"{profile.arcs_resolved_fraction:.1%}",
                f"{profile.roles_settled_fraction:.1%}",
                f"{curve[eps]:.1%}",
            ]
        )
    print()
    print(
        format_table(
            f"pruning and core profile (mu={args.mu})",
            ["eps", "arcs pruned free", "roles settled", "core fraction"],
            rows,
        )
    )
    return 0


def _ledger_summary_label(record: dict) -> str:
    workload = record.get("workload", {})
    label = workload.get("graph") or workload.get("bench") or ""
    if "eps" in workload and "mu" in workload:
        label += f" (eps={workload['eps']:g}, mu={workload['mu']})"
    return label.strip() or record.get("workload_key", "?")


def _cmd_history(args: argparse.Namespace) -> int:
    import json as _json

    from .bench.reporting import format_table
    from .obs.ledger import RunLedger

    ledger = RunLedger(args.ledger)
    records = ledger.history(
        kind=args.kind,
        workload_key=args.workload_key,
        options_key=args.options_key,
        passed_only=False,
        limit=args.limit,
    )
    if args.json:
        print(_json.dumps(records, indent=1, sort_keys=True, default=str))
        return 0
    if not records:
        print(f"no matching records in {args.ledger}")
        if ledger.last_skipped:
            print(f"({ledger.last_skipped} invalid line(s) skipped)")
        return 0
    rows = []
    for record in records:
        import datetime

        ts = datetime.datetime.fromtimestamp(
            record.get("ts_unix", 0), datetime.timezone.utc
        ).strftime("%Y-%m-%d %H:%M")
        wall = record.get("wall_seconds")
        gate = record.get("gate")
        rows.append(
            [
                str(record.get("seq", "?")),
                ts,
                record.get("kind", "?"),
                _ledger_summary_label(record),
                record.get("workload_key", "?"),
                record.get("options_key", "?"),
                f"{wall:.3f}s" if isinstance(wall, (int, float)) else "-",
                (
                    ("pass" if gate.get("passed") else "FAIL")
                    if isinstance(gate, dict)
                    else "-"
                ),
            ]
        )
    title = f"run ledger {args.ledger}: {len(records)} record(s)"
    if ledger.last_skipped:
        title += f", {ledger.last_skipped} invalid line(s) skipped"
    print(
        format_table(
            title,
            [
                "seq",
                "recorded (UTC)",
                "kind",
                "workload",
                "wkey",
                "okey",
                "wall",
                "gate",
            ],
            rows,
        )
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json as _json

    from .bench.reporting import format_table
    from .obs.ledger import RunLedger
    from .obs.regression import median_mad

    ledger = RunLedger(args.ledger)
    records = ledger.read()
    if not records:
        print(f"no records in {args.ledger}")
        return 0
    groups: dict[tuple[str, str, str], list[dict]] = {}
    for record in records:
        key = (
            record.get("kind", "?"),
            record.get("workload_key", "?"),
            record.get("options_key", "?"),
        )
        groups.setdefault(key, []).append(record)
    report = []
    for (kind, wkey, okey), members in sorted(groups.items()):
        walls = [
            r["wall_seconds"]
            for r in members
            if isinstance(r.get("wall_seconds"), (int, float))
        ]
        entry: dict = {
            "kind": kind,
            "workload_key": wkey,
            "options_key": okey,
            "workload": _ledger_summary_label(members[-1]),
            "runs": len(members),
        }
        if walls:
            med, mad = median_mad(walls)
            entry.update(
                {
                    "wall_median_seconds": med,
                    "wall_mad_seconds": mad,
                    "wall_last_seconds": walls[-1],
                }
            )
        report.append(entry)
    if args.json:
        print(_json.dumps(report, indent=1, sort_keys=True))
    else:
        rows = [
            [
                e["kind"],
                e["workload"],
                e["workload_key"],
                e["options_key"],
                str(e["runs"]),
                (
                    f"{e['wall_median_seconds']:.3f}s"
                    if "wall_median_seconds" in e
                    else "-"
                ),
                (
                    f"{e['wall_mad_seconds']:.3f}s"
                    if "wall_mad_seconds" in e
                    else "-"
                ),
                (
                    f"{e['wall_last_seconds']:.3f}s"
                    if "wall_last_seconds" in e
                    else "-"
                ),
            ]
            for e in report
        ]
        print(
            format_table(
                f"trend report over {args.ledger} "
                f"({len(records)} record(s), {len(groups)} workload(s))",
                [
                    "kind",
                    "workload",
                    "wkey",
                    "okey",
                    "runs",
                    "wall median",
                    "wall MAD",
                    "wall last",
                ],
                rows,
            )
        )
    if args.openmetrics:
        from .obs.export import write_openmetrics

        latest = records[-1]
        metrics = dict(latest.get("metrics") or {})
        if isinstance(latest.get("wall_seconds"), (int, float)):
            metrics["run.wall_seconds"] = latest["wall_seconds"]
        for stage, wall in (latest.get("stage_walls") or {}).items():
            metrics[f"stage.{stage}.wall_seconds"] = wall
        write_openmetrics(
            args.openmetrics,
            metrics,
            labels={
                "kind": latest.get("kind", "?"),
                "workload_key": latest.get("workload_key", "?"),
                "options_key": latest.get("options_key", "?"),
            },
        )
        print(f"wrote OpenMetrics textfile to {args.openmetrics}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "cluster": _cmd_cluster,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "stream": _cmd_stream,
        "stats": _cmd_stats,
        "validate": _cmd_validate,
        "generate": _cmd_generate,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
        "verify": _cmd_verify,
        "profile": _cmd_profile,
        "history": _cmd_history,
        "report": _cmd_report,
    }
    from .graph.io import GraphFormatError

    try:
        return handlers[args.command](args)
    except GraphFormatError as exc:
        # A malformed input file is a usage error, not a crash: one line
        # naming path:line, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
