"""The cross-run similarity store: exact overlaps memoized per graph.

What is cached
--------------
For an arc ``(u, v)`` the *closed-neighborhood overlap*
``|N[u] ∩ N[v]| = |N(u) ∩ N(v)| + 2`` is an integer property of the
graph alone.  Every (ε, µ) similarity decision derives from it exactly:
with ``ε = p/q``, the arc is similar iff

    ``overlap² · q²  >=  p² · (d(u)+1) · (d(v)+1)``

which is precisely the integer comparison :mod:`repro.similarity.threshold`
performs (``overlap >= min_cn``).  Caching the overlap therefore answers
*every* parameter setting bit-identically — no floats, no drift.

Coverage, not completeness
--------------------------
Pruning-based runs (pSCAN/ppSCAN) only resolve the arcs their bounds
could not decide, so an entry carries a per-arc **coverage bitmap**
alongside the overlap array.  Partial coverage still pays: a later run
(or a later grid point in a sweep) folds every covered arc without
intersecting and computes only the remainder.  Trivially-pruned arcs
(threshold ≤ 2, or decided by the degree bound) are *not* recorded —
their exact overlap was never computed — mirroring the uncounted
convention of the scalar algorithms.

Keying and the disk layer
-------------------------
Entries are keyed by :func:`graph_fingerprint`, a content hash of the
CSR arrays, so any structural edit (see :mod:`repro.graph.dynamic`)
keys to a fresh entry and stale state can never leak across graphs.
With a ``cache_dir`` the store persists entries as an ``.npz``
(overlap + packed coverage bits) next to a JSON sidecar carrying the
version stamp and fingerprint; any mismatch or corruption on load is a
*clean miss* — the entry is rebuilt, never trusted.

Process-backend safety
----------------------
Entries record the owning pid at construction; :meth:`StoreEntry.record`
is a no-op in any other process.  Forked workers (including ones a
chaos plan later kills or quarantines) therefore can never commit
overlaps into the parent's store — results flow back only through the
supervised phase-barrier commit, same as arc states.

Thread safety
-------------
The clustering service resolves queries for several graphs at once on a
thread pool, all sharing one store.  Entry creation
(:meth:`SimilarityStore.entry_for`), overlap commits
(:meth:`StoreEntry.record` / :meth:`record_one`) and :meth:`spill` are
therefore lock-guarded: concurrent readers resolving overlapping arc
sets commit the same exact values at most once each and can never
observe a torn overlap/coverage pair.  The guarded sections are memo
writes, not the similarity computations themselves, so contention stays
off the hot path.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
import zipfile
import zlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from ..graph.csr import CSRGraph, reverse_arc_index
from ..obs.tracer import current_tracer

__all__ = [
    "STORE_VERSION",
    "CacheStats",
    "SimilarityStore",
    "StoreEntry",
    "graph_fingerprint",
]

#: How many ε values' threshold arrays one entry keeps (a sweep grid's ε
#: axis fits; older values are dropped first).
THRESHOLD_MEMO = 8

#: On-disk format version; bumped whenever the npz/sidecar layout changes.
#: A persisted entry with any other version is rejected as a clean miss.
STORE_VERSION = 1


def graph_fingerprint(graph: "CSRGraph") -> str:
    """Content hash of a CSR graph (hex, 160 bits).

    Hashes the vertex count plus the raw bytes of the ``offsets`` and
    ``dst`` arrays, so two graphs share a fingerprint iff their CSR
    representations are byte-identical.  Any mutation routed through
    :class:`~repro.graph.dynamic.DynamicGraph` yields a new fingerprint.
    """
    h = hashlib.blake2b(digest_size=20)
    h.update(np.int64(graph.num_vertices).tobytes())
    h.update(np.ascontiguousarray(graph.offsets).tobytes())
    h.update(np.ascontiguousarray(graph.dst).tobytes())
    return h.hexdigest()


class StoreEntry:
    """Per-graph overlap memo: one int64 overlap + one coverage bit per arc.

    ``hits`` / ``misses`` are plain ints charged by the consumers
    (:class:`~repro.similarity.engine.SimilarityEngine`, GS*-Index
    construction); the api facade diffs them around a run to emit the
    ``cache.hit`` / ``cache.miss`` counters, so the hot paths never touch
    the tracer.
    """

    __slots__ = (
        "graph",
        "fingerprint",
        "num_arcs",
        "overlap",
        "coverage",
        "hits",
        "misses",
        "dirty",
        "_owner_pid",
        "_rev",
        "_thresholds",
        "_lock",
    )

    def __init__(self, graph: "CSRGraph", fingerprint: str) -> None:
        self.graph = graph
        self.fingerprint = fingerprint
        self.num_arcs = graph.num_arcs
        self.overlap = np.zeros(self.num_arcs, dtype=np.int64)
        self.coverage = np.zeros(self.num_arcs, dtype=bool)
        self.hits = 0
        self.misses = 0
        self.dirty = False
        self._owner_pid = os.getpid()
        self._rev: np.ndarray | None = None
        self._thresholds: dict[tuple[int, int], np.ndarray] = {}
        self._lock = threading.Lock()

    # -- views ----------------------------------------------------------

    @property
    def covered(self) -> int:
        """Number of arcs with a recorded exact overlap."""
        return int(np.count_nonzero(self.coverage))

    @property
    def coverage_fraction(self) -> float:
        return self.covered / self.num_arcs if self.num_arcs else 0.0

    # -- derived per-graph arrays ---------------------------------------
    #
    # Runs sharing this entry (the points of a sweep, a service's queries)
    # also share these arrays instead of rebuilding them per run.  They
    # are session memoization, never spilled, and read-only so no run can
    # change what another one sees.

    def reverse_arcs(self) -> np.ndarray:
        """The graph's reverse-arc index (built once)."""
        rev = self._rev
        if rev is None:
            # Built outside the lock (it is pure); a racing duplicate
            # build computes the identical array, and publishing either
            # one via a single attribute store is safe.
            rev = reverse_arc_index(self.graph)
            rev.flags.writeable = False
            self._rev = rev
        return rev

    def thresholds(self, eps: Fraction) -> np.ndarray:
        """Per-arc ``min_cn`` thresholds at ``eps`` (memoized for the
        :data:`THRESHOLD_MEMO` most recently built ε values)."""
        key = (eps.numerator, eps.denominator)
        mcn = self._thresholds.get(key)
        if mcn is None:
            from ..similarity.bulk import min_cn_arcs

            mcn = min_cn_arcs(self.graph, eps)
            mcn.flags.writeable = False
            with self._lock:
                if len(self._thresholds) >= THRESHOLD_MEMO:
                    self._thresholds.pop(next(iter(self._thresholds)))
                self._thresholds[key] = mcn
        return mcn

    # -- writes ---------------------------------------------------------

    def record(self, arcs: np.ndarray, overlaps: np.ndarray) -> None:
        """Commit exact closed overlaps for ``arcs`` (mirrored onto the
        reverse arcs).  No-op outside the owning process."""
        if len(arcs) == 0 or os.getpid() != self._owner_pid:
            return
        arcs = np.asarray(arcs, dtype=np.int64)
        self.record_arcs(
            np.concatenate((arcs, self.reverse_arcs()[arcs])),
            np.concatenate((overlaps, overlaps)),
        )

    def record_arcs(self, arcs: np.ndarray, overlaps: np.ndarray) -> None:
        """:meth:`record` without the mirroring: the caller passes both
        arcs of every edge.  No-op outside the owning process."""
        if len(arcs) == 0 or os.getpid() != self._owner_pid:
            return
        with self._lock:
            self.overlap[arcs] = overlaps
            self.coverage[arcs] = True
            self.dirty = True

    def record_one(self, arc: int, overlap: int) -> None:
        """Scalar-path :meth:`record` (one arc + its mirror)."""
        if os.getpid() != self._owner_pid:
            return
        rev = int(self.reverse_arcs()[arc])
        with self._lock:
            self.overlap[arc] = overlap
            self.overlap[rev] = overlap
            self.coverage[arc] = True
            self.coverage[rev] = True
            self.dirty = True


@dataclass(frozen=True)
class CacheStats:
    """Aggregate store counters (summed over entries)."""

    hits: int = 0
    misses: int = 0
    spills: int = 0
    rejects: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def reuse_fraction(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0


class SimilarityStore:
    """In-memory (and optionally on-disk) map fingerprint → :class:`StoreEntry`.

    One store instance may serve many graphs and many runs; pass it via
    ``ExecutionOptions(cache=...)`` or let the CLI build one from
    ``--cache-dir``.  Thread-compatibility matches the rest of the repo:
    one store per driving process.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._entries: dict[str, StoreEntry] = {}
        self.spills = 0
        self.rejects = 0
        self._lock = threading.Lock()

    def attach_dir(self, cache_dir: str | os.PathLike | None) -> bool:
        """Late-bind a disk layer onto a memory-only store.

        The service does this when it is given a WAL directory but no
        ``--cache-dir``: overlap state spills under the WAL so recovery
        warms from disk.  A store that already has a ``cache_dir`` keeps
        it (returns ``False``) — an explicit cache location wins.
        """
        if self.cache_dir is not None or cache_dir is None:
            return False
        self.cache_dir = Path(cache_dir)
        return True

    # -- entry access ---------------------------------------------------

    def entry_for(self, graph: "CSRGraph") -> StoreEntry:
        """The (possibly disk-warmed) entry for ``graph``, creating a cold
        one on first sight of its fingerprint.

        Creation is serialized so two threads racing on the same
        fingerprint share one entry — a private duplicate would fork the
        memo and lose whichever commits landed in the loser.
        """
        fingerprint = graph_fingerprint(graph)
        entry = self._entries.get(fingerprint)
        if entry is None:
            with self._lock:
                entry = self._entries.get(fingerprint)
                if entry is None:
                    entry = self._load(graph, fingerprint)
                    if entry is None:
                        entry = StoreEntry(graph, fingerprint)
                    self._entries[fingerprint] = entry
        return entry

    def entries(self) -> list[StoreEntry]:
        return list(self._entries.values())

    def peek(self, fingerprint: str) -> StoreEntry | None:
        """The in-memory entry for ``fingerprint``, or ``None``.

        Never creates or disk-loads anything — the streaming engine uses
        it to read a superseded graph version's coverage while migrating
        overlaps forward across a batch of edits.
        """
        return self._entries.get(fingerprint)

    def discard(self, fingerprint: str) -> bool:
        """Drop the in-memory entry for ``fingerprint`` (if any).

        The disk layer is left untouched: a spilled entry for an old
        graph version stays loadable should that exact graph come back.
        Streaming workloads call this after migrating an entry forward
        so a long edit script cannot accumulate one entry per batch.
        """
        with self._lock:
            return self._entries.pop(fingerprint, None) is not None

    def stats(self) -> CacheStats:
        hits = sum(e.hits for e in self._entries.values())
        misses = sum(e.misses for e in self._entries.values())
        return CacheStats(
            hits=hits, misses=misses, spills=self.spills, rejects=self.rejects
        )

    # -- disk layer -----------------------------------------------------

    def _paths(self, fingerprint: str) -> tuple[Path, Path]:
        assert self.cache_dir is not None
        stem = f"simstore-{fingerprint[:20]}"
        return (
            self.cache_dir / f"{stem}.npz",
            self.cache_dir / f"{stem}.json",
        )

    def _reject(self, reason: str) -> None:
        self.rejects += 1
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("cache.reject", 1)
            tracer.count(f"cache.reject.{reason}", 1)

    def _load(self, graph: "CSRGraph", fingerprint: str) -> StoreEntry | None:
        """Load a persisted entry; any validation failure is a clean miss
        (returns ``None``) so a stale or corrupt file can never produce a
        wrong answer."""
        if self.cache_dir is None:
            return None
        npz_path, meta_path = self._paths(fingerprint)
        if not meta_path.exists() and not npz_path.exists():
            return None
        with current_tracer().span("cache:load", path=str(npz_path)):
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                self._reject("sidecar")
                return None
            if meta.get("version") != STORE_VERSION:
                self._reject("version")
                return None
            if meta.get("fingerprint") != fingerprint:
                self._reject("fingerprint")
                return None
            if (
                meta.get("num_vertices") != graph.num_vertices
                or meta.get("num_arcs") != graph.num_arcs
            ):
                self._reject("shape")
                return None
            try:
                with np.load(npz_path) as data:
                    overlap = np.asarray(data["overlap"], dtype=np.int64)
                    packed = np.asarray(data["coverage"], dtype=np.uint8)
            except (
                OSError,
                ValueError,
                KeyError,
                zlib.error,
                EOFError,
                zipfile.BadZipFile,
            ):
                self._reject("payload")
                return None
            if overlap.shape != (graph.num_arcs,):
                self._reject("shape")
                return None
            if packed.size * 8 < graph.num_arcs:
                self._reject("shape")
                return None
            coverage = np.unpackbits(packed, count=graph.num_arcs).astype(bool)
            entry = StoreEntry(graph, fingerprint)
            entry.overlap = overlap
            entry.coverage = coverage
            entry.dirty = False
            return entry

    def spill(self) -> int:
        """Persist every dirty entry to ``cache_dir``; returns how many
        were written.  A no-op without a disk layer.

        Writes are crash-consistent: each file goes through the shared
        temp+fsync+rename helper (:mod:`repro.checkpoint.atomic`), and the
        payload lands before the sidecar that announces it — so a spill
        interrupted at any instant leaves either the previous complete
        state or the new complete state, never a torn entry (a torn or
        orphaned sidecar is rejected as a clean miss by ``_load``).
        """
        if self.cache_dir is None:
            return 0
        from ..checkpoint.atomic import atomic_write_bytes, atomic_write_text

        written = 0
        tracer = current_tracer()
        for fingerprint, entry in list(self._entries.items()):
            if not entry.dirty:
                continue
            npz_path, meta_path = self._paths(fingerprint)
            with tracer.span("cache:spill", fingerprint=fingerprint):
                with entry._lock:
                    # Snapshot under the entry lock so a concurrent
                    # record() can't tear the overlap/coverage pair
                    # mid-serialization.
                    overlap = entry.overlap.copy()
                    packed = np.packbits(entry.coverage)
                buf = io.BytesIO()
                np.savez_compressed(buf, overlap=overlap, coverage=packed)
                atomic_write_bytes(npz_path, buf.getvalue())
                atomic_write_text(
                    meta_path,
                    json.dumps(
                        {
                            "version": STORE_VERSION,
                            "fingerprint": fingerprint,
                            "num_vertices": entry.graph.num_vertices,
                            "num_arcs": entry.num_arcs,
                            "covered": entry.covered,
                        },
                        indent=1,
                        sort_keys=True,
                    )
                    + "\n",
                )
            entry.dirty = False
            self.spills += 1
            written += 1
            if tracer.enabled:
                tracer.count("cache.spill", 1)
        return written
