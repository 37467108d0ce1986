"""Compressed-sparse-row graph representation (paper Definition 2.11).

The graph is undirected and unweighted.  Each undirected edge ``{u, v}`` is
stored twice, once in each endpoint's adjacency list, and every adjacency
list is sorted in ascending vertex order — the invariant every
set-intersection kernel in :mod:`repro.intersect` relies on.

``CSRGraph`` is immutable after construction: the offset/destination arrays
are marked non-writeable so they can be shared freely between the serial,
simulated and process execution backends without copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CSRGraph", "reverse_arc_index", "validate_graph"]

#: dtype used for vertex ids and offsets throughout the library.  int64
#: offsets allow billion-edge-scale CSR; vertex ids stay int32-compatible
#: for cache friendliness but we keep a single dtype for simplicity.
VERTEX_DTYPE = np.int64


@dataclass(frozen=True)
class CSRGraph:
    """An immutable undirected graph in CSR form with sorted neighbor lists.

    Attributes
    ----------
    offsets:
        ``int64[n + 1]``; vertex ``u``'s neighbors live in
        ``dst[offsets[u]:offsets[u + 1]]``.
    dst:
        ``int64[2m]``; concatenated, per-vertex-sorted adjacency lists.
    """

    offsets: np.ndarray
    dst: np.ndarray
    degrees: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        offsets = np.ascontiguousarray(self.offsets, dtype=VERTEX_DTYPE)
        dst = np.ascontiguousarray(self.dst, dtype=VERTEX_DTYPE)
        if offsets.ndim != 1 or dst.ndim != 1:
            raise ValueError("offsets and dst must be one-dimensional")
        if offsets.size == 0:
            raise ValueError("offsets must have at least one entry")
        if offsets[0] != 0 or offsets[-1] != dst.size:
            raise ValueError("offsets must start at 0 and end at len(dst)")
        # Compared, not subtracted: a difference of int64 offsets can
        # wrap and hide a decrease.
        if np.any(offsets[1:] < offsets[:-1]):
            raise ValueError("offsets must be non-decreasing")
        degrees = np.diff(offsets)
        for arr in (offsets, dst, degrees):
            arr.setflags(write=False)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "degrees", degrees)

    # -- basic shape ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.offsets.size - 1

    @property
    def num_edges(self) -> int:
        """Number of *undirected* edges (half the directed arc count)."""
        return self.dst.size // 2

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs stored (``2 * num_edges``)."""
        return self.dst.size

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"avg_d={self.average_degree():.2f})"
        )

    # -- neighborhood access --------------------------------------------

    def degree(self, u: int) -> int:
        return int(self.degrees[u])

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor array of ``u`` (a zero-copy view)."""
        return self.dst[self.offsets[u] : self.offsets[u + 1]]

    def neighbor_range(self, u: int) -> tuple[int, int]:
        """Half-open edge-offset range ``[off[u], off[u+1])`` of ``u``."""
        return int(self.offsets[u]), int(self.offsets[u + 1])

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        return i < nbrs.size and int(nbrs[i]) == v

    def edge_offset(self, u: int, v: int) -> int:
        """Offset ``e(u, v)`` such that ``dst[e(u, v)] == v`` (Def. 2.11).

        This is the binary search used by pSCAN's similarity-reuse step to
        locate the reverse arc.  Raises ``KeyError`` if the edge is absent.
        """
        lo, hi = self.neighbor_range(u)
        i = lo + int(np.searchsorted(self.dst[lo:hi], v))
        if i >= hi or int(self.dst[i]) != v:
            raise KeyError(f"edge ({u}, {v}) not in graph")
        return i

    # -- statistics -------------------------------------------------------

    def average_degree(self) -> float:
        n = self.num_vertices
        return float(self.dst.size) / n if n else 0.0

    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.num_vertices else 0

    # -- invariant checking ------------------------------------------------

    def validate(self) -> None:
        """Check the full CSR invariant set (:func:`validate_graph`);
        raise ``ValueError`` with the first problem found."""
        problems = validate_graph(self)
        if problems:
            raise ValueError(problems[0])

    # -- conversions --------------------------------------------------------

    def edge_list(self) -> np.ndarray:
        """Return the ``m x 2`` array of undirected edges with ``u < v``."""
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=VERTEX_DTYPE), self.degrees)
        mask = src < self.dst
        return np.column_stack([src[mask], self.dst[mask]])

    def arc_source(self) -> np.ndarray:
        """Source vertex of every stored arc (length ``num_arcs``)."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=VERTEX_DTYPE), self.degrees
        )


def validate_graph(graph: CSRGraph) -> list[str]:
    """Structural invariant check; returns problem descriptions (empty = OK).

    Construction already guarantees a monotonic offset array over
    ``dst``.  This checks the rest of what every algorithm in the repo
    assumes: destinations are in range, adjacency lists are sorted and
    duplicate-free with no self-loops, and the arc set is symmetric
    (every ``u -> v`` has its ``v -> u`` mirror).
    """
    dst = graph.dst
    n = graph.num_vertices
    if not dst.size:
        return []
    if int(dst.min()) < 0 or int(dst.max()) >= n:
        return [
            f"destination id out of range [0, {n}): "
            f"min={int(dst.min())}, max={int(dst.max())}"
        ]
    problems: list[str] = []
    src = graph.arc_source()
    loops = np.flatnonzero(src == dst)
    if loops.size:
        problems.append(
            f"{loops.size} self-loop arc(s), first at vertex "
            f"{int(src[loops[0]])}"
        )
    # Within a row each destination must exceed the one before it.
    unsorted = np.flatnonzero((src[1:] == src[:-1]) & (dst[1:] <= dst[:-1]))
    if unsorted.size:
        problems.append(
            f"adjacency of vertex {int(src[unsorted[0]])} is not strictly "
            "sorted (unsorted or duplicate neighbors)"
        )
    fwd = src * np.int64(n) + dst
    rev = dst * np.int64(n) + src
    if not np.array_equal(np.sort(fwd), np.sort(rev)):
        problems.append("arc set is not symmetric")
    return problems


def reverse_arc_index(graph: CSRGraph) -> np.ndarray:
    """``rev[i]`` = arc index of the reverse of arc ``i``.

    Arcs in natural order are sorted by ``(src, dst)``.  A stable sort by
    ``dst`` lists them by ``(dst, src)``, and since the arc set is
    symmetric its ``k``-th entry is the reverse ``(v, u)`` of the ``k``-th
    natural arc ``(u, v)``.  So the stable ``argsort`` of ``dst`` *is*
    ``rev`` (an involution, hence its own inverse permutation): one sort
    instead of one binary search per arc.  Vertex ids that fit 16 bits
    take NumPy's stable radix sort, which is linear in the arc count.
    """
    dst = graph.dst
    if graph.num_vertices <= 1 << 16:
        dst = dst.astype(np.uint16)
    return np.argsort(dst, kind="stable").astype(np.int64, copy=False)
