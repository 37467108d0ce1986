"""Mutable adjacency structure for dynamic-graph workloads.

The static :class:`~repro.graph.csr.CSRGraph` is what every clustering
algorithm consumes; ``DynamicGraph`` supports edge insertions/removals
(the workload of the per-arc dynamic index in
:mod:`repro.core.dynamic_index` and the streaming engine built on it)
and snapshots to CSR, which that index queries and the differential
checks re-cluster from scratch.
"""

from __future__ import annotations

import struct
import sys
from bisect import bisect_left, insort
from itertools import chain

import numpy as np

from .csr import CSRGraph, VERTEX_DTYPE

__all__ = ["DynamicGraph", "adjacency_bytes", "check_edge"]

#: CPython object sizes as allocated: a list object (with its GC
#: header), an item pointer, and an int above the cache of shared small
#: ints (every id up to ``_SMALL_INT_MAX`` is one singleton), whose
#: allocation is its size rounded up to the pointer alignment.
_LIST_BYTES = sys.getsizeof([])
_PTR_BYTES = struct.calcsize("P")
_INT_BYTES = -(-sys.getsizeof(1 << 16) // _PTR_BYTES) * _PTR_BYTES
_SMALL_INT_MAX = 256


def adjacency_bytes(graph: CSRGraph) -> int:
    """What a :class:`DynamicGraph` of ``graph`` holds in its adjacency
    lists: the outer list, one list object per vertex, one item pointer
    per stored neighbor and one int object per stored neighbor id above
    the small-int cache (each ``tolist``/edit creates its own)."""
    n = graph.num_vertices
    ints = int(np.count_nonzero(graph.dst > _SMALL_INT_MAX))
    return (
        _LIST_BYTES * (n + 1)
        + _PTR_BYTES * (n + graph.num_arcs)
        + _INT_BYTES * ints
    )


def check_edge(u: int, v: int, num_vertices: int) -> None:
    """Raise unless ``{u, v}`` can be an edge of a simple graph on
    ``num_vertices`` vertices (``IndexError`` / ``ValueError``)."""
    if not (0 <= u < num_vertices and 0 <= v < num_vertices):
        raise IndexError(
            f"vertex out of range: ({u}, {v}) with n={num_vertices}"
        )
    if u == v:
        raise ValueError("self loops are not allowed")


class DynamicGraph:
    """An undirected simple graph with sorted mutable adjacency lists.

    >>> g = DynamicGraph(3)
    >>> g.insert_edge(0, 2), g.insert_edge(2, 0)
    (True, False)
    >>> g.neighbors(2)
    [0]
    """

    def __init__(self, num_vertices: int = 0) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self._adj: list[list[int]] = [[] for _ in range(num_vertices)]
        self._num_edges = 0
        # The last snapshot, and the vertices whose lists changed since.
        self._snap: CSRGraph | None = None
        self._changed: set[int] = set()

    @classmethod
    def from_csr(cls, graph: CSRGraph) -> "DynamicGraph":
        dyn = cls(graph.num_vertices)
        dyn._adj = [graph.neighbors(u).tolist() for u in range(len(graph))]
        dyn._num_edges = graph.num_edges
        dyn._snap = graph
        return dyn

    # -- shape -----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def neighbors(self, u: int) -> list[int]:
        """Sorted neighbor list (a direct reference; do not mutate)."""
        return self._adj[u]

    @property
    def adjacency(self) -> list[list[int]]:
        """Every vertex's sorted neighbor list (direct references; do not
        mutate)."""
        return self._adj

    def memory_bytes(self) -> int:
        """What the adjacency lists hold (:func:`adjacency_bytes` of the
        current snapshot)."""
        return adjacency_bytes(self.snapshot())

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self._adj[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    # -- mutation ------------------------------------------------------------

    def add_vertex(self) -> int:
        """Append an isolated vertex; returns its id."""
        self._adj.append([])
        self._snap = None
        return len(self._adj) - 1

    def insert_edge(self, u: int, v: int) -> bool:
        """Insert undirected edge ``{u, v}``; False if it already exists."""
        check_edge(u, v, len(self._adj))
        if self.has_edge(u, v):
            return False
        insort(self._adj[u], v)
        insort(self._adj[v], u)
        self._num_edges += 1
        self._changed.update((u, v))
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove undirected edge ``{u, v}``; False if absent."""
        check_edge(u, v, len(self._adj))
        if not self.has_edge(u, v):
            return False
        self._adj[u].remove(v)
        self._adj[v].remove(u)
        self._num_edges -= 1
        self._changed.update((u, v))
        return True

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> CSRGraph:
        """Freeze the current state into a normalized CSR graph.

        The adjacency lists are sorted, unique and symmetric by
        construction, so the CSR arrays are emitted directly — byte-
        identical to :func:`~repro.graph.builders.from_edge_array` over
        the edge list (same fingerprint), without its edge-pair sort.
        This also makes the all-isolated-vertex case trivially safe
        (the old pair-list path reshaped an empty float array).

        Only the lists changed since the previous snapshot are read
        from Python; every unchanged run of vertices is one slice copy
        of the previous ``dst``.  Patching costs a few microseconds per
        changed list, so past ``n / 8`` of them one full pass is used.
        """
        adj, old, changed = self._adj, self._snap, sorted(self._changed)
        n = len(adj)
        if old is not None and not changed:
            return old
        offsets = np.zeros(n + 1, dtype=VERTEX_DTYPE)
        if old is not None and len(changed) <= n // 8:
            degrees = old.degrees.copy()
            degrees[changed] = [len(adj[u]) for u in changed]
            np.cumsum(degrees, out=offsets[1:])
            pieces, start = [], 0
            for u in changed:
                pieces.append(old.dst[old.offsets[start] : old.offsets[u]])
                pieces.append(np.array(adj[u], dtype=VERTEX_DTYPE))
                start = u + 1
            pieces.append(old.dst[old.offsets[start] :])
            dst = np.concatenate(pieces)
        else:
            if n:
                np.cumsum(
                    np.fromiter(map(len, adj), count=n, dtype=VERTEX_DTYPE),
                    out=offsets[1:],
                )
            dst = np.fromiter(
                chain.from_iterable(adj),
                count=int(offsets[-1]),
                dtype=VERTEX_DTYPE,
            )
        self._snap, self._changed = CSRGraph(offsets, dst), set()
        return self._snap
