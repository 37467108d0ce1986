"""Wait-free-style union-find over a flat array (Anderson & Woll, STOC'91).

ppSCAN's core clustering uses a lock-free disjoint-set whose ``union`` is a
CAS loop on the parent slots.  Our execution substrate serializes the
actual memory operations (see DESIGN.md substitution table), so the CAS
always succeeds on the first attempt here — but the *algorithmic structure*
(link-by-index with retries, path halving on find) matches the wait-free
version, and every CAS attempt is tallied so the machine model can price
the contention overhead the paper observes at high thread counts (§6.3).

The parent slots are one int64 array.  The clustering phases never call
``find`` per pair or per core: they use the two counted array operations
:meth:`AtomicUnionFind.roots` and :meth:`AtomicUnionFind.union_all`,
whose roots and tallies equal a loop of ``find``/``union`` calls.  The
scalar ``find``/``union``/``same_set`` remain the reference they are
tested against.
"""

from __future__ import annotations

import numpy as np

from ..graph.transform import component_labels

__all__ = ["AtomicUnionFind"]


class AtomicUnionFind:
    """Lock-free-structured disjoint sets with CAS accounting.

    Link-by-index links the higher root under the lower, so every set's
    root is its smallest element.
    """

    __slots__ = ("_parent", "cas_attempts", "num_finds", "num_unions")

    def __init__(self, n: int) -> None:
        self._parent = np.arange(n, dtype=np.int64)
        self.cas_attempts = 0
        self.num_finds = 0
        self.num_unions = 0

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, x: int) -> int:
        parent = self._parent
        self.num_finds += 1
        while parent[x] != x:
            # Path halving: a benign-race write in the wait-free original.
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    def union(self, x: int, y: int) -> bool:
        """Link-by-index union via a CAS loop: the higher root is linked
        under the lower, retrying from fresh roots after a lost race."""
        parent = self._parent
        while True:
            rx, ry = self.find(x), self.find(y)
            if rx == ry:
                return False
            if rx > ry:
                rx, ry = ry, rx
            # CAS(&parent[ry], ry, rx) — always succeeds in the serialized
            # substrate, but is re-checked exactly like the wait-free code.
            self.cas_attempts += 1
            if parent[ry] == ry:
                parent[ry] = rx
                self.num_unions += 1
                return True
            x, y = rx, ry

    def roots(self, xs) -> np.ndarray:
        """The root of each element of ``xs``, charged one find apiece.

        Walks only the paths from ``xs`` (never the whole forest) and
        points each queried slot at its root, a compression that never
        changes a root.
        """
        xs = np.asarray(xs, dtype=np.int64)
        if not xs.size:
            return xs
        self.num_finds += xs.size
        parent = self._parent
        r = parent[xs]
        live = (parent[r] != r).nonzero()[0]
        while live.size:
            r[live] = parent[r[live]]
            live = live[parent[r[live]] != r[live]]
        parent[xs] = r
        return r

    def union_all(self, u, v) -> None:
        """:meth:`union` of each pair ``(u[i], v[i])``, with the same roots
        and tallies, in array passes costing O(P log P) in the P pairs.

        The pair endpoints' roots are compacted to their distinct values
        and hooked by :func:`~repro.graph.transform.component_labels`,
        which gives each merged set its smallest old root, the root a
        sequence of link-by-index unions leaves.  Each pair charges two
        finds; each old root that gets linked charges one CAS attempt and
        one union, as the uncontended CAS loop does.
        """
        ends = self.roots(np.concatenate((u, v))).reshape(2, -1)
        ends = ends[:, (ends[0] != ends[1]).nonzero()[0]]
        if not ends.size:
            return
        old, ends = np.unique(ends.ravel(), return_inverse=True)
        half = ends.size // 2
        hook = component_labels(old.size, ends[:half], ends[half:])
        linked = (hook != np.arange(old.size)).nonzero()[0]
        self._parent[old[linked]] = old[hook[linked]]
        self.cas_attempts += int(linked.size)
        self.num_unions += int(linked.size)

    def same_set(self, x: int, y: int) -> bool:
        return self.find(x) == self.find(y)

    def component_labels(self) -> np.ndarray:
        return self.roots(np.arange(len(self._parent)))

    def snapshot_parents(self) -> list[int]:
        """Copy of the parent array (for BSP shipping to worker processes)."""
        return self._parent.tolist()

    def snapshot(self) -> dict[str, np.ndarray]:
        """The full resumable state as checkpoint-ready arrays.

        Link-by-index needs no size array; the parent slots (including
        any compressions, which never change roots) are the whole state.
        The array is a copy, so later unions do not reach the snapshot.
        """
        return {"parent": self._parent.copy()}

    def restore(self, state: dict[str, np.ndarray]) -> None:
        """Overwrite this forest with a :meth:`snapshot` (also one taken
        when the parents were a list and compressed only by halving: any
        forest with the same roots answers identically)."""
        parent = np.array(state["parent"], dtype=np.int64)
        if parent.shape != (len(self._parent),):
            raise ValueError("union-find snapshot shape mismatch")
        self._parent = parent
