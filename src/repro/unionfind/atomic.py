"""Wait-free-style union-find over a flat array (Anderson & Woll, STOC'91).

ppSCAN's core clustering uses a lock-free disjoint-set whose ``union`` is a
CAS loop on the parent slots.  Our execution substrate serializes the
actual memory operations (see DESIGN.md substitution table), so the CAS
always succeeds on the first attempt here — but the *algorithmic structure*
(link-by-index with retries, path halving on find) matches the wait-free
version, and every CAS attempt is tallied so the machine model can price
the contention overhead the paper observes at high thread counts (§6.3).
"""

from __future__ import annotations

import numpy as np

__all__ = ["AtomicUnionFind"]


class AtomicUnionFind:
    """Lock-free-structured disjoint sets with CAS accounting."""

    __slots__ = ("_parent", "cas_attempts", "num_finds", "num_unions")

    def __init__(self, n: int) -> None:
        self._parent = list(range(n))
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
        return x

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

    def union_all(self, pairs) -> None:
        """:meth:`union` of each ``(x, y)`` in order, with the same links
        and tallies, in one call (a phase commit's loop without a method
        call per find)."""
        parent = self._parent
        finds = cas = unions = 0
        for x, y in pairs:
            while True:
                finds += 2
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                while parent[y] != y:
                    parent[y] = parent[parent[y]]
                    y = parent[y]
                if x == y:
                    break
                if x > y:
                    x, y = y, x
                cas += 1
                if parent[y] == y:
                    parent[y] = x
                    unions += 1
                    break
        self.num_finds += finds
        self.cas_attempts += cas
        self.num_unions += unions

    def same_set(self, x: int, y: int) -> bool:
        return self.find(x) == self.find(y)

    def component_labels(self) -> np.ndarray:
        return np.array([self.find(v) for v in range(len(self._parent))])

    def snapshot_parents(self) -> list[int]:
        """Copy of the parent array (for BSP shipping to worker processes)."""
        return list(self._parent)

    def snapshot(self) -> dict[str, np.ndarray]:
        """The full resumable state as checkpoint-ready arrays.

        Link-by-index needs no size array; the parent slots (including
        any path-halving compressions, which never change roots) are
        the whole state.
        """
        return {"parent": np.asarray(self._parent, dtype=np.int64)}

    def restore(self, state: dict[str, np.ndarray]) -> None:
        """Overwrite this forest with a :meth:`snapshot`."""
        parent = np.asarray(state["parent"], dtype=np.int64)
        if parent.shape != (len(self._parent),):
            raise ValueError("union-find snapshot shape mismatch")
        self._parent = parent.tolist()
