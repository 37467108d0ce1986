"""LRU registry of loaded graphs, keyed by CSR content fingerprint.

The service submits a graph once and serves queries against its
:class:`~repro.api.GraphHandle` forever after — but "forever" has to fit
in memory.  The registry bounds residency two ways:

* ``max_graphs`` — a hard count cap;
* ``memory_budget_bytes`` — a soft byte budget metered by
  :meth:`GraphHandle.memory_bytes` (graph arrays + index structures +
  streaming engine + memoized query results).

Eviction is least-recently-*used*: every :meth:`get` refreshes recency,
so the graphs queries keep landing on stay resident and idle ones age
out.  The most recently inserted handle is never evicted — a graph too
large for the budget still serves, it just evicts everything else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api import GraphHandle

__all__ = ["GraphRegistry"]


class GraphRegistry:
    """Fingerprint → :class:`~repro.api.GraphHandle`, LRU-bounded."""

    def __init__(
        self,
        *,
        max_graphs: int | None = 8,
        memory_budget_bytes: int | None = None,
    ) -> None:
        if max_graphs is not None and max_graphs < 1:
            raise ValueError("max_graphs must be >= 1")
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be > 0")
        self.max_graphs = max_graphs
        self.memory_budget_bytes = memory_budget_bytes
        #: dict preserves insertion order; recency = position (oldest first).
        self._handles: dict[str, "GraphHandle"] = {}
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._handles)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._handles

    def __iter__(self) -> Iterator["GraphHandle"]:
        return iter(list(self._handles.values()))

    def fingerprints(self) -> list[str]:
        """Resident fingerprints, least recently used first."""
        return list(self._handles)

    def total_bytes(self) -> int:
        return sum(h.memory_bytes() for h in self._handles.values())

    def get(self, fingerprint: str) -> "GraphHandle | None":
        """The resident handle, refreshed to most-recently-used."""
        handle = self._handles.pop(fingerprint, None)
        if handle is not None:
            self._handles[fingerprint] = handle
        return handle

    def peek(self, fingerprint: str) -> "GraphHandle | None":
        """Like :meth:`get` without refreshing recency."""
        return self._handles.get(fingerprint)

    def pop(self, fingerprint: str) -> "GraphHandle | None":
        return self._handles.pop(fingerprint, None)

    def restore(self, fingerprint: str, handle: "GraphHandle") -> None:
        """Insert without running the eviction budget.

        WAL replay uses this: the live registry's eviction decisions
        were shaped by query recency the log does not record, so replay
        must not re-derive them — it re-applies the logged ``evict`` /
        ``delete`` records instead and inserts everything else verbatim.
        """
        self._handles.pop(fingerprint, None)
        self._handles[fingerprint] = handle

    def put(
        self, fingerprint: str, handle: "GraphHandle"
    ) -> list[tuple[str, "GraphHandle"]]:
        """Insert (or refresh) ``handle``; returns the evicted pairs.

        Eviction runs after insertion so the budget decision sees the
        true resident set, and never removes the handle just inserted.
        """
        self._handles.pop(fingerprint, None)
        self._handles[fingerprint] = handle
        evicted: list[tuple[str, "GraphHandle"]] = []
        while len(self._handles) > 1 and self._over_budget():
            victim_fp = next(iter(self._handles))
            if victim_fp == fingerprint:
                break  # never evict the newest entry
            evicted.append((victim_fp, self._handles.pop(victim_fp)))
            self.evictions += 1
        return evicted

    def _over_budget(self) -> bool:
        if self.max_graphs is not None and len(self._handles) > self.max_graphs:
            return True
        return (
            self.memory_budget_bytes is not None
            and self.total_bytes() > self.memory_budget_bytes
        )

    def stats(self) -> dict:
        """JSON-able snapshot for the service's ``/stats`` endpoint."""
        return {
            "graphs": len(self._handles),
            "max_graphs": self.max_graphs,
            "memory_budget_bytes": self.memory_budget_bytes,
            "resident_bytes": self.total_bytes(),
            "evictions": self.evictions,
            "fingerprints": self.fingerprints(),
        }
