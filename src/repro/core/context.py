"""Shared mutable run state for the SCAN-family algorithms.

Materializes the graph's CSR arrays, the reverse-arc index (pSCAN's
similarity-reuse target, computed for the whole graph in one pass instead
of per-edge binary searches), the per-arc similarity thresholds, and the
:class:`~repro.similarity.SimilarityEngine` whose ``exec_mode`` policy
decides how arc blocks are resolved.  With a similarity store attached,
the reverse index and the thresholds come from the store's entry for the
graph, so the points of a sweep build each of them once.

ppSCAN and SCAN-XP keep their state in NumPy arrays and hand arc blocks
to the engine.  The list-based algorithms (pSCAN, anySCAN, SCAN, SCAN++,
the BSP variant) run their data-dependent inner loops on plain Python
lists — the fastest representation for early-terminating per-arc loops on
this substrate (ndarray scalar access in tight loops is several times
slower than list access) — so every list view is a ``cached_property``
built on first use.  :attr:`RunContext.adj` is the engine's own
adjacency-list cache, so a run never builds two copies.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ..graph.csr import CSRGraph, reverse_arc_index
from ..similarity import SimilarityEngine
from ..types import ROLE_UNKNOWN, UNKNOWN, ScanParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache import SimilarityStore

__all__ = ["RunContext", "reverse_arc_index"]


class RunContext:
    """Per-run working state shared by the phases of one algorithm."""

    def __init__(
        self,
        graph: CSRGraph,
        params: ScanParams,
        kernel: str = "vectorized",
        lanes: int = 16,
        store: "SimilarityStore | None" = None,
        exec_mode: str = "scalar",
    ) -> None:
        self.graph = graph
        self.params = params
        self.engine = SimilarityEngine(
            graph, params, kernel=kernel, lanes=lanes, store=store,
            exec_mode=exec_mode,
        )

        self.n = graph.num_vertices
        self.num_arcs = graph.num_arcs
        #: NumPy forms.
        entry = self.engine.store_entry
        self.rev_np: np.ndarray = (
            entry.reverse_arcs()
            if entry is not None
            else reverse_arc_index(graph)
        )
        self.src_np: np.ndarray = graph.arc_source()
        self.mcn_np: np.ndarray = self.engine.arc_thresholds()

    # -- lazily-materialized list views (list-based algorithms) -------------

    @cached_property
    def off(self) -> list[int]:
        return self.graph.offsets.tolist()

    @cached_property
    def dst(self) -> list[int]:
        return self.graph.dst.tolist()

    @cached_property
    def deg(self) -> list[int]:
        return self.graph.degrees.tolist()

    @property
    def adj(self) -> list[list[int]]:
        """Per-vertex adjacency lists (the engine's cache; zero-copy
        kernel input)."""
        return self.engine.adj_lists()

    @cached_property
    def rev(self) -> list[int]:
        return self.rev_np.tolist()

    @cached_property
    def mcn(self) -> list[int]:
        return self.mcn_np.tolist()

    @cached_property
    def sim(self) -> list[int]:
        """Per-arc similarity states (Definition 2.12)."""
        return [UNKNOWN] * self.num_arcs

    @cached_property
    def roles(self) -> list[int]:
        """Per-vertex roles (Definition 2.5)."""
        return [ROLE_UNKNOWN] * self.n

    # -- convenience --------------------------------------------------------

    @property
    def mu(self) -> int:
        return self.params.mu

    def compsim_arc(self, u: int, arc: int) -> bool:
        """Run the configured CompSim kernel for arc ``(u, dst[arc])``."""
        return self.engine.kernel(
            self.adj[u], self.adj[self.dst[arc]], self.mcn[arc]
        )

    def roles_array(self) -> np.ndarray:
        return np.array(self.roles, dtype=np.int8)

    def sim_array(self) -> np.ndarray:
        return np.array(self.sim, dtype=np.int8)
