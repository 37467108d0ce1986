"""Graph preprocessing transforms and the array connectivity pass.

The pSCAN/ppSCAN code bases preprocess their inputs: vertex ids are
relabelled for locality and disconnected debris can be dropped.  These
transforms keep every algorithm's input assumptions (sorted CSR, no self
loops) intact and return the id mapping so results can be translated back.

:func:`component_labels` is the library's one array connectivity pass
(min-label hook and shortcut over edge arrays, after GBBS's
connectivity); the clustering assembly in :mod:`repro.core.result` and
:func:`largest_connected_component` both run on it.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph, VERTEX_DTYPE
from .builders import from_edge_array

__all__ = [
    "relabel_by_degree",
    "largest_connected_component",
    "subgraph",
    "connected_component_labels",
    "component_labels",
]


def relabel_by_degree(
    graph: CSRGraph, descending: bool = True
) -> tuple[CSRGraph, np.ndarray]:
    """Relabel vertices by degree; returns ``(graph, old_of_new)``.

    Descending order places hubs at low ids — the layout that maximizes
    the degree-based task scheduler's locality (hot property-array
    regions cluster at the front of the CSR arrays).  ``old_of_new[new]``
    is the original id of vertex ``new``.
    """
    degrees = graph.degrees
    order = np.argsort(-degrees if descending else degrees, kind="stable")
    new_of_old = np.empty(graph.num_vertices, dtype=VERTEX_DTYPE)
    new_of_old[order] = np.arange(graph.num_vertices, dtype=VERTEX_DTYPE)
    edges = graph.edge_list()
    remapped = new_of_old[edges]
    return (
        from_edge_array(remapped, num_vertices=graph.num_vertices),
        order.astype(VERTEX_DTYPE),
    )


def component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``labels[x]`` = smallest vertex id in ``x``'s connected component
    of the graph on ``0..n-1`` with edges ``(u[i], v[i])``.

    Min-label hook and shortcut: each round hooks the larger label of
    every edge to the smaller one (``np.minimum.at``, so a root hooks to
    its smallest neighbor label), pointer-jumps until every vertex holds
    its root, and drops the edges whose endpoints now share a label.
    Labels only ever decrease and stay inside the component, so at the
    fixpoint each component carries its smallest id.
    """
    labels = np.arange(n, dtype=VERTEX_DTYPE)
    u = np.asarray(u, dtype=VERTEX_DTYPE)
    v = np.asarray(v, dtype=VERTEX_DTYPE)
    while True:
        lu, lv = labels[u], labels[v]
        live = (lu != lv).nonzero()[0]
        if not live.size:
            return labels
        u, v, lu, lv = u[live], v[live], lu[live], lv[live]
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = labels[labels]
            if not np.count_nonzero(jumped != labels):
                break
            labels = jumped


def connected_component_labels(graph: CSRGraph) -> np.ndarray:
    """``labels[v]`` = smallest vertex id in ``v``'s connected component."""
    return component_labels(graph.num_vertices, graph.arc_source(), graph.dst)


def subgraph(
    graph: CSRGraph, vertices: np.ndarray
) -> tuple[CSRGraph, np.ndarray]:
    """Induced subgraph on ``vertices``; returns ``(graph, old_of_new)``.

    Vertices are compacted to ``0..k-1`` preserving relative order.
    """
    vertices = np.unique(np.asarray(vertices, dtype=VERTEX_DTYPE))
    keep = np.zeros(graph.num_vertices, dtype=bool)
    keep[vertices] = True
    new_of_old = np.full(graph.num_vertices, -1, dtype=VERTEX_DTYPE)
    new_of_old[vertices] = np.arange(vertices.size, dtype=VERTEX_DTYPE)
    edges = graph.edge_list()
    mask = keep[edges[:, 0]] & keep[edges[:, 1]]
    remapped = new_of_old[edges[mask]]
    return (
        from_edge_array(remapped, num_vertices=vertices.size),
        vertices,
    )


def largest_connected_component(
    graph: CSRGraph,
) -> tuple[CSRGraph, np.ndarray]:
    """The induced subgraph of the largest component, with id mapping."""
    labels = connected_component_labels(graph)
    if labels.size == 0:
        return graph, np.arange(0, dtype=VERTEX_DTYPE)
    roots, counts = np.unique(labels, return_counts=True)
    biggest = roots[np.argmax(counts)]
    return subgraph(graph, np.flatnonzero(labels == biggest))
