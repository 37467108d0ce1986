#!/usr/bin/env python3
"""End-to-end workflow on a larger graph: the production path.

A downstream user's pipeline: generate (or load) a large graph, keep its
largest connected component, relabel for locality, cluster with the fast
vectorized exact mode, classify hubs/outliers in parallel, persist the
result, and answer follow-up (ε, µ) questions from a GS*-Index without
reclustering.

Run:  python examples/large_graph_workflow.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import (
    CORE,
    HUB,
    OUTLIER,
    ClusteringResult,
    GSIndex,
    ScanParams,
    classify_peripherals,
    fast_structural_clustering,
    verify_clustering,
)
from repro.graph import graph_stats, largest_connected_component, relabel_by_degree
from repro.graph.generators import planted_partition

# 1. A ~140k-edge graph with 80 planted communities.
graph, _truth = planted_partition(
    80, block_size=100, p_in=0.35, p_out=0.0015, seed=3
)
print(graph_stats("planted-80x100", graph))

# 2. Preprocess: largest component + degree-descending relabeling.
lcc, old_ids = largest_connected_component(graph)
lcc, order = relabel_by_degree(lcc)
print(
    f"preprocessed: |V|={lcc.num_vertices:,}, |E|={lcc.num_edges:,} "
    f"(largest component, hubs first)"
)

# 3. Cluster with the fast vectorized exact mode.
params = ScanParams(eps=0.3, mu=5)
t = time.perf_counter()
result = fast_structural_clustering(lcc, params)
print(
    f"\n{result.summary()}"
    f"\nfast mode wall time: {time.perf_counter() - t:.2f}s "
    f"({result.record.compsim_invocations:,} intersections for "
    f"{lcc.num_edges:,} edges)"
)
# Independent check against the SCAN definitions (raises on any error).
verify_clustering(lcc, result)
print("verify_clustering: exact")

# 4. Hub/outlier classification as a parallel phase.
labels, record = classify_peripherals(lcc, result)
print(
    f"cores={int(np.count_nonzero(labels == CORE)):,}, "
    f"hubs={int(np.count_nonzero(labels == HUB)):,}, "
    f"outliers={int(np.count_nonzero(labels == OUTLIER)):,} "
    f"({record.stages[0].num_tasks} classification tasks)"
)

# 5. Persist and reload.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "clusters.npz"
    result.save(path)
    loaded = ClusteringResult.load(path)
    assert loaded.same_clustering(result)
    print(f"persisted + reloaded: {path.name} ({path.stat().st_size:,} B)")

# 6. Follow-up parameter questions from an index (built once).
t = time.perf_counter()
index = GSIndex(lcc)
build = time.perf_counter() - t
print(f"\nGS*-Index built in {build:.2f}s; parameter exploration:")
for eps in (0.25, 0.35, 0.5):
    for mu in (2, 8):
        t = time.perf_counter()
        q = index.query(ScanParams(eps, mu))
        print(
            f"  eps={eps}, mu={mu}: {q.num_clusters:>4} clusters, "
            f"{q.num_cores:>6,} cores   ({(time.perf_counter()-t)*1e3:.0f} ms)"
        )
