#!/usr/bin/env python3
"""Dynamic graphs: incremental index maintenance vs. reclustering.

A monitoring scenario: the network changes (edges appear and disappear)
and an analyst wants up-to-date clusters after every batch of updates.
Two strategies are compared on the same update stream:

* recluster from scratch with ppSCAN after each batch;
* maintain a DynamicGSIndex incrementally, one ``apply_batch`` per
  batch (only the overlaps of edges at a touched vertex are recomputed;
  every other overlap is carried), and query it.

Both stay exact at every checkpoint (asserted), and the batch's
frontier and the index's maintenance counter show how little work a
batch of updates really needs.

Run:  python examples/dynamic_updates.py
"""

import time

import numpy as np

from repro import ScanParams, assert_same_clustering, ppscan
from repro.core import DynamicGSIndex
from repro.graph import DynamicGraph
from repro.graph.generators import planted_partition

rng = np.random.default_rng(7)

base, _ = planted_partition(8, 40, p_in=0.4, p_out=0.01, seed=7)
dyn = DynamicGraph.from_csr(base)
params = ScanParams(eps=0.4, mu=3)

t = time.perf_counter()
index = DynamicGSIndex(dyn)
print(
    f"initial graph: |V|={dyn.num_vertices}, |E|={dyn.num_edges}; "
    f"index built in {time.perf_counter() - t:.2f}s"
)
print()

n = dyn.num_vertices
print(f"{'batch':>5}  {'updates':>7}  {'frontier':>8}  {'maint ops':>9}  "
      f"{'query':>8}  {'recluster':>9}  {'clusters':>8}")
for batch in range(5):
    edits = []
    while len(edits) < 60:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            edits.append(("+" if rng.random() < 0.55 else "-", u, v))
    index.maintenance_ops = 0
    stats = index.apply_batch(edits)

    t = time.perf_counter()
    from_index = index.query(params)
    query_time = time.perf_counter() - t

    t = time.perf_counter()
    from_scratch = ppscan(dyn.snapshot(), params)
    recluster_time = time.perf_counter() - t

    assert_same_clustering(from_scratch, from_index)
    print(
        f"{batch:>5}  {stats.effective:>7}  {len(stats.frontier):>8}  "
        f"{index.maintenance_ops:>9}  "
        f"{query_time * 1e3:>6.0f}ms  {recluster_time * 1e3:>7.0f}ms  "
        f"{from_index.num_clusters:>8}"
    )

print()
print("every checkpoint: incremental index == full recluster (exact).")
