"""Concurrent reads beside streaming updates on one :class:`GraphHandle`.

Reader threads make cold and warm ``cluster`` and ``vertex`` calls, and
read the memoized label text and vertex views the service serves from,
while one writer applies edit batches.  Every answer a reader gets must be the
exact clustering of one graph the writer published, no call may raise,
and the handle must end consistent: its fingerprint is its graph's and
every memoized point is a fresh index query on that graph.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time

import pytest

from repro import api
from repro.bench.datasets import standin
from repro.cache import graph_fingerprint
from repro.core import GSIndex
from repro.streaming import random_edit_script
from repro.types import ScanParams, role_name

POOL = [
    ScanParams(eps, mu)
    for eps in (0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55)
    for mu in (2, 3, 5)
]


def _key(params: ScanParams) -> tuple:
    return (params.eps_fraction, params.mu)


class _Reference:
    """Exact answers on every published graph, computed on demand."""

    def __init__(self, graphs) -> None:
        self.indexes = [GSIndex(g) for g in graphs]
        self._results: dict = {}
        self._views: dict = {}

    def result(self, i: int, params: ScanParams):
        key = (i, _key(params))
        if key not in self._results:
            self._results[key] = self.indexes[i].query(params)
        return self._results[key]

    def view(self, i: int, params: ScanParams):
        key = (i, _key(params))
        if key not in self._views:
            result = self.result(i, params)
            graph = self.indexes[i].graph
            self._views[key] = (result.classify(graph), *result.memberships)
        return self._views[key]

    def matches_result(self, params: ScanParams, result) -> bool:
        return any(
            self.result(i, params).same_clustering(result)
            for i in range(len(self.indexes))
        )

    def matches_view(self, params: ScanParams, view) -> bool:
        for i in range(len(self.indexes)):
            classified, offsets, ids = self.view(i, params)
            v = view.vertex
            if (
                role_name(int(classified[v])).lower() == view.role
                and tuple(ids[offsets[v] : offsets[v + 1]]) == view.clusters
            ):
                return True
        return False


@pytest.mark.parametrize("seed", [7, 8])
def test_reads_beside_updates_see_one_published_graph(seed):
    graph = standin("twitter", 0.25)
    handle = api.open(graph)
    handle.ensure_index()
    script = list(random_edit_script(graph, seed=seed, batches=12, batch_size=16))
    published = [graph]
    # Distinct answers only: a warm hit returns the same result object.
    results: dict = {}
    labels: dict = {}
    views: set = set()
    errors: list = []
    done = threading.Event()

    def reader(reader_id: int) -> None:
        rng = random.Random(seed * 10 + reader_id)
        n = graph.num_vertices
        while not done.is_set():
            params = rng.choice(POOL)
            try:
                if rng.random() < 0.5:
                    result = handle.cluster(params)
                    results[id(result)] = (params, result)
                    labels[id(result)] = handle.encoded_labels(result)
                else:
                    v = rng.randrange(n)
                    view = handle.lookup_vertex(v, params)
                    views.add((params, view or handle.vertex(v, params)))
            except Exception as exc:  # noqa: BLE001 - every failure counts
                errors.append(exc)
                return
            time.sleep(0.004)

    def writer() -> None:
        try:
            for batch in script:
                time.sleep(0.005)  # let the readers in between batches
                handle.apply_updates(batch)
                published.append(handle.graph)
        except Exception as exc:  # noqa: BLE001 - every failure counts
            errors.append(exc)
        finally:
            done.set()

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave the threads more finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    assert len(published) == len(script) + 1
    assert handle.batches_applied == len(script)
    assert results and views
    reference = _Reference(published)
    for key, (params, result) in results.items():
        assert reference.matches_result(params, result), params
        texts = labels[key]
        assert json.loads(texts["roles"]) == result.roles.tolist()
        assert json.loads(texts["core_labels"]) == result.core_labels.tolist()
        assert json.loads(texts["noncore_pairs"]) == result.noncore_pairs.tolist()
    for params, view in views:
        assert reference.matches_view(params, view), (params, view)

    assert handle.fingerprint == graph_fingerprint(handle.graph)
    final = GSIndex(handle.graph)
    points = handle.materialized_points()
    assert points
    for num, den, mu in points:
        params = ScanParams(num / den, mu)
        assert handle.lookup(params).same_clustering(final.query(params))
