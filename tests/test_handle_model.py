"""Generated interleavings of reads and updates on one :class:`GraphHandle`.

A Hypothesis state machine drives one in-process handle over a small
graph (at most 30 vertices) with cold and warm ``cluster`` calls,
``lookup``, ``vertex`` and ``apply_updates`` batches that are valid,
no-ops, invalid (out-of-range vertex, self-loop) or made to fail inside
the engine after the graph has mutated.  A plain edge set is the model:
every answer is checked against ``brute_force_scan`` on it, and after
every step the handle's graph and fingerprint must be the model's.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import api
from repro.cache import SimilarityStore, graph_fingerprint
from repro.core import assert_same_clustering, brute_force_scan, dynamic_index
from repro.graph import from_edges
from repro.types import ScanParams, role_name

POINTS = st.sampled_from(
    [ScanParams(eps, mu) for eps in (0.3, 0.5, 0.7) for mu in (2, 3)]
)


def _edge(u: int, v: int) -> tuple[int, int]:
    return (min(u, v), max(u, v))


class HandleMachine(RuleBasedStateMachine):
    handle = None

    @initialize(
        n=st.integers(3, 30),
        data=st.data(),
        with_store=st.booleans(),
    )
    def open_handle(self, n, data, with_store):
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=4 * n,
            )
        )
        self.n = n
        self.edges = {_edge(u, v) for u, v in pairs if u != v}
        store = SimilarityStore() if with_store else None
        self.handle = api.open(self.model(), store=store)

    def model(self):
        return from_edges(sorted(self.edges), num_vertices=self.n)

    def pair(self, data) -> tuple[int, int]:
        u = data.draw(st.integers(0, self.n - 1))
        v = data.draw(st.integers(0, self.n - 1).filter(lambda x: x != u))
        return u, v

    # -- reads -------------------------------------------------------------

    @rule(params=POINTS)
    def cluster(self, params):
        result = self.handle.cluster(params)
        assert_same_clustering(result, brute_force_scan(self.model(), params))
        assert self.handle.cluster(params) is result  # now warm

    @rule(params=POINTS)
    def lookup(self, params):
        result = self.handle.lookup(params)
        if result is not None:
            assert_same_clustering(
                result, brute_force_scan(self.model(), params)
            )

    @rule(params=POINTS, data=st.data())
    def vertex(self, params, data):
        v = data.draw(st.integers(0, self.n - 1))
        view = self.handle.vertex(v, params)
        graph = self.model()
        expected = brute_force_scan(graph, params)
        assert view.role == role_name(int(expected.classify(graph)[v])).lower()
        assert view.clusters == tuple(sorted(expected.membership()[v]))

    # -- updates -----------------------------------------------------------

    @rule(data=st.data())
    def apply_valid(self, data):
        ops = [
            (data.draw(st.booleans()), *self.pair(data))
            for _ in range(data.draw(st.integers(1, 8)))
        ]
        report = self.handle.apply_updates(
            [("+" if insert else "-", u, v) for insert, u, v in ops]
        )
        inserted = removed = 0
        for insert, u, v in ops:
            edge = _edge(u, v)
            if insert and edge not in self.edges:
                self.edges.add(edge)
                inserted += 1
            elif not insert and edge in self.edges:
                self.edges.remove(edge)
                removed += 1
        assert (report.inserted, report.removed) == (inserted, removed)
        assert report.skipped == len(ops) - inserted - removed

    @precondition(lambda self: self.handle is not None and self.edges)
    @rule(data=st.data())
    def apply_noop(self, data):
        u, v = data.draw(st.sampled_from(sorted(self.edges)))
        before = self.handle.batches_applied
        report = self.handle.apply_updates([("+", v, u)])
        assert report.effective == 0 and report.skipped == 1
        assert self.handle.batches_applied == before + 1

    @rule(data=st.data(), self_loop=st.booleans())
    def apply_invalid(self, data, self_loop):
        u, v = self.pair(data)
        bad = ("+", u, u) if self_loop else ("-", u, self.n + v)
        before = self.handle.version
        with pytest.raises(ValueError if self_loop else IndexError):
            self.handle.apply_updates([("+", u, v), bad])
        assert self.handle.version is before

    @precondition(
        lambda self: self.handle is not None
        and len(self.edges) < self.n * (self.n - 1) // 2
    )
    @rule(data=st.data())
    def apply_failing(self, data):
        u, v = data.draw(
            st.sampled_from(
                [
                    (a, b)
                    for a in range(self.n)
                    for b in range(a + 1, self.n)
                    if (a, b) not in self.edges
                ]
            )
        )
        before = self.handle.version
        # The fault fires after the engine's graph took the insert.
        fault = RuntimeError("injected fault")
        with mock.patch.object(dynamic_index, "edge_overlaps", side_effect=fault):
            with pytest.raises(RuntimeError, match="injected fault"):
                self.handle.apply_updates([("+", u, v)])
        assert self.handle.version is before

    # -- after every step --------------------------------------------------

    @invariant()
    def graph_and_fingerprint_agree(self):
        if self.handle is None:
            return
        assert self.handle.fingerprint == graph_fingerprint(self.handle.graph)
        assert self.handle.fingerprint == graph_fingerprint(self.model())


HandleMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
TestHandleModel = HandleMachine.TestCase
