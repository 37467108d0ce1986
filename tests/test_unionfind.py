"""Union-find: sequential reference and wait-free-structured variant."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.unionfind import AtomicUnionFind, UnionFind


@pytest.mark.parametrize("cls", [UnionFind, AtomicUnionFind])
class TestBasics:
    def test_initially_disjoint(self, cls):
        uf = cls(5)
        assert len(uf) == 5
        for i in range(5):
            assert uf.find(i) == i
        assert not uf.same_set(0, 1)

    def test_union_merges(self, cls):
        uf = cls(4)
        assert uf.union(0, 1)
        assert uf.same_set(0, 1)
        assert not uf.same_set(0, 2)

    def test_union_idempotent(self, cls):
        uf = cls(4)
        assert uf.union(0, 1)
        assert not uf.union(0, 1)
        assert not uf.union(1, 0)

    def test_transitivity(self, cls):
        uf = cls(6)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(4, 5)
        assert uf.same_set(0, 2)
        assert uf.same_set(5, 4)
        assert not uf.same_set(2, 4)

    def test_component_labels_consistent(self, cls):
        uf = cls(7)
        uf.union(0, 3)
        uf.union(3, 6)
        uf.union(1, 2)
        labels = uf.component_labels()
        assert labels[0] == labels[3] == labels[6]
        assert labels[1] == labels[2]
        assert labels[0] != labels[1]
        assert labels[4] != labels[5]

    def test_chain_path_compression(self, cls):
        n = 200
        uf = cls(n)
        for i in range(n - 1):
            uf.union(i, i + 1)
        assert all(uf.find(i) == uf.find(0) for i in range(n))


class TestCounters:
    def test_sequential_counts(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        uf.union(0, 1)
        assert uf.num_unions == 1
        assert uf.num_finds >= 4

    def test_atomic_cas_accounting(self):
        uf = AtomicUnionFind(4)
        uf.union(0, 1)
        uf.union(2, 3)
        uf.union(0, 3)
        assert uf.num_unions == 3
        assert uf.cas_attempts == 3  # uncontended: one CAS per union

    def test_atomic_link_by_lower_index(self):
        uf = AtomicUnionFind(5)
        uf.union(4, 2)
        assert uf.find(4) == 2  # higher root linked under lower

    def test_snapshot_parents(self):
        uf = AtomicUnionFind(3)
        uf.union(0, 1)
        snap = uf.snapshot_parents()
        uf.union(1, 2)
        assert len(snap) == 3
        assert snap != uf.snapshot_parents()


@given(
    st.integers(min_value=1, max_value=40),
    st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=80),
)
def test_atomic_equals_sequential(n, pairs):
    """Both implementations induce the same partition for any union seq."""
    seq, atom = UnionFind(n), AtomicUnionFind(n)
    for x, y in pairs:
        x, y = x % n, y % n
        assert seq.union(x, y) == atom.union(x, y)
    for x in range(n):
        for y in range(x + 1, n):
            assert seq.same_set(x, y) == atom.same_set(x, y)


def _tallies(uf):
    return uf.num_finds, uf.cas_attempts, uf.num_unions


def _roots(uf):
    return [uf.find(x) for x in range(len(uf))]


def _union_loop(uf, pairs):
    for x, y in pairs:
        uf.union(x, y)


def _bulk(pairs):
    u = np.array([x for x, _ in pairs], dtype=np.int64)
    v = np.array([y for _, y in pairs], dtype=np.int64)
    return u, v


_pairs = st.lists(
    st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=80
)
_forests = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        _pairs.map(lambda ps: [(x % n, y % n) for x, y in ps]),
        st.lists(st.integers(0, n - 1), max_size=20),
    )
)


@given(_forests)
def test_union_all_equals_union_loop(forest):
    """``union_all`` leaves every vertex with the root and the tallies that
    ``union`` called per pair leaves, also over parents a ``find`` already
    compressed.  (The parent layouts may differ: only roots are state.)"""
    n, pairs, probes = forest
    one, bulk = AtomicUnionFind(n), AtomicUnionFind(n)
    half = len(pairs) // 2
    for uf in (one, bulk):
        _union_loop(uf, pairs[:half])
        for x in probes:
            uf.find(x)
    _union_loop(one, pairs[half:])
    bulk.union_all(*_bulk(pairs[half:]))
    assert _tallies(bulk) == _tallies(one)
    assert _roots(bulk) == _roots(one)


@given(_forests)
def test_roots_equal_find_one_find_each(forest):
    """``roots(xs)`` answers ``find`` per element, duplicates included,
    and charges exactly one find per element."""
    n, pairs, probes = forest
    uf, ref = AtomicUnionFind(n), AtomicUnionFind(n)
    for f in (uf, ref):
        _union_loop(f, pairs)
    before = _tallies(uf)
    got = uf.roots(np.array(probes, dtype=np.int64))
    assert got.tolist() == [ref.find(x) for x in probes]
    assert _tallies(uf) == (before[0] + len(probes), *before[1:])
    assert _roots(uf) == _roots(ref)  # the compression moved no root


@given(_forests, _pairs)
def test_union_all_after_restoring_halved_forest(forest, later):
    """A checkpoint written when the parents were compressed only by path
    halving restores, and ``union_all`` on int64 arrays then matches the
    scalar loop in roots and tallies."""
    n, pairs, probes = forest
    source = AtomicUnionFind(n)
    _union_loop(source, pairs)
    for x in probes:
        source.find(x)
    state = {"parent": np.asarray(source.snapshot_parents(), dtype=np.int64)}
    later = [(x % n, y % n) for x, y in later]
    one, bulk = AtomicUnionFind(n), AtomicUnionFind(n)
    one.restore(state)
    bulk.restore(state)
    _union_loop(one, later)
    bulk.union_all(*_bulk(later))
    assert _tallies(bulk) == _tallies(one)
    assert _roots(bulk) == _roots(one)


def test_snapshot_is_a_copy():
    uf = AtomicUnionFind(4)
    snap = uf.snapshot()["parent"]
    uf.union_all(np.array([0, 2]), np.array([1, 3]))
    assert snap.tolist() == [0, 1, 2, 3]
    assert uf.snapshot()["parent"].tolist() == [0, 0, 2, 2]
