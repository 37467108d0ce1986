"""Union-find: sequential reference and wait-free-structured variant."""

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


@given(
    st.integers(min_value=1, max_value=40),
    st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=80),
    st.lists(st.integers(0, 39), max_size=20),
)
def test_union_all_equals_union_loop(n, pairs, probes):
    """``union_all`` leaves the same parents and tallies as ``union``
    called per pair, also over parents a ``find`` already compressed."""
    pairs = [(x % n, y % n) for x, y in pairs]
    one, bulk = AtomicUnionFind(n), AtomicUnionFind(n)
    half = len(pairs) // 2
    for uf in (one, bulk):
        for x, y in pairs[:half]:
            uf.union(x, y)
        for x in probes:
            uf.find(x % n)
    for x, y in pairs[half:]:
        one.union(x, y)
    bulk.union_all(pairs[half:])
    assert bulk.snapshot_parents() == one.snapshot_parents()
    assert (bulk.num_finds, bulk.cas_attempts, bulk.num_unions) == (
        one.num_finds,
        one.cas_attempts,
        one.num_unions,
    )
