"""Property-based tests for the sparse-vector algebra and the B+-tree."""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db.btree import BPlusTree
from repro.linalg import SparseVector, holder_conjugate

# Sparse vectors as dictionaries with bounded indices and finite float values.
sparse_vectors = st.dictionaries(
    keys=st.integers(min_value=0, max_value=60),
    values=st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    max_size=15,
).map(SparseVector)

holder_ps = st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf])


def added(x: SparseVector, y: SparseVector) -> SparseVector:
    """``x + y``, entry by entry (a vector is a value: the sum is a new one)."""
    entries = dict(x.items())
    for index, value in y.items():
        entries[index] = entries.get(index, 0.0) + value
    return SparseVector(entries)


class TestVectorAlgebraProperties:
    @given(sparse_vectors, sparse_vectors)
    def test_dot_product_symmetry(self, x, y):
        # Summation order differs between the two call directions, so agreement
        # is up to floating-point rounding, not bit-exact.
        left, right = x.dot(y), y.dot(x)
        assert abs(left - right) <= 1e-9 * (1.0 + abs(left))

    @given(sparse_vectors, sparse_vectors, sparse_vectors)
    def test_dot_product_distributes_over_addition(self, x, y, z):
        left = added(x, y).dot(z)
        right = x.dot(z) + y.dot(z)
        assert left == left or True  # guard against NaN (excluded by strategy)
        assert abs(left - right) <= 1e-6 * (1 + abs(left) + abs(right))

    @given(sparse_vectors, st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_scaling_scales_norms(self, x, factor):
        scaled = x.scale(factor)
        assert scaled.norm(2) <= abs(factor) * x.norm(2) + 1e-9
        assert scaled.norm(2) >= abs(factor) * x.norm(2) - 1e-9

    @given(sparse_vectors, sparse_vectors)
    def test_triangle_inequality(self, x, y):
        assert added(x, y).norm(2) <= x.norm(2) + y.norm(2) + 1e-9

    @given(sparse_vectors, sparse_vectors, holder_ps)
    def test_holder_inequality(self, x, y, p):
        """|<x, y>| <= ||x||_p ||y||_q — the inequality behind Lemma 3.1."""
        q = holder_conjugate(p)
        assert abs(x.dot(y)) <= x.norm(p) * y.norm(q) + 1e-6

    @given(sparse_vectors)
    @example(SparseVector({0: 5e-324, 1: 5e-324}))  # its 2-norm rounds to 5e-324
    def test_normalization_produces_unit_norm(self, x):
        for p in (1.0, 2.0):
            normalized = x.normalized(p)
            if x.nnz() > 0 and x.norm(p) > 0:
                assert abs(normalized.norm(p) - 1.0) <= 1e-9

    @given(sparse_vectors)
    def test_dense_roundtrip_preserves_values(self, x):
        dimension = x.max_index() + 1 if x.nnz() else 1
        dense = x.to_dense(dimension)
        rebuilt = dict(SparseVector.from_dense(dense.tolist()).items())
        assert all(abs(rebuilt[i] - value) <= 1e-12 for i, value in x.items())


key_lists = st.lists(
    st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=150,
)


class TestBPlusTreeProperties:
    @given(key_lists, st.integers(min_value=3, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_insert_preserves_invariants_and_order(self, keys, order):
        tree = BPlusTree(order=order)
        for position, key in enumerate(keys):
            tree.insert(key, position)
        tree.check_invariants()
        assert len(tree) == len(keys)
        scanned = [key for key, _ in tree.items()]
        assert scanned == sorted(keys)

    @given(key_lists)
    @settings(max_examples=60, deadline=None)
    def test_range_scan_equals_sorted_filter(self, keys):
        tree = BPlusTree(order=6)
        for position, key in enumerate(keys):
            tree.insert(key, position)
        if not keys:
            assert list(tree.range_scan(-1.0, 1.0)) == []
            return
        low, high = min(keys), max(keys)
        midpoint = (low + high) / 2
        expected = sorted(k for k in keys if low <= k <= midpoint)
        actual = [key for key, _ in tree.range_scan(low, midpoint)]
        assert actual == expected

    @given(key_lists)
    @settings(max_examples=40, deadline=None)
    def test_search_finds_every_inserted_payload(self, keys):
        tree = BPlusTree(order=5)
        for position, key in enumerate(keys):
            tree.insert(key, position)
        for position, key in enumerate(keys):
            assert position in tree.search(key)

    @given(key_lists)
    @settings(max_examples=40, deadline=None)
    def test_delete_removes_exactly_one_payload(self, keys):
        tree = BPlusTree(order=5)
        for position, key in enumerate(keys):
            tree.insert(key, position)
        for position, key in enumerate(keys):
            assert tree.delete(key, position)
        assert len(tree) == 0
        assert list(tree.items()) == []
