"""Unit tests for the batched NumPy kernels (margin scoring + comparisons)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.linalg import SparseVector, batch_dot, batch_eps, batch_margins, compare


class TestCompare:
    def test_all_operators_match_scalar_semantics(self):
        values = np.array([1.0, 2.0, 3.0])
        cases = {
            "=": [False, True, False],
            "!=": [True, False, True],
            "<": [True, False, False],
            "<=": [True, True, False],
            ">": [False, False, True],
            ">=": [False, True, True],
        }
        for operator, expected in cases.items():
            assert compare(values, operator, 2.0).tolist() == expected

    def test_nan_never_compares_except_not_equal(self):
        values = np.array([1.0, float("nan")])
        for operator in ("=", "<", "<=", ">", ">="):
            assert not compare(values, operator, float("nan")).any()
        assert compare(values, "!=", 1.0).tolist() == [False, True]
        # A NaN element compares False everywhere (and != everywhere).
        assert compare(values, ">=", 0.0).tolist() == [True, False]
        assert compare(values, "!=", 0.0).tolist() == [True, True]

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError, match="unsupported comparison"):
            compare(np.array([1.0]), "like", 1.0)


class TestBatchDot:
    def _scalar_margins(self, vectors, weights, bias):
        return [vector.dot(weights) - bias for vector in vectors]

    def test_matches_scalar_dot(self):
        rng = np.random.default_rng(3)
        weights = rng.normal(size=40)
        vectors = [
            SparseVector({int(j): float(rng.normal()) for j in rng.choice(40, size=5)})
            for _ in range(17)
        ]
        vectors.append(SparseVector({}))  # empty vector scores exactly zero
        got = batch_margins(vectors, weights, bias=0.25)
        want = self._scalar_margins(vectors, weights, 0.25)
        assert got.tolist() == want
        assert got[-1] == pytest.approx(-0.25)

    def test_out_of_dimension_indices_contribute_zero(self):
        weights = np.array([1.0, 2.0])
        vectors = [SparseVector({0: 1.0, 5: 100.0}), SparseVector({9: 4.0})]
        assert batch_dot(vectors, weights).tolist() == [1.0, 0.0]

    def test_empty_inputs(self):
        assert batch_dot([], np.array([1.0])).shape == (0,)
        assert batch_dot([SparseVector({0: 2.0})], np.array([])).tolist() == [0.0]

    def test_eps_alias(self):
        assert batch_eps is batch_margins

    def test_interleaved_empty_segments(self):
        weights = np.ones(4)
        vectors = [
            SparseVector({}),
            SparseVector({0: 1.0, 1: 1.0}),
            SparseVector({}),
            SparseVector({2: 3.0}),
            SparseVector({}),
        ]
        assert batch_dot(vectors, weights).tolist() == [0.0, 2.0, 0.0, 3.0, 0.0]

    def test_the_three_dot_forms_agree(self):
        """Sparse . dense array, the batched kernel and sparse . sparse: one answer."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            dimension = int(rng.integers(1, 30))
            weights = rng.normal(size=dimension)
            entries = int(rng.integers(0, 9))
            vector = SparseVector(
                {int(j): float(rng.normal()) for j in rng.choice(40, size=entries)}
            )
            against_dense = vector.dot(weights)
            assert batch_dot([vector], weights).tolist() == [against_dense]
            if vector.nnz() <= dimension:
                # Sparse . sparse folds over the smaller operand: here, the vector too.
                sparse_weights = SparseVector(enumerate(weights.tolist()))
                assert sparse_weights.dot(vector) == against_dense

    def test_nan_propagates_like_scalar(self):
        weights = np.array([float("nan"), 1.0])
        vector = SparseVector({0: 1.0})
        assert math.isnan(batch_dot([vector], weights)[0])
