"""Unit tests for SparseVector arithmetic."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.linalg import SparseVector, dot, to_dense, to_sparse
from repro.linalg.vectors import axpy


class TestConstruction:
    def test_empty_vector_has_no_entries(self):
        assert SparseVector().nnz() == 0
        assert len(SparseVector()) == 0

    def test_zero_values_are_dropped(self):
        vector = SparseVector({0: 0.0, 1: 2.0, 2: 0.0})
        assert vector.nnz() == 1
        assert vector[1] == 2.0

    def test_from_dense_drops_zeros(self):
        vector = SparseVector.from_dense([0.0, 1.0, 0.0, 3.0])
        assert vector.to_dict() == {1: 1.0, 3: 3.0}

    def test_from_pairs(self):
        vector = SparseVector([(2, 5.0), (7, -1.0)])
        assert vector[2] == 5.0
        assert vector[7] == -1.0

    def test_indices_are_coerced_to_int(self):
        vector = SparseVector({np.int64(3): 1.5})
        assert vector[3] == 1.5

    def test_zeros_constructor(self):
        assert SparseVector.zeros().nnz() == 0

    def test_negative_index_is_rejected(self):
        # A dense array would read index -1 from the end and a mapping would
        # not: R^d has no negative coordinate, so neither gets to answer.
        with pytest.raises(ConfigurationError, match="negative"):
            SparseVector({-1: 2.0, 0: 1.0})
        with pytest.raises(ConfigurationError, match="negative"):
            SparseVector([(3, 1.0), (-2, 1.0)])
        vector = SparseVector({0: 1.0})
        with pytest.raises(ConfigurationError, match="negative"):
            vector[-1] = 2.0
        assert vector.to_dict() == {0: 1.0}
        assert SparseVector({-1: 0.0}).nnz() == 0  # a zero is never stored, wherever it is


class TestAccess:
    def test_missing_index_reads_as_zero(self):
        assert SparseVector({1: 2.0})[99] == 0.0

    def test_setitem_and_delete_via_zero(self):
        vector = SparseVector()
        vector[4] = 2.5
        assert vector[4] == 2.5
        vector[4] = 0.0
        assert 4 not in vector
        assert vector.nnz() == 0

    def test_contains(self):
        vector = SparseVector({3: 1.0})
        assert 3 in vector
        assert 4 not in vector

    def test_iteration_yields_indices(self):
        vector = SparseVector({1: 1.0, 5: 2.0})
        assert sorted(vector) == [1, 5]

    def test_copy_is_independent(self):
        vector = SparseVector({1: 1.0})
        clone = vector.copy()
        clone[1] = 9.0
        assert vector[1] == 1.0

    def test_max_index(self):
        assert SparseVector({3: 1.0, 10: 2.0}).max_index() == 10
        assert SparseVector().max_index() == -1

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(SparseVector())


class TestArithmetic:
    def test_dot_sparse_sparse(self):
        left = SparseVector({0: 1.0, 2: 3.0})
        right = SparseVector({2: 2.0, 5: 7.0})
        assert left.dot(right) == pytest.approx(6.0)

    def test_dot_is_symmetric(self):
        left = SparseVector({0: 1.5, 3: -2.0})
        right = SparseVector({0: 2.0, 3: 4.0, 9: 1.0})
        assert left.dot(right) == pytest.approx(right.dot(left))

    def test_dot_with_dense_array(self):
        vector = SparseVector({0: 1.0, 2: 2.0})
        dense = np.array([3.0, 0.0, 4.0])
        assert vector.dot(dense) == pytest.approx(11.0)

    def test_dot_with_dense_ignores_out_of_range(self):
        vector = SparseVector({5: 1.0})
        dense = np.array([1.0, 2.0])
        assert vector.dot(dense) == 0.0

    def test_scale(self):
        vector = SparseVector({1: 2.0}).scale(3.0)
        assert vector[1] == pytest.approx(6.0)

    def test_scale_by_zero_empties(self):
        assert SparseVector({1: 2.0}).scale(0.0).nnz() == 0

    def test_scale_inplace(self):
        vector = SparseVector({1: 2.0})
        vector.scale_inplace(0.5)
        assert vector[1] == pytest.approx(1.0)

    def test_add_and_subtract(self):
        left = SparseVector({0: 1.0, 1: 1.0})
        right = SparseVector({1: 2.0, 2: 3.0})
        total = left.add(right)
        assert total.to_dict() == {0: 1.0, 1: 3.0, 2: 3.0}
        difference = total.subtract(right)
        assert difference.to_dict() == pytest.approx({0: 1.0, 1: 1.0})

    def test_add_inplace_with_scale(self):
        vector = SparseVector({0: 1.0})
        vector.add_inplace(SparseVector({0: 1.0, 1: 2.0}), scale=2.0)
        assert vector.to_dict() == {0: 3.0, 1: 4.0}

    def test_add_inplace_cancellation_removes_entry(self):
        vector = SparseVector({0: 1.0})
        vector.add_inplace(SparseVector({0: 1.0}), scale=-1.0)
        assert vector.nnz() == 0

    def test_axpy_returns_accumulator(self):
        accumulator = SparseVector({0: 1.0})
        result = axpy(accumulator, SparseVector({1: 1.0}), 2.0)
        assert result is accumulator
        assert accumulator[1] == 2.0


class TestNorms:
    def test_l1_norm(self):
        assert SparseVector({0: 3.0, 1: -4.0}).norm(1) == pytest.approx(7.0)

    def test_l2_norm(self):
        assert SparseVector({0: 3.0, 1: 4.0}).norm(2) == pytest.approx(5.0)

    def test_inf_norm(self):
        assert SparseVector({0: 3.0, 1: -4.0}).norm(math.inf) == pytest.approx(4.0)

    def test_general_p_norm(self):
        vector = SparseVector({0: 1.0, 1: 1.0})
        assert vector.norm(3) == pytest.approx(2 ** (1 / 3))

    def test_zero_vector_norm(self):
        assert SparseVector().norm(2) == 0.0

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            SparseVector({0: 1.0}).norm(0)

    def test_general_p_norm_of_a_huge_component_is_rescaled_not_raised(self):
        # 1e200 ** 3 raises OverflowError where 1e200 * 1e200 gives inf.
        assert SparseVector({0: 1e200, 1: -1e200}).norm(3) == pytest.approx(2 ** (1 / 3) * 1e200)

    def test_normalized_l1(self):
        vector = SparseVector({0: 2.0, 1: 2.0}).normalized(p=1.0)
        assert vector.norm(1) == pytest.approx(1.0)

    def test_normalized_zero_vector_is_unchanged(self):
        assert SparseVector().normalized().nnz() == 0

    def test_normalized_subnormal_vector_has_unit_norm(self):
        # sqrt(2) * 5e-324 rounds to 5e-324: dividing by that rounded norm
        # would give {0: 1.0, 1: 1.0}, whose 2-norm is 1.414.
        vector = SparseVector({0: 5e-324, 1: 5e-324})
        for p in (1.0, 2.0, 3.0, math.inf):
            assert vector.normalized(p).norm(p) == pytest.approx(1.0)
        assert vector.normalized(2).to_dict() == {0: 1.0 / math.sqrt(2.0), 1: 1.0 / math.sqrt(2.0)}

    def test_normalized_normal_range_vector_divides_by_its_norm(self):
        vector = SparseVector({0: 3.0, 1: -4.0})
        assert vector.normalized(2).to_dict() == {0: 3.0 / 5.0, 1: -4.0 / 5.0}


class TestConversion:
    def test_to_dense_dimension(self):
        dense = SparseVector({1: 2.0}).to_dense(4)
        assert dense.tolist() == [0.0, 2.0, 0.0, 0.0]

    def test_to_dense_infers_dimension(self):
        dense = SparseVector({2: 1.0}).to_dense()
        assert dense.shape == (3,)

    def test_to_sparse_from_mapping_and_array(self):
        assert to_sparse({1: 2.0})[1] == 2.0
        assert to_sparse(np.array([0.0, 3.0]))[1] == 3.0

    def test_to_dense_helper_pads_and_truncates(self):
        assert to_dense(np.array([1.0, 2.0, 3.0]), 2).tolist() == [1.0, 2.0]
        assert to_dense(np.array([1.0]), 3).tolist() == [1.0, 0.0, 0.0]

    def test_module_level_dot(self):
        assert dot(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == pytest.approx(11.0)
        assert dot(SparseVector({0: 1.0}), np.array([5.0])) == pytest.approx(5.0)

    def test_equality(self):
        assert SparseVector({1: 2.0}) == SparseVector({1: 2.0})
        assert SparseVector({1: 2.0}) != SparseVector({1: 3.0})

    def test_repr_mentions_nnz(self):
        assert "nnz=1" in repr(SparseVector({1: 2.0}))

    def test_approx_size_grows_with_entries(self):
        small = SparseVector({1: 1.0}).approx_size_bytes()
        large = SparseVector({i: 1.0 for i in range(10)}).approx_size_bytes()
        assert large > small
