"""Unit tests for SparseVector: a frozen value of two arrays, and its arithmetic."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.linalg import SparseVector, dot, p_norm, to_dense, to_sparse


class TestConstruction:
    def test_empty_vector_has_no_entries(self):
        assert SparseVector().nnz() == 0
        assert len(SparseVector()) == 0

    def test_zero_values_are_dropped(self):
        vector = SparseVector({0: 0.0, 1: 2.0, 2: 0.0})
        assert dict(vector.items()) == {1: 2.0}

    def test_from_dense_drops_zeros(self):
        vector = SparseVector.from_dense([0.0, 1.0, 0.0, 3.0])
        assert dict(vector.items()) == {1: 1.0, 3: 3.0}

    def test_from_pairs(self):
        vector = SparseVector([(2, 5.0), (7, -1.0)])
        assert dict(vector.items()) == {2: 5.0, 7: -1.0}

    def test_indices_are_coerced_to_int(self):
        vector = SparseVector({np.int64(3): 1.5})
        assert list(vector.items()) == [(3, 1.5)]
        assert type(next(iter(vector))) is int

    def test_zeros_constructor(self):
        assert SparseVector.zeros().nnz() == 0

    def test_negative_index_is_rejected(self):
        # A dense array would read index -1 from the end and a mapping would
        # not: R^d has no negative coordinate, so neither gets to answer.
        with pytest.raises(ConfigurationError, match="negative"):
            SparseVector({-1: 2.0, 0: 1.0})
        with pytest.raises(ConfigurationError, match="negative"):
            SparseVector([(3, 1.0), (-2, 1.0)])
        assert SparseVector({-1: 0.0}).nnz() == 0  # a zero is never stored, wherever it is

    def test_an_index_past_int32_is_rejected(self):
        # The index array is int32: 2**31 would wrap to a negative index.
        with pytest.raises(ConfigurationError, match="int32"):
            SparseVector({2**31: 1.0})
        with pytest.raises(ConfigurationError, match="int32"):
            SparseVector([(0, 1.0), (2**40, 1.0)])
        assert SparseVector({2**31 - 1: 1.0}).max_index() == 2**31 - 1

    def test_the_stored_order_is_kept_and_a_later_duplicate_wins(self):
        vector = SparseVector([(7, 1.0), (2, 2.0), (7, 3.0), (4, 0.0)])
        assert list(vector.items()) == [(7, 3.0), (2, 2.0)]
        assert vector.indices().dtype == np.int32 and vector.values().dtype == np.float64
        assert vector.indices().tolist() == [7, 2]


class TestFrozen:
    def test_the_arrays_are_read_only(self):
        vector = SparseVector({1: 2.0, 3: 4.0})
        for array in (vector.indices(), vector.values()):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 9
        assert dict(vector.items()) == {1: 2.0, 3: 4.0}

    def test_there_is_no_item_assignment(self):
        with pytest.raises(TypeError):
            SparseVector()[4] = 2.5  # type: ignore[index]

    def test_derived_vectors_are_frozen_too(self):
        vector = SparseVector({1: 2.0, 3: 4.0})
        for derived in (
            vector.scale(2.0),
            vector.normalized(1.0),
            SparseVector.from_dense([0.0, 1.0]),
            pickle.loads(pickle.dumps(vector)),
        ):
            assert not derived.indices().flags.writeable
            assert not derived.values().flags.writeable

    def test_to_sparse_shares_a_vector(self):
        vector = SparseVector({1: 1.0})
        assert to_sparse(vector) is vector

    def test_pickle_keeps_the_stored_order(self):
        vector = SparseVector({9: 1.0, 2: -1.5})
        assert list(pickle.loads(pickle.dumps(vector)).items()) == [(9, 1.0), (2, -1.5)]


class TestAccess:
    def test_iteration_yields_indices(self):
        vector = SparseVector({1: 1.0, 5: 2.0})
        assert sorted(vector) == [1, 5]

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
        assert dict(vector.items()) == {1: 6.0}

    def test_scale_by_zero_empties(self):
        assert SparseVector({1: 2.0}).scale(0.0).nnz() == 0

    def test_scale_keeps_the_stored_order(self):
        vector = SparseVector({4: 2.0, 1: -1.0}).scale(0.5)
        assert list(vector.items()) == [(4, 1.0), (1, -0.5)]


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

    def test_norms_fold_left_to_right(self):
        # Built-in sum() compensates from Python 3.12 on and would give 1.0.
        assert SparseVector({i: 0.1 for i in range(10)}).norm(1) == 0.9999999999999999
        # A dense array (a model's weights) folds the same way, in one accumulate.
        assert p_norm(np.full(10, 0.1), 1) == 0.9999999999999999
        tenths = [0.1 * k for k in range(1, 40)]
        assert p_norm(np.array(tenths), 2) == p_norm(tenths, 2)
        # A sum of subnormal squares is rescaled on the list path, as before.
        assert p_norm(np.array([5e-324, 5e-324]), 2) == p_norm([5e-324, 5e-324], 2) > 0.0

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
        assert dict(vector.normalized(2).items()) == {
            0: 1.0 / math.sqrt(2.0),
            1: 1.0 / math.sqrt(2.0),
        }

    def test_normalized_normal_range_vector_divides_by_its_norm(self):
        vector = SparseVector({0: 3.0, 1: -4.0})
        assert dict(vector.normalized(2).items()) == {0: 3.0 / 5.0, 1: -4.0 / 5.0}


class TestConversion:
    def test_to_dense_dimension(self):
        dense = SparseVector({1: 2.0}).to_dense(4)
        assert dense.tolist() == [0.0, 2.0, 0.0, 0.0]

    def test_to_dense_infers_dimension(self):
        dense = SparseVector({2: 1.0}).to_dense()
        assert dense.shape == (3,)

    def test_to_sparse_from_mapping_and_array(self):
        assert to_sparse({1: 2.0}) == SparseVector({1: 2.0})
        assert to_sparse(np.array([0.0, 3.0])) == SparseVector({1: 3.0})

    def test_to_dense_helper_pads_and_truncates(self):
        assert to_dense(np.array([1.0, 2.0, 3.0]), 2).tolist() == [1.0, 2.0]
        assert to_dense(np.array([1.0]), 3).tolist() == [1.0, 0.0, 0.0]

    def test_module_level_dot(self):
        assert dot(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == pytest.approx(11.0)
        assert dot(SparseVector({0: 1.0}), np.array([5.0])) == pytest.approx(5.0)

    def test_equality(self):
        assert SparseVector({1: 2.0}) == SparseVector({1: 2.0})
        assert SparseVector({1: 2.0}) != SparseVector({1: 3.0})
        assert SparseVector({1: 2.0, 5: 1.0}) == SparseVector({5: 1.0, 1: 2.0})  # order aside

    def test_repr_mentions_nnz(self):
        assert "nnz=1" in repr(SparseVector({1: 2.0}))

    def test_approx_size_grows_with_entries(self):
        small = SparseVector({1: 1.0}).approx_size_bytes()
        large = SparseVector({i: 1.0 for i in range(10)}).approx_size_bytes()
        assert large > small
