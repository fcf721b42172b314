"""Unit tests for kernels and random Fourier features."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.learn.kernels import GaussianKernel, Kernel, LaplacianKernel
from repro.learn.random_features import RandomFourierFeatures
from repro.linalg import SparseVector


class DotKernel(Kernel):
    """``K(x, y) = x · y``: a kernel that is not shift invariant."""

    def __call__(self, left: SparseVector, right: SparseVector) -> float:
        return left.dot(right)


class TestKernels:
    def test_gaussian_kernel_identity(self):
        kernel = GaussianKernel(gamma=0.5)
        x = SparseVector({0: 1.0, 3: -2.0})
        assert kernel(x, x) == pytest.approx(1.0)

    def test_gaussian_kernel_decays_with_distance(self):
        kernel = GaussianKernel(gamma=1.0)
        x = SparseVector({0: 0.0})
        near = SparseVector({0: 0.1})
        far = SparseVector({0: 2.0})
        assert kernel(x, near) > kernel(x, far)

    def test_gaussian_value_matches_closed_form(self):
        kernel = GaussianKernel(gamma=2.0)
        x = SparseVector({0: 1.0})
        y = SparseVector({1: 1.0})
        assert kernel(x, y) == pytest.approx(math.exp(-2.0 * 2.0))

    def test_laplacian_uses_l1_distance(self):
        kernel = LaplacianKernel(gamma=1.0)
        x = SparseVector({0: 1.0})
        y = SparseVector({1: 1.0})
        assert kernel(x, y) == pytest.approx(math.exp(-2.0))

    def test_shift_invariance_flags(self):
        assert GaussianKernel().shift_invariant
        assert LaplacianKernel().shift_invariant
        assert not DotKernel().shift_invariant

    def test_invalid_gamma(self):
        with pytest.raises(ConfigurationError):
            GaussianKernel(gamma=0.0)
        with pytest.raises(ConfigurationError):
            LaplacianKernel(gamma=-1.0)


class TestRandomFourierFeatures:
    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            RandomFourierFeatures(0, 10)

    def test_requires_shift_invariant_kernel(self):
        with pytest.raises(ConfigurationError):
            RandomFourierFeatures(4, 10, kernel=DotKernel())

    def test_output_dimension(self):
        rff = RandomFourierFeatures(5, 64, kernel=GaussianKernel(gamma=1.0), seed=1)
        transformed = rff.transform(SparseVector({0: 1.0, 4: -1.0}))
        assert transformed.max_index() < 64

    def test_kernel_approximation_quality(self):
        """z(x)^T z(y) approximates K(x, y) (Rahimi & Recht)."""
        kernel = GaussianKernel(gamma=0.5)
        rff = RandomFourierFeatures(4, 2048, kernel=kernel, seed=3)
        x = SparseVector({0: 0.4, 1: -0.2})
        y = SparseVector({0: 0.1, 2: 0.3})
        exact = kernel(x, y)
        approx = rff.transform(x).dot(rff.transform(y))
        assert approx == pytest.approx(exact, abs=0.1)

    def test_deterministic_given_seed(self):
        a = RandomFourierFeatures(3, 16, seed=9).transform(SparseVector({0: 1.0}))
        b = RandomFourierFeatures(3, 16, seed=9).transform(SparseVector({0: 1.0}))
        assert dict(a.items()) == pytest.approx(dict(b.items()))

    def test_laplacian_kernel_supported(self):
        rff = RandomFourierFeatures(3, 32, kernel=LaplacianKernel(gamma=1.0), seed=2)
        assert rff.transform(SparseVector({1: 1.0})).nnz() > 0
