"""Random Fourier features (Rahimi & Recht) — Appendix B.5.3.

For shift-invariant kernels (Gaussian, Laplacian) the kernel value can be
approximated by an inner product in a low-dimensional random feature space:
``z(x)^T z(y) ≈ K(x, y)``.  The map used here is the classic
``z(x)_i = sqrt(2/D) * cos(r_i · x + c_i)`` with ``r_i`` drawn from the
kernel's spectral density and ``c_i`` uniform on ``[0, 2*pi]``.

After the transformation, classification is again a *linear* problem, so all
of Hazy's linear-view machinery applies unchanged — this is exactly how the
paper runs the feature-sensitivity experiment of Figure 12(A).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConfigurationError
from repro.learn.kernels import GaussianKernel, Kernel, LaplacianKernel
from repro.linalg import SparseVector

__all__ = ["RandomFourierFeatures"]


class RandomFourierFeatures:
    """A random map ``z : R^d -> R^D`` approximating a shift-invariant kernel.

    Parameters
    ----------
    input_dimension:
        Dimensionality ``d`` of the original feature space.
    output_dimension:
        Number of random features ``D``; larger D gives a tighter kernel
        approximation (and more expensive dot products, which is the point of
        the Figure 12(A) sweep).
    kernel:
        A shift-invariant kernel instance (Gaussian or Laplacian).
    seed:
        Seed for the random projection directions.
    """

    def __init__(
        self,
        input_dimension: int,
        output_dimension: int,
        kernel: Kernel | None = None,
        seed: int = 0,
    ):
        if input_dimension < 1 or output_dimension < 1:
            raise ConfigurationError("dimensions must be positive")
        kernel = kernel if kernel is not None else GaussianKernel(gamma=1.0)
        if not kernel.shift_invariant:
            raise ConfigurationError(
                f"random Fourier features require a shift-invariant kernel, got {kernel!r}"
            )
        self.kernel = kernel
        self.input_dimension = int(input_dimension)
        self.output_dimension = int(output_dimension)
        rng = np.random.default_rng(seed)
        if isinstance(kernel, GaussianKernel):
            # Spectral density of exp(-gamma ||x-y||^2) is N(0, 2*gamma I).
            scale = math.sqrt(2.0 * kernel.gamma)
            self._directions = rng.normal(0.0, scale, size=(output_dimension, input_dimension))
        elif isinstance(kernel, LaplacianKernel):
            # Spectral density of the Laplacian kernel is a Cauchy distribution.
            self._directions = kernel.gamma * rng.standard_cauchy(
                size=(output_dimension, input_dimension)
            )
        else:  # pragma: no cover - guarded by shift_invariant check above
            raise ConfigurationError(f"unsupported shift-invariant kernel {kernel!r}")
        self._offsets = rng.uniform(0.0, 2.0 * math.pi, size=output_dimension)
        self._amplitude = math.sqrt(2.0 / output_dimension)

    def transform(self, features: SparseVector) -> SparseVector:
        """Map a sparse input vector into the dense random-feature space."""
        projected = np.zeros(self.output_dimension)
        for index, value in features.items():
            if index < self.input_dimension:
                projected += value * self._directions[:, index]
        transformed = self._amplitude * np.cos(projected + self._offsets)
        return SparseVector.from_dense(transformed.tolist())
