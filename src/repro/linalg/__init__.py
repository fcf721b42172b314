"""Sparse/dense vector arithmetic used by the learning substrate and Hazy core.

The paper's text workloads (DBLife, Citeseer) use sparse bag-of-words feature
vectors with very large dimensionality, while the Forest data set uses small
dense vectors.  :class:`~repro.linalg.vectors.SparseVector` covers both cases
as a value of two read-only arrays (indices and values, in stored order); dense
``numpy`` arrays can be converted to and from it.  :mod:`repro.linalg.norms` provides the p-norms and Hölder conjugate
pairs that the low/high-water bound computation relies on (Lemma 3.1).
"""

from repro.linalg.kernels import batch_dot, batch_eps, batch_margins, compare
from repro.linalg.norms import holder_conjugate, p_norm
from repro.linalg.vectors import SparseVector, dot, to_dense, to_sparse

__all__ = [
    "SparseVector",
    "dot",
    "to_dense",
    "to_sparse",
    "p_norm",
    "holder_conjugate",
    "batch_dot",
    "batch_margins",
    "batch_eps",
    "compare",
]
