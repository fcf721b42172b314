"""p-norms and Hölder conjugates.

Lemma 3.1 of the paper bounds ``|<delta_w, f(t)>|`` by ``||delta_w||_p *
||f(t)||_q`` where ``1/p + 1/q = 1`` (Hölder's inequality).  The choice of the
pair (p, q) is a *quality* decision: text workloads use l1-normalized feature
vectors so ``(p, q) = (inf, 1)``; dense workloads typically use l2
normalization so ``(p, q) = (2, 2)``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.linalg.vectors import SparseVector, _norm

__all__ = ["p_norm", "holder_conjugate", "HOLDER_PAIRS"]

#: The Hölder conjugate pairs that the paper discusses explicitly.
HOLDER_PAIRS: tuple[tuple[float, float], ...] = ((math.inf, 1.0), (2.0, 2.0), (1.0, math.inf))


def holder_conjugate(p: float) -> float:
    """Return ``q`` such that ``1/p + 1/q = 1``.

    ``p`` may be ``math.inf`` (conjugate 1) or any value ``>= 1``.
    """
    if p == math.inf:
        return 1.0
    if p < 1:
        raise ValueError(f"Hölder conjugates require p >= 1, got {p}")
    if p == 1:
        return math.inf
    return p / (p - 1.0)


def p_norm(vector: SparseVector | Iterable[float], p: float) -> float:
    """Return the ``p``-norm of a sparse vector or a dense iterable.

    A dense iterable is summed left to right in its order, as
    :meth:`SparseVector.norm` sums its values.
    """
    if isinstance(vector, SparseVector):
        return vector.norm(p)
    if isinstance(vector, np.ndarray):
        return _norm(vector.astype(np.float64, copy=False), p)
    return _norm([float(v) for v in vector], p)
