"""Batched NumPy kernels for margin/eps scoring and predicate evaluation.

The scalar paths (:meth:`SparseVector.dot`, ``compare_values`` in the SQL
executor) touch one value at a time; these kernels process a whole batch per
call so the per-element Python interpretation cost is paid once per *chunk*
instead of once per *value*.  They back two hot loops:

* :func:`row_margins` scores any run of rows of a CSR feature matrix against
  one dense weight vector — the bulk form of the ``w · f − b`` evaluation every
  Hazy reclassification performs.  ``batch_dot`` / ``batch_margins`` /
  ``batch_eps`` flatten a list of vectors and call it; :func:`sparse_margins`
  calls it for a model's dense weight array over a store's feature mirror.
* ``compare`` evaluates one comparison operator over a whole column array at
  once and is what the batched ``Filter``/scan nodes use for scan-side
  predicate evaluation on numeric columns.

**A margin folds in the feature vector's stored order.**  Labels are
``sign(w · f − b)`` and Skiing compares accumulated floats, so a kernel that
rounded differently from ``LinearModel.margin`` (or, for ``batch_dot``, from
:meth:`SparseVector.dot` against a dense array — the same fold) could flip a
label at margin 0 or a reorganization at a knife edge.  ``row_margins`` is
therefore *row-sequential*: a chunk of rows is gathered into a zero-padded
``(width, rows)`` block and one padded column is added per step, so every row
is a left-to-right fold from ``0.0`` over its stored order — the same
additions, in the same order, as the scalar loop (``x + 0.0 == x``, so the
padding is exact).  A segmented pairwise reduction (``reduceat``) does not
have that property and is gone.

Everything here is pure computation: no cost-model charges, no I/O.  Callers
remain responsible for ledger accounting.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.linalg.vectors import SparseVector

__all__ = [
    "compare",
    "flatten",
    "row_margins",
    "sparse_margins",
    "batch_dot",
    "batch_margins",
    "batch_eps",
]

#: Rows gathered per step of :func:`row_margins`.  The padded block is
#: ``ROW_CHUNK x (longest row in the chunk)`` cells, so at ~20 non-zeros a row
#: each temporary stays around 64 KB however long the scored run is.  Measured
#: on the 8,000 rows of ``perf``'s ``feedback_eager`` (scalar loop: 1.99 us a
#: row): 64 rows a step 0.70 us a row, 256 0.36, 1024 0.31 — the last 15% would
#: cost temporaries of 260 KB each, which show in ``peak_rss_mib``.
ROW_CHUNK = 256

_COMPARISONS = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def compare(values: np.ndarray | Sequence[float], operator: str, bound: float) -> np.ndarray:
    """Boolean mask of ``values <operator> bound``, evaluated elementwise.

    Semantics match the scalar ``compare_values`` on numeric inputs,
    including NaN (never less/greater/equal, always not-equal).
    """
    try:
        kernel = _COMPARISONS[operator]
    except KeyError:
        raise ValueError(f"unsupported comparison operator {operator!r}") from None
    return kernel(np.asarray(values), bound)


def flatten(
    vectors: Sequence[SparseVector], index_dtype: type = np.int64
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR form ``(indptr, indices, values)`` of a run of sparse vectors.

    Row ``i`` is ``indices[indptr[i]:indptr[i + 1]]`` (and the same slice of
    ``values``), in the vector's own stored order — which is the summation
    order of :meth:`SparseVector.dot` and must survive the flattening.
    """
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    np.cumsum([vector.nnz() for vector in vectors], out=indptr[1:])
    indices = np.concatenate(
        [np.zeros(0, index_dtype), *(vector.indices() for vector in vectors)], dtype=index_dtype
    )
    values = np.concatenate([np.zeros(0), *(vector.values() for vector in vectors)])
    return indptr, indices, values


def row_margins(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    rows: np.ndarray,
    weights: np.ndarray,
    bias: float = 0.0,
) -> np.ndarray:
    """``w · f − b`` for the CSR rows ``rows``, bit-identical to the scalar dot.

    ``rows`` is any integer array of row numbers (a clustered slice of a
    permutation, or ``arange``); every stored index must be inside
    ``weights``.  Each row is summed left to right in stored order starting
    from ``0.0`` — see the module docstring for why — and the bias is
    subtracted last.
    """
    out = np.empty(len(rows), dtype=np.float64)
    # Python floats overflow to inf and turn inf * 0 into NaN silently; so do these.
    with np.errstate(over="ignore", invalid="ignore"):
        for begin in range(0, len(rows), ROW_CHUNK):
            chunk = rows[begin : begin + ROW_CHUNK]
            starts = indptr[chunk]
            lengths = indptr[chunk + 1] - starts
            total = np.zeros(len(chunk), dtype=np.float64)
            width = int(lengths.max())
            if width:
                column = np.arange(width)[:, None]
                # A cell past its row's end reads whatever follows (clipped at
                # the arrays' end) and is forced to 0.0 *after* the multiply, so
                # a NaN/inf there cannot leak into a row that lacks the cell.
                cells = starts + column
                products = values.take(cells, mode="clip") * weights.take(
                    indices.take(cells, mode="clip"), mode="clip"
                )
                for step in np.where(column < lengths, products, 0.0):
                    total += step
            out[begin : begin + ROW_CHUNK] = total - bias
    return out


def sparse_margins(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    rows: np.ndarray,
    weights: np.ndarray,
    bias: float,
    dimension: int,
) -> np.ndarray:
    """``w · f − b`` of CSR rows under a model's weight array, as ``LinearModel.margin`` does.

    ``LinearModel.margin`` folds over the features' stored order and an index
    past the weights' end meets ``0.0``, so :func:`row_margins` is its exact
    image on every row once ``weights`` covers the rows' ``dimension``: a
    shorter array is zero-padded to it, a longer one is used as it is.
    """
    if len(weights) < dimension:
        weights = np.concatenate((weights, np.zeros(dimension - len(weights))))
    return row_margins(indptr, indices, values, rows, weights, bias)


def batch_margins(
    vectors: Sequence[SparseVector], weights: np.ndarray, bias: float = 0.0
) -> np.ndarray:
    """``w · f_i − b`` for every sparse vector, equal to ``f_i.dot(weights) - bias`` bit for bit.

    Flattens the vectors and runs :func:`row_margins`.  Indices beyond the
    weight vector's dimension contribute nothing, as in the scalar
    :meth:`SparseVector.dot` against a dense array: they are pointed at an
    appended ``0.0`` weight with a ``0.0`` value, and ``x + 0.0 == x``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    indptr, indices, values = flatten(vectors)
    outside = indices >= weights.shape[0]
    if outside.any():
        indices = np.where(outside, weights.shape[0], indices)
        values = np.where(outside, 0.0, values)
        weights = np.append(weights, 0.0)
    return row_margins(indptr, indices, values, np.arange(len(vectors)), weights, bias)


def batch_dot(vectors: Sequence[SparseVector], weights: np.ndarray) -> np.ndarray:
    """``w · f_i`` for every sparse vector: :func:`batch_margins` with no bias."""
    return batch_margins(vectors, weights)


# ``eps`` in the paper is the same functional form as the margin: w(s)·f − b(s).
batch_eps = batch_margins
