"""Dense numeric feature function for tabular data sets such as Forest."""

from __future__ import annotations

from collections.abc import Sequence

from repro.exceptions import FeatureError
from repro.features.base import EntityRow, FeatureFunction
from repro.linalg import SparseVector

__all__ = ["DenseColumnsFeature"]


class DenseColumnsFeature(FeatureFunction):
    """Feature vector built from a fixed list of numeric columns.

    Corpus statistics (per-column min/max) are maintained so vectors can be
    rescaled to [0, 1]; this matches how the dense UCI-style data sets
    (Forest, MAGIC, ADULT) are prepared before training.
    """

    name = "dense_columns"
    norm_q = 2.0

    def __init__(self, columns: Sequence[str], rescale: bool = True, normalize: bool = True):
        if not columns:
            raise FeatureError("DenseColumnsFeature requires at least one column")
        self.columns = tuple(columns)
        self.rescale = bool(rescale)
        self.normalize = bool(normalize)
        self._minimums: dict[str, float] = {}
        self._maximums: dict[str, float] = {}

    def compute_stats_incremental(self, row: EntityRow) -> None:
        """Track per-column min/max for rescaling."""
        for column in self.columns:
            value = float(row.get(column, 0.0) or 0.0)
            if column not in self._minimums or value < self._minimums[column]:
                self._minimums[column] = value
            if column not in self._maximums or value > self._maximums[column]:
                self._maximums[column] = value

    def _scaled(self, column: str, value: float) -> float:
        if not self.rescale or column not in self._minimums:
            return value
        low, high = self._minimums[column], self._maximums[column]
        if high == low:
            return 0.0
        return (value - low) / (high - low)

    def compute_feature(self, row: EntityRow) -> SparseVector:
        """Vector of the configured numeric columns (rescaled, l2-normalized)."""
        vector = SparseVector(
            (position, self._scaled(column, float(row.get(column, 0.0) or 0.0)))
            for position, column in enumerate(self.columns)
        )
        if self.normalize:
            vector = vector.normalized(p=2.0)
        return vector

    def dimension(self) -> int:
        """Fixed dimensionality: one component per configured column."""
        return len(self.columns)
