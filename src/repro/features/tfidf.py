"""``tf_idf_bag_of_words`` — tf-idf scoring with incrementally maintained idf.

This is the paper's example of a feature function that needs the full
catalog-backed protocol: ``compute_stats`` scans the corpus to count document
frequencies, ``compute_stats_incremental`` folds one new document into those
counts, and ``compute_feature`` combines term frequencies with the stored
inverse document frequencies.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.exceptions import FeatureError
from repro.features.base import EntityRow, FeatureFunction, collect_text
from repro.features.text import Vocabulary, tokenize
from repro.linalg import SparseVector

__all__ = ["TfIdfBagOfWords"]


class TfIdfBagOfWords(FeatureFunction):
    """tf-idf bag of words with incrementally maintained document frequencies."""

    name = "tf_idf_bag_of_words"
    norm_q = 2.0

    def __init__(self, text_columns: tuple[str, ...] = ("text",), normalize: bool = True):
        self.text_columns = tuple(text_columns)
        self.normalize = bool(normalize)
        self.vocabulary = Vocabulary()
        self.document_frequency: dict[int, int] = {}
        self.document_count = 0

    def _tokens(self, row: EntityRow) -> list[str]:
        return tokenize(collect_text(row, self.text_columns))

    def compute_stats_incremental(self, row: EntityRow) -> None:
        """Fold one document into the document-frequency table."""
        self.document_count += 1
        for token in set(self._tokens(row)):
            index = self.vocabulary.get_or_add(token)
            self.document_frequency[index] = self.document_frequency.get(index, 0) + 1

    def inverse_document_frequency(self, index: int) -> float:
        """Smoothed idf for a vocabulary index."""
        df = self.document_frequency.get(index, 0)
        return math.log((1.0 + self.document_count) / (1.0 + df)) + 1.0

    def compute_feature(self, row: EntityRow) -> SparseVector:
        """tf-idf vector for the row; requires stats to have been computed."""
        if self.document_count == 0:
            raise FeatureError(
                "tf_idf_bag_of_words.compute_feature called before compute_stats; "
                "scan the corpus (or insert documents through the engine) first"
            )
        counts = Counter(self._tokens(row))
        weights: dict[int, float] = {}
        for token, count in counts.items():
            index = self.vocabulary.get_or_add(token)
            weights[index] = float(count) * self.inverse_document_frequency(index)
        vector = SparseVector(weights)
        if self.normalize:
            vector = vector.normalized(p=2.0)
        return vector

    def dimension(self) -> int | None:
        """Current vocabulary size."""
        return len(self.vocabulary)
