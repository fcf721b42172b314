"""TF-ICF: term frequency, inverse *corpus* frequency (Appendix A.2).

Unlike tf-idf, the corpus frequencies are computed once from a reference
corpus and are explicitly *not* updated as new documents arrive — the paper
cites Reed et al. (ICMLA 2006) for this scheme, which trades a small quality
loss for fully streaming behaviour.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable

from repro.features.base import EntityRow, FeatureFunction, collect_text
from repro.features.text import Vocabulary, tokenize
from repro.linalg import SparseVector

__all__ = ["TfIcfBagOfWords"]


class TfIcfBagOfWords(FeatureFunction):
    """tf-icf bag of words: corpus frequencies frozen after the initial scan."""

    name = "tf_icf_bag_of_words"
    norm_q = 2.0

    def __init__(self, text_columns: tuple[str, ...] = ("text",), normalize: bool = True):
        self.text_columns = tuple(text_columns)
        self.normalize = bool(normalize)
        self.vocabulary = Vocabulary()
        self.corpus_frequency: dict[int, int] = {}
        self.corpus_size = 0
        self._frozen = False

    def _tokens(self, row: EntityRow) -> list[str]:
        return tokenize(collect_text(row, self.text_columns))

    def compute_stats(self, rows: Iterable[EntityRow]) -> None:
        """Scan the reference corpus once, then freeze the statistics."""
        for row in rows:
            self.corpus_size += 1
            for token in set(self._tokens(row)):
                index = self.vocabulary.get_or_add(token)
                self.corpus_frequency[index] = self.corpus_frequency.get(index, 0) + 1
        self._frozen = True

    def compute_stats_incremental(self, row: EntityRow) -> None:
        """Explicitly a no-op once frozen: TF-ICF never updates corpus frequencies."""
        if not self._frozen:
            self.corpus_size += 1
            for token in set(self._tokens(row)):
                index = self.vocabulary.get_or_add(token)
                self.corpus_frequency[index] = self.corpus_frequency.get(index, 0) + 1

    def freeze(self) -> None:
        """Freeze the corpus statistics (further documents will not change them)."""
        self._frozen = True

    @property
    def frozen(self) -> bool:
        """Whether the corpus statistics have been frozen."""
        return self._frozen

    def inverse_corpus_frequency(self, index: int) -> float:
        """Smoothed icf for a vocabulary index."""
        cf = self.corpus_frequency.get(index, 0)
        return math.log((1.0 + self.corpus_size) / (1.0 + cf)) + 1.0

    def compute_feature(self, row: EntityRow) -> SparseVector:
        """tf-icf vector for the row (unseen tokens get the maximum icf)."""
        counts = Counter(self._tokens(row))
        weights: dict[int, float] = {}
        for token, count in counts.items():
            index = self.vocabulary.get_or_add(token)
            weights[index] = float(count) * self.inverse_corpus_frequency(index)
        vector = SparseVector(weights)
        if self.normalize:
            vector = vector.normalized(p=2.0)
        return vector

    def dimension(self) -> int | None:
        """Current vocabulary size."""
        return len(self.vocabulary)
