"""Unit tests for the metrics."""

from __future__ import annotations

import pytest

from repro.learn.metrics import accuracy, confusion_counts, f1_score, precision_recall


class TestMetrics:
    def test_confusion_counts(self):
        counts = confusion_counts([1, 1, -1, -1], [1, -1, -1, 1])
        assert counts.true_positive == 1
        assert counts.false_positive == 1
        assert counts.true_negative == 1
        assert counts.false_negative == 1
        assert counts.total == 4

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            confusion_counts([1], [1, -1])

    def test_accuracy(self):
        assert accuracy([1, -1, 1], [1, -1, -1]) == pytest.approx(2 / 3)

    def test_accuracy_empty_is_one(self):
        assert accuracy([], []) == 1.0

    def test_precision_recall(self):
        precision, recall = precision_recall([1, 1, -1], [1, -1, 1])
        assert precision == pytest.approx(0.5)
        assert recall == pytest.approx(0.5)

    def test_precision_degenerate_cases(self):
        precision, recall = precision_recall([-1, -1], [-1, -1])
        assert precision == 1.0
        assert recall == 1.0

    def test_f1_score(self):
        assert f1_score([1, 1, -1], [1, -1, 1]) == pytest.approx(0.5)

    def test_f1_zero_when_no_positives_predicted_but_present(self):
        assert f1_score([-1, -1], [1, 1]) == pytest.approx(0.0)
