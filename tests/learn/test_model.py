"""Unit tests for LinearModel."""

from __future__ import annotations

import math

import pytest

from repro.learn.model import LinearModel, sign
from repro.linalg import SparseVector


class TestSign:
    def test_positive(self):
        assert sign(0.5) == 1

    def test_zero_is_positive(self):
        # The paper defines sign(x) = 1 when x >= 0.
        assert sign(0.0) == 1

    def test_negative(self):
        assert sign(-0.1) == -1


class TestLinearModel:
    def test_margin_matches_paper_example(self, simple_model, example_paper_vectors):
        """Example 2.2: with w = (-1, 1), b = 0.5, P1 and P3 are database papers."""
        margins = {
            name: simple_model.margin(vector)
            for name, vector in example_paper_vectors.items()
        }
        assert margins["P1"] == pytest.approx(0.5)   # (-3 + 4) - 0.5
        assert margins["P3"] == pytest.approx(0.5)   # (-1 + 2) - 0.5
        assert margins["P2"] == pytest.approx(-1.5)
        assert margins["P4"] == pytest.approx(-1.5)
        assert margins["P5"] == pytest.approx(-4.5)

    def test_predict_matches_paper_example(self, simple_model, example_paper_vectors):
        labels = {
            name: simple_model.predict(vector)
            for name, vector in example_paper_vectors.items()
        }
        assert labels == {"P1": 1, "P2": -1, "P3": 1, "P4": -1, "P5": -1}

    def test_copy_is_independent(self, simple_model):
        clone = simple_model.copy()
        clone.weights[0] = 99.0
        clone.bias = 7.0
        assert simple_model.weights[0] == -1.0
        assert simple_model.bias == 0.5

    def test_is_zero(self):
        assert LinearModel().is_zero()
        assert not LinearModel(bias=1.0).is_zero()

    def test_norm(self, simple_model):
        assert simple_model.norm(2) == pytest.approx(math.sqrt(2.0))
        assert simple_model.norm(math.inf) == pytest.approx(1.0)

    def test_repr_contains_version(self, simple_model):
        assert "version=1" in repr(simple_model)
