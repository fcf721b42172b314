"""Unit tests for LinearModel."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.learn.model import LinearModel, sign
from repro.learn.weights import Weights
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

    def test_a_model_cannot_be_written(self, simple_model):
        with pytest.raises(ValueError):
            simple_model.weights.array[0] = 99.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            simple_model.bias = 7.0
        assert simple_model.weights.cells.readonly
        assert simple_model.weights.array[0] == -1.0 and simple_model.bias == 0.5

    def test_sparse_weights_become_a_dense_array(self):
        model = LinearModel(Weights.of(SparseVector({3: 2.0, 1: -1.0})), bias=0.5)
        assert model.weights.array.tolist() == [0.0, -1.0, 0.0, 2.0]
        assert list(model.weights.items()) == [(1, -1.0), (3, 2.0)]
        assert model.weights.nnz() == 2
        assert model == LinearModel(Weights(np.array([0.0, -1.0, 0.0, 2.0, 0.0])), bias=0.5)

    def test_margin_reads_past_the_weights_as_zero(self):
        model = LinearModel(Weights.of(SparseVector({0: 2.0})), bias=1.0)
        assert model.margin(SparseVector({0: 1.5, 7: 4.0})) == 2.0

    def test_norm(self, simple_model):
        assert simple_model.norm(2) == pytest.approx(math.sqrt(2.0))
        assert simple_model.norm(math.inf) == pytest.approx(1.0)

    def test_repr_contains_version(self, simple_model):
        assert "version=1" in repr(simple_model)
