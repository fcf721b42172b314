"""Unit tests for the loss functions and the L2 penalty (Figure 9)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.learn.loss import HingeLoss, LogisticLoss, SquaredLoss, get_loss
from repro.learn.regularizers import L2Penalty


class TestHingeLoss:
    loss = HingeLoss()

    def test_zero_beyond_margin(self):
        assert self.loss.value(2.0, 1.0) == 0.0
        assert self.loss.value(-2.0, -1.0) == 0.0

    def test_linear_inside_margin(self):
        assert self.loss.value(0.0, 1.0) == pytest.approx(1.0)
        assert self.loss.value(-1.0, 1.0) == pytest.approx(2.0)

    def test_derivative_active(self):
        assert self.loss.derivative(0.0, 1.0) == -1.0
        assert self.loss.derivative(0.0, -1.0) == 1.0

    def test_derivative_inactive(self):
        assert self.loss.derivative(2.0, 1.0) == 0.0

    def test_boundary_is_inactive(self):
        # z * y == 1 is exactly on the margin: no sub-gradient step is taken.
        assert self.loss.derivative(1.0, 1.0) == 0.0


class TestSquaredLoss:
    loss = SquaredLoss()

    def test_value(self):
        assert self.loss.value(0.5, 1.0) == pytest.approx(0.25)

    def test_derivative(self):
        assert self.loss.derivative(0.5, 1.0) == pytest.approx(-1.0)

    def test_minimum_at_label(self):
        assert self.loss.value(1.0, 1.0) == 0.0
        assert self.loss.derivative(1.0, 1.0) == 0.0


class TestLogisticLoss:
    loss = LogisticLoss()

    def test_value_at_zero(self):
        assert self.loss.value(0.0, 1.0) == pytest.approx(math.log(2.0))

    def test_value_decreases_with_margin(self):
        assert self.loss.value(3.0, 1.0) < self.loss.value(0.0, 1.0)

    def test_derivative_sign(self):
        assert self.loss.derivative(0.0, 1.0) < 0
        assert self.loss.derivative(0.0, -1.0) > 0

    def test_numerically_stable_for_large_margins(self):
        assert self.loss.value(1000.0, -1.0) == pytest.approx(1000.0)
        assert self.loss.value(1000.0, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert self.loss.derivative(1000.0, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert self.loss.derivative(-1000.0, 1.0) == pytest.approx(-1.0)


class TestLossRegistry:
    def test_lookup_by_alias(self):
        assert isinstance(get_loss("svm"), HingeLoss)
        assert isinstance(get_loss("ridge"), SquaredLoss)
        assert isinstance(get_loss("logistic_regression"), LogisticLoss)

    def test_instance_passthrough(self):
        loss = HingeLoss()
        assert get_loss(loss) is loss

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            get_loss("bogus")


class TestL2Penalty:
    def test_value(self):
        penalty = L2Penalty(strength=0.5)
        assert penalty.value(np.array([2.0])) == pytest.approx(1.0)

    def test_apply_shrinks_weights(self):
        penalty = L2Penalty(strength=0.1)
        weights = np.array([1.0])
        shrunk = penalty.shrink(weights, learning_rate=1.0)
        assert shrunk[0] == pytest.approx(0.9)
        assert shrunk is not weights and weights[0] == 1.0

    def test_apply_never_flips_sign(self):
        penalty = L2Penalty(strength=10.0)
        weights = penalty.shrink(np.array([1.0]), learning_rate=1.0)
        assert weights[0] == 0.0

    def test_negative_strength_rejected(self):
        with pytest.raises(ConfigurationError):
            L2Penalty(strength=-1.0)
