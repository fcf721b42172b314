"""Unit tests for the low/high-water bounds (Lemma 3.1 and Eq. 2)."""

from __future__ import annotations

import math

import pytest

from repro.core.bounds import WaterBand, WaterBandTracker, holder_pair_for_norm, weight_distance
from repro.exceptions import MaintenanceError
from repro.learn.model import LinearModel
from repro.learn.weights import Weights
from repro.linalg import SparseVector


class TestHolderPair:
    def test_l1_features_use_infinity_norm(self):
        p, q = holder_pair_for_norm(1.0)
        assert p == math.inf
        assert q == 1.0

    def test_l2_features_are_self_conjugate(self):
        p, q = holder_pair_for_norm(2.0)
        assert p == pytest.approx(2.0)
        assert q == pytest.approx(2.0)

    def test_invalid_norm_rejected(self):
        with pytest.raises(MaintenanceError):
            holder_pair_for_norm(0.5)


class TestWeightDistance:
    """``||w - w_s||_p``, the radius of Lemma 3.1, over zero-padded weight arrays."""

    def test_distance_for_holder_pairs(self, simple_model):
        moved = Weights.of(SparseVector({0: -0.7, 1: 1.0, 5: -0.4}))
        assert weight_distance(moved, simple_model.weights, math.inf) == pytest.approx(0.4)
        assert weight_distance(moved, simple_model.weights, 1) == pytest.approx(0.7)
        assert weight_distance(moved, simple_model.weights, 2) == pytest.approx(0.5)

    def test_distance_to_itself_is_zero(self, simple_model):
        for p in (1, 2, 3, math.inf):
            assert weight_distance(simple_model.weights, simple_model.weights, p) == 0.0

    def test_cells_on_either_side_only_count(self):
        left = Weights.of(SparseVector({0: 1.0, 2: -2.0}))
        right = Weights.of(SparseVector({1: 3.0}))
        assert weight_distance(left, right, math.inf) == 3.0
        assert weight_distance(right, left, 1) == 6.0
        assert weight_distance(Weights(), right, math.inf) == 3.0

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            weight_distance(Weights.of(SparseVector({0: 1.0})), Weights(), 0)


class TestWaterBand:
    def test_containment_is_inclusive(self):
        band = WaterBand(-0.5, 0.5)
        assert band.contains(-0.5)
        assert band.contains(0.5)
        assert not band.contains(0.6)

    def test_certainty_is_strict(self):
        band = WaterBand(-0.5, 0.5)
        assert band.certain_positive(0.6)
        assert not band.certain_positive(0.5)
        assert band.certain_negative(-0.6)
        assert not band.certain_negative(-0.5)

    def test_width(self):
        assert WaterBand(-0.5, 0.5).width() == pytest.approx(1.0)
        assert WaterBand(0.0, 0.0).width() == 0.0


class TestWaterBandTracker:
    def make_tracker(self, p: float = math.inf, m: float = 1.0) -> WaterBandTracker:
        tracker = WaterBandTracker(p, m)
        tracker.reset(LinearModel(weights=Weights.of(SparseVector({0: 1.0})), bias=0.0, version=0))
        return tracker

    def test_reset_required_before_use(self):
        tracker = WaterBandTracker(math.inf, 1.0)
        with pytest.raises(MaintenanceError):
            _ = tracker.stored_model

    def test_negative_feature_norm_rejected(self):
        with pytest.raises(MaintenanceError):
            WaterBandTracker(math.inf, -1.0)

    def test_band_is_degenerate_when_model_unchanged(self):
        tracker = self.make_tracker()
        band = tracker.advance(tracker.stored_model)
        assert band.low == 0.0
        assert band.high == 0.0

    def test_step_bounds_match_lemma_formula(self):
        tracker = self.make_tracker(p=math.inf, m=2.0)
        current = LinearModel(
            weights=Weights.of(SparseVector({0: 1.3, 5: -0.2})), bias=0.4, version=1
        )
        low, high = tracker.step_bounds(current)
        # delta_w = {0: 0.3, 5: -0.2}; ||delta||_inf = 0.3; delta_b = 0.4
        assert high == pytest.approx(2.0 * 0.3 + 0.4)
        assert low == pytest.approx(-2.0 * 0.3 + 0.4)

    def test_step_bounds_with_l2_pair(self):
        tracker = WaterBandTracker(2.0, 1.5)
        tracker.reset(LinearModel())
        current = LinearModel(
            weights=Weights.of(SparseVector({0: 3.0, 1: 4.0})), bias=-1.0, version=1
        )
        low, high = tracker.step_bounds(current)
        assert high == pytest.approx(1.5 * 5.0 - 1.0)
        assert low == pytest.approx(-1.5 * 5.0 - 1.0)

    def test_cumulative_band_is_monotone(self):
        tracker = self.make_tracker()
        first = tracker.advance(LinearModel(Weights.of(SparseVector({0: 1.1})), 0.05, 1))
        second = tracker.advance(LinearModel(Weights.of(SparseVector({0: 1.05})), 0.02, 2))
        assert second.low <= first.low
        assert second.high >= first.high

    def test_band_always_includes_zero(self):
        tracker = self.make_tracker()
        band = tracker.advance(LinearModel(Weights.of(SparseVector({0: 2.0})), 5.0, 1))
        assert band.low <= 0.0 <= band.high

    def test_observe_max_feature_norm_only_grows(self):
        tracker = self.make_tracker(m=1.0)
        tracker.observe_max_feature_norm(0.5)
        assert tracker.max_feature_norm == 1.0
        tracker.observe_max_feature_norm(2.5)
        assert tracker.max_feature_norm == 2.5

    def test_lemma_soundness_on_example(self):
        """Entities outside the band keep the stored-model label under the new model."""
        stored = LinearModel(Weights.of(SparseVector({0: 1.0, 1: -0.5})), 0.1, 0)
        current = LinearModel(Weights.of(SparseVector({0: 1.2, 1: -0.4})), 0.15, 1)
        entities = [
            SparseVector({0: 0.6, 1: 0.4}),
            SparseVector({0: 0.1, 1: 0.9}),
            SparseVector({0: 0.9}),
            SparseVector({1: 1.0}),
        ]
        m = max(vector.norm(1) for vector in entities)
        tracker = WaterBandTracker(math.inf, m)
        tracker.reset(stored)
        band = tracker.advance(current)
        for vector in entities:
            eps = stored.margin(vector)
            if band.certain_positive(eps):
                assert current.predict(vector) == 1
            if band.certain_negative(eps):
                assert current.predict(vector) == -1
