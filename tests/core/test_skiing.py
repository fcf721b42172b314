"""Unit tests for the Skiing strategy and the offline optimal scheduler."""

from __future__ import annotations

import math

import pytest

from repro.core.skiing import (
    OfflineOptimalScheduler,
    SkiingStrategy,
    optimal_alpha,
    simulate_skiing_on_trace,
)
from repro.exceptions import ConfigurationError


class TestOptimalAlpha:
    def test_alpha_is_one_when_sigma_zero(self):
        """Theorem 3.3: as sigma -> 0, alpha -> 1 and the ratio tends to 2."""
        assert optimal_alpha(0.0) == pytest.approx(1.0)

    def test_alpha_solves_quadratic(self):
        for sigma in (0.1, 0.5, 1.0, 2.0):
            alpha = optimal_alpha(sigma)
            assert alpha**2 + sigma * alpha - 1.0 == pytest.approx(0.0, abs=1e-12)

    def test_alpha_decreases_with_sigma(self):
        assert optimal_alpha(1.0) < optimal_alpha(0.1)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            optimal_alpha(-0.1)


class TestSkiingStrategy:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            SkiingStrategy(alpha=-1.0)
        with pytest.raises(ConfigurationError):
            SkiingStrategy(reorganization_cost=-1.0)

    def test_accumulates_incremental_costs(self):
        strategy = SkiingStrategy(alpha=1.0, reorganization_cost=10.0)
        strategy.record_incremental_step(3.0)
        strategy.record_incremental_step(4.0)
        assert strategy.accumulated_cost == pytest.approx(7.0)
        assert not strategy.should_reorganize()

    def test_reorganizes_when_waste_reaches_threshold(self):
        strategy = SkiingStrategy(alpha=1.0, reorganization_cost=10.0)
        strategy.record_incremental_step(6.0)
        strategy.record_incremental_step(5.0)
        assert strategy.should_reorganize()

    def test_alpha_scales_threshold(self):
        strategy = SkiingStrategy(alpha=2.0, reorganization_cost=10.0)
        strategy.record_incremental_step(15.0)
        assert not strategy.should_reorganize()
        strategy.record_incremental_step(5.0)
        assert strategy.should_reorganize()

    def test_reorganization_resets_accumulator_and_updates_cost(self):
        strategy = SkiingStrategy(alpha=1.0, reorganization_cost=10.0)
        strategy.record_incremental_step(12.0)
        decision = strategy.record_reorganization(8.0)
        assert decision.reorganize
        assert strategy.accumulated_cost == 0.0
        assert strategy.reorganization_cost == 8.0
        assert strategy.reorganizations == 1

    def test_zero_reorg_cost_triggers_immediately(self):
        strategy = SkiingStrategy(alpha=1.0, reorganization_cost=0.0)
        assert strategy.should_reorganize()

    def test_negative_costs_rejected(self):
        strategy = SkiingStrategy()
        with pytest.raises(ConfigurationError):
            strategy.record_incremental_step(-1.0)
        with pytest.raises(ConfigurationError):
            strategy.record_reorganization(-1.0)

    def test_lazy_waste_formula(self):
        """Section 3.4: c = (NR - N+) / NR * S."""
        strategy = SkiingStrategy(alpha=1.0, reorganization_cost=100.0)
        charged = strategy.record_lazy_waste(tuples_read=200, members=150, scan_cost=8.0)
        assert charged == pytest.approx((200 - 150) / 200 * 8.0)
        assert strategy.accumulated_cost == pytest.approx(charged)

    def test_lazy_waste_zero_reads(self):
        assert SkiingStrategy().record_lazy_waste(0, 0, 5.0) == 0.0

    def test_total_cost_and_history(self):
        strategy = SkiingStrategy(alpha=1.0, reorganization_cost=5.0)
        strategy.record_incremental_step(2.0)
        strategy.record_reorganization(5.0)
        assert strategy.total_cost() == pytest.approx(7.0)
        assert len(strategy.history) == 2
        assert strategy.rounds == 2


class TestOfflineOptimal:
    def test_never_reorganize_when_costs_are_zero(self):
        scheduler = OfflineOptimalScheduler(reorganization_cost=10.0)
        cost, schedule = scheduler.solve(lambda s, i: 0.0, rounds=20)
        assert cost == 0.0
        assert schedule == []

    def test_single_reorganization_beats_paying_forever(self):
        # Cost is 1 per round until reorganized, 0 afterwards.
        scheduler = OfflineOptimalScheduler(reorganization_cost=3.0)
        cost, schedule = scheduler.solve(lambda s, i: 1.0 if s == 0 else 0.0, rounds=10)
        assert cost == pytest.approx(3.0)  # reorganize at round 1
        assert schedule == [1]

    def test_no_reorganization_when_too_expensive(self):
        scheduler = OfflineOptimalScheduler(reorganization_cost=100.0)
        cost, schedule = scheduler.solve(lambda s, i: 1.0 if s == 0 else 0.0, rounds=10)
        assert cost == pytest.approx(10.0)
        assert schedule == []

    def test_negative_rounds_rejected(self):
        with pytest.raises(ConfigurationError):
            OfflineOptimalScheduler(1.0).solve(lambda s, i: 0.0, rounds=-1)

    def test_invalid_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            OfflineOptimalScheduler(-1.0)


class TestCompetitiveRatio:
    def _ratio(self, cost_fn, rounds: int, reorg_cost: float, alpha: float = 1.0) -> float:
        skiing_cost, _ = simulate_skiing_on_trace(cost_fn, rounds, reorg_cost, alpha=alpha)
        optimal_cost, _ = OfflineOptimalScheduler(reorg_cost).solve(cost_fn, rounds)
        if optimal_cost == 0:
            return 1.0 if skiing_cost == 0 else math.inf
        return skiing_cost / optimal_cost

    def test_ratio_bounded_on_linear_drift(self):
        """Costs grow linearly with rounds since reorganization (monotone)."""
        ratio = self._ratio(lambda s, i: 0.3 * (i - s), rounds=40, reorg_cost=5.0)
        assert ratio <= 2.0 + 1e-9

    def test_ratio_bounded_on_constant_costs(self):
        ratio = self._ratio(lambda s, i: 0.5 if s == 0 else 0.2, rounds=60, reorg_cost=4.0)
        assert ratio <= 2.0 + 1e-9

    def test_ratio_bounded_on_step_costs(self):
        def cost(s: int, i: int) -> float:
            return 1.0 if (i - s) > 5 else 0.1

        assert self._ratio(cost, rounds=50, reorg_cost=3.0) <= 2.0 + 1e-9

    def test_skiing_never_much_worse_than_never_reorganizing(self):
        skiing_cost, reorgs = simulate_skiing_on_trace(
            lambda s, i: 0.0, rounds=30, reorganization_cost=5.0
        )
        assert skiing_cost == 0.0
        assert reorgs == []
