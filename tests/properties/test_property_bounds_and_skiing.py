"""Property-based tests for the paper's two core guarantees.

1. Lemma 3.1 soundness: an entity whose stored eps lies outside the cumulative
   low/high-water band never changes label relative to the current model.
2. Lemma 3.2 / Theorem 3.3: the Skiing strategy's cost is within (1 + alpha)
   times the offline optimum on monotone cost traces.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import WaterBandTracker
from repro.core.skiing import OfflineOptimalScheduler, simulate_skiing_on_trace
from repro.learn.model import LinearModel
from repro.learn.weights import Weights, add_scaled
from repro.linalg import SparseVector

DIMENSION = 12

feature_vectors = st.dictionaries(
    keys=st.integers(min_value=0, max_value=DIMENSION - 1),
    values=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
).map(SparseVector)

model_updates = st.lists(
    st.tuples(
        st.dictionaries(
            keys=st.integers(min_value=0, max_value=DIMENSION - 1),
            values=st.floats(min_value=-0.5, max_value=0.5, allow_nan=False, allow_infinity=False),
            max_size=4,
        ),
        st.floats(min_value=-0.3, max_value=0.3, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=8,
)


class TestWaterBandSoundness:
    @given(
        st.lists(feature_vectors, min_size=1, max_size=25),
        feature_vectors,
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        model_updates,
        st.sampled_from([math.inf, 2.0]),
    )
    @settings(max_examples=120, deadline=None)
    def test_entities_outside_band_never_flip(
        self, entities, initial_weights, initial_bias, updates, holder_p
    ):
        q = 1.0 if holder_p == math.inf else 2.0
        stored = LinearModel(weights=Weights.of(initial_weights), bias=initial_bias, version=0)
        max_norm = max(vector.norm(q) for vector in entities)
        tracker = WaterBandTracker(holder_p, max_norm)
        tracker.reset(stored)
        stored_eps = [stored.margin(vector) for vector in entities]

        weights, current = initial_weights.to_dense(), stored
        for step, (weight_change, bias_change) in enumerate(updates, start=1):
            weights = add_scaled(weights.copy(), SparseVector(weight_change), 1.0)
            current = LinearModel(Weights(weights), current.bias + bias_change, step)
            band = tracker.advance(current)
            for eps, vector in zip(stored_eps, entities):
                if band.certain_positive(eps):
                    assert current.predict(vector) == 1
                elif band.certain_negative(eps):
                    assert current.predict(vector) == -1

    @given(model_updates)
    @settings(max_examples=60, deadline=None)
    def test_band_grows_monotonically(self, updates):
        tracker = WaterBandTracker(math.inf, 1.0)
        tracker.reset(LinearModel())
        weights, current = np.zeros(0), LinearModel()
        previous_band = tracker.band()
        for step, (weight_change, bias_change) in enumerate(updates, start=1):
            weights = add_scaled(weights.copy(), SparseVector(weight_change), 1.0)
            current = LinearModel(Weights(weights), current.bias + bias_change, step)
            band = tracker.advance(current)
            assert band.low <= previous_band.low
            assert band.high >= previous_band.high
            previous_band = band


cost_traces = st.lists(
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=25,
)


class TestSkiingCompetitiveness:
    @given(cost_traces, st.floats(min_value=0.5, max_value=10.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_ratio_within_lemma_bound_on_monotone_traces(self, increments, reorg_cost):
        """Costs accumulate with rounds-since-reorganization (monotone, as in Hazy).

        Lemma 3.2 assumes every per-round cost is at most ``sigma * S`` (the
        scan is cheaper than the reorganization); the bound is then
        ``(1 + alpha + sigma) * OPT`` plus a boundary term for the trailing
        interval of a finite trace, which can hold up to ``(alpha + sigma) * S``
        of waste that the optimum never has to pay for.
        """
        sigma = 0.25
        rounds = len(increments)
        prefix = [0.0]
        for increment in increments:
            prefix.append(prefix[-1] + increment * sigma * reorg_cost / 2.0)

        def cost(s: int, i: int) -> float:
            # Waste accumulated since the reorganization at s, capped at sigma*S.
            return min(prefix[i] - prefix[s], sigma * reorg_cost)

        skiing_cost, _ = simulate_skiing_on_trace(cost, rounds, reorg_cost, alpha=1.0)
        optimal_cost, _ = OfflineOptimalScheduler(reorg_cost).solve(cost, rounds)
        bound = (1.0 + 1.0 + sigma) * optimal_cost + (1.0 + sigma) * reorg_cost
        assert skiing_cost <= bound + 1e-9

    @given(st.floats(min_value=0.01, max_value=1.0), st.floats(min_value=0.5, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_constant_cost_traces(self, per_round, reorg_cost):
        rounds = 30

        def cost(s: int, i: int) -> float:
            return per_round

        skiing_cost, _ = simulate_skiing_on_trace(cost, rounds, reorg_cost, alpha=1.0)
        optimal_cost, _ = OfflineOptimalScheduler(reorg_cost).solve(cost, rounds)
        # With constant (non-improving) costs the optimum never reorganizes.
        assert optimal_cost <= rounds * per_round + 1e-9
        assert skiing_cost <= 2.0 * optimal_cost + reorg_cost + 1e-9
