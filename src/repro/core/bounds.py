"""Low-water / high-water bounds from Hölder's inequality (Lemma 3.1, Eq. 2).

Given the stored model ``(w_s, b_s)`` (the one the scratch table ``H`` is
clustered under) and the current model ``(w_j, b_j)``, write
``delta_w = w_j - w_s`` and ``delta_b = b_j - b_s``.  For any entity with
stored margin ``eps = w_s · f - b_s`` and ``M = max_t ||f(t)||_q``:

* if ``eps >= eps_high = M * ||delta_w||_p + delta_b`` the entity is certainly
  in the positive class under the *current* model;
* if ``eps <= eps_low = -M * ||delta_w||_p + delta_b`` it is certainly in the
  negative class.

The cumulative band ``[lw, hw]`` (Eq. 2) takes the min/max of these bounds
over every round since the last reorganization, so that entities outside the
band are guaranteed to still carry the label they had when ``H`` was built.
The stored model is held by reference (a model version is never changed), and
``||delta_w||_p`` (:func:`weight_distance`) is two vectorised passes over the
two weight arrays, zero-padded to one length: the difference, then its norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import MaintenanceError
from repro.learn.model import LinearModel
from repro.learn.weights import Weights
from repro.linalg import holder_conjugate, p_norm

__all__ = ["WaterBand", "WaterBandTracker", "holder_pair_for_norm", "weight_distance"]


def holder_pair_for_norm(feature_norm_q: float) -> tuple[float, float]:
    """Return the Hölder pair ``(p, q)`` given the q-norm the features obey.

    Text features are l1-normalized (q = 1) so the model delta is measured in
    the infinity norm; dense features are l2-normalized (q = 2) so p = 2.
    """
    q = float(feature_norm_q)
    if q < 1:
        raise MaintenanceError(f"feature norm q must be >= 1, got {q}")
    return holder_conjugate(q), q


def weight_distance(current: Weights, stored: Weights, p: float) -> float:
    """``||w - w_s||_p`` over the zero-padded weight arrays.

    For ``p = inf`` — text features, the per-update case — one vectorised
    maximum, exact in any order; any other ``p`` sums in index order.
    """
    w, w_s = current.array, stored.array
    with np.errstate(over="ignore"):  # a difference past the float range is inf, as in Python
        if len(w) != len(w_s):
            shared = min(len(w), len(w_s))
            difference = np.concatenate((w[:shared] - w_s[:shared], w[shared:], -w_s[shared:]))
        else:
            difference = w - w_s
    if p == math.inf:
        return float(np.abs(difference).max(initial=0.0))
    return p_norm(difference, p)


@dataclass(frozen=True)
class WaterBand:
    """The closed interval ``[low, high]`` of stored-eps values that must be rechecked."""

    low: float
    high: float

    def contains(self, eps: float) -> bool:
        """Whether a stored eps falls inside the band (inclusive)."""
        return self.low <= eps <= self.high

    def certain_positive(self, eps: float) -> bool:
        """Entity is certainly in the positive class under the current model."""
        return eps > self.high

    def certain_negative(self, eps: float) -> bool:
        """Entity is certainly in the negative class under the current model."""
        return eps < self.low

    def width(self) -> float:
        """Band width (may be 0 when the model has not moved)."""
        return max(0.0, self.high - self.low)


class WaterBandTracker:
    """Maintains ``lw`` / ``hw`` between reorganizations.

    Parameters
    ----------
    p:
        Hölder exponent applied to the *model delta* norm.
    max_feature_norm:
        ``M = max_t ||f(t)||_q`` with ``q`` the conjugate of ``p``.  Only a
        function of the entity set; the stores keep it up to date as entities
        arrive.
    """

    def __init__(self, p: float, max_feature_norm: float):
        if max_feature_norm < 0:
            raise MaintenanceError("max feature norm must be non-negative")
        self.p = float(p)
        self.q = holder_conjugate(self.p) if self.p != math.inf else 1.0
        self.max_feature_norm = float(max_feature_norm)
        self._stored_model: LinearModel | None = None
        self._band = WaterBand(0.0, 0.0)

    # -- lifecycle -----------------------------------------------------------------

    def reset(self, stored_model: LinearModel) -> None:
        """Start a new epoch: the store was just (re)organized under ``stored_model``."""
        self._stored_model = stored_model
        self._band = WaterBand(0.0, 0.0)

    def restore_band(self, low: float, high: float) -> None:
        """Resume a cumulative band mid-stream (checkpoint recovery).

        ``reset`` must have been called with the snapshot's stored model
        first; the band then picks up exactly where the checkpointed epoch
        left off instead of collapsing to width 0, keeping Lemma 3.1 sound
        for every model movement since the last reorganization.
        """
        if low > 0.0 or high < 0.0:
            raise MaintenanceError(
                f"cumulative band must contain 0, got [{low}, {high}]"
            )
        self._band = WaterBand(float(low), float(high))

    @property
    def stored_model(self) -> LinearModel:
        """The model the current epoch is clustered under."""
        if self._stored_model is None:
            raise MaintenanceError("WaterBandTracker.reset was never called")
        return self._stored_model

    def observe_max_feature_norm(self, feature_norm: float) -> None:
        """Raise ``M`` when a new entity with a larger q-norm arrives."""
        if feature_norm > self.max_feature_norm:
            self.max_feature_norm = feature_norm

    # -- the bounds ---------------------------------------------------------------------

    def step_bounds(self, current_model: LinearModel) -> tuple[float, float]:
        """``(eps_low, eps_high)`` of Lemma 3.1 for the given current model."""
        stored = self.stored_model
        radius = self.max_feature_norm * weight_distance(
            current_model.weights, stored.weights, self.p
        )
        bias_delta = current_model.bias - stored.bias
        return (-radius + bias_delta, radius + bias_delta)

    def advance(self, current_model: LinearModel) -> WaterBand:
        """Fold the current model's bounds into the cumulative band (Eq. 2)."""
        eps_low, eps_high = self.step_bounds(current_model)
        self._band = WaterBand(min(self._band.low, eps_low), max(self._band.high, eps_high))
        return self._band

    def band(self) -> WaterBand:
        """The cumulative band ``[lw, hw]`` for the current epoch.

        The same frozen object until :meth:`advance`, :meth:`reset` or
        :meth:`restore_band` moves it, so reads that consult it more than once
        (the ε-map hint, then the classifier) build nothing.
        """
        return self._band
