"""The naive eager and lazy strategies (paper §2.2, "Naïve Approach").

These are the baselines Hazy is compared against: the eager variant relabels
every entity on every model update; the lazy variant does nothing on update
and reclassifies whatever a read touches.
"""

from __future__ import annotations

from repro.core.maintainers.base import EagerReads, ViewMaintainer
from repro.learn.model import LinearModel

__all__ = ["NaiveEagerMaintainer", "NaiveLazyMaintainer"]


class NaiveEagerMaintainer(EagerReads, ViewMaintainer):
    """Eager baseline: every Update rescans and relabels the whole table."""

    strategy_name = "naive"

    def apply_model(self, model: LinearModel) -> None:
        """Full scan: classify every entity under the new model and write its label."""
        self._require_loaded()
        self.current_model = model
        start = self.store.cost_snapshot()
        touched, changed = self._relabel(model)
        self.stats.record_update(touched, changed, self.store.cost_snapshot() - start)


class NaiveLazyMaintainer(ViewMaintainer):
    """Lazy baseline: free updates, reads reclassify with the current model."""

    strategy_name = "naive"
    approach = "lazy"

    def apply_model(self, model: LinearModel) -> None:
        """A lazy update only swaps the model pointer (optimal update cost)."""
        self._require_loaded()
        self.current_model = model
        self.stats.record_update(0, 0, 0.0)

