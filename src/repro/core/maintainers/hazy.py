"""Hazy's incremental maintenance strategies (paper §3.2 and §3.4).

Both strategies share the same machinery: a
:class:`~repro.core.bounds.WaterBandTracker` maintaining the cumulative
low/high-water band since the last reorganization, and a
:class:`~repro.core.skiing.SkiingStrategy` deciding when reorganizing the
scratch table is worth its cost.

* The **eager** variant reclassifies only the tuples inside the band on every
  model update, so updates touch a small fraction of the table.
* The **lazy** variant never reclassifies on update, and the wasted fraction
  of each All Members scan is the cost fed to the Skiing strategy (§3.4).

Both read All Members from the clustered layout: only the tuples that could
possibly be in the class (everything above the low water for the positive
class, below the high water for the negative) are scanned — the eager variant
filters their stored labels, the lazy one classifies them in one store call,
where a tuple above the high water is positive and one below the low water
negative by position, and only the band costs a dot product.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence

from repro.core.bounds import WaterBandTracker, holder_pair_for_norm
from repro.core.maintainers.base import EagerReads, ViewMaintainer
from repro.core.skiing import SkiingStrategy
from repro.core.stores.base import EntityStore
from repro.db.types import KeyRange
from repro.exceptions import MaintenanceError
from repro.learn.model import LinearModel, sign
from repro.linalg import SparseVector

__all__ = ["HazyEagerMaintainer", "HazyLazyMaintainer"]


class _HazyMaintainerBase(ViewMaintainer):
    """State shared by the eager and lazy Hazy strategies."""

    strategy_name = "hazy"

    def __init__(self, store: EntityStore, alpha: float = 1.0):
        super().__init__(store)
        self.holder_p, _ = holder_pair_for_norm(store.feature_norm_q)
        self.skiing = SkiingStrategy(alpha=alpha)
        self.tracker: WaterBandTracker | None = None

    def _require_tracker(self) -> WaterBandTracker:
        if self.tracker is None:
            raise MaintenanceError("bulk_load must run before maintenance operations")
        return self.tracker

    def bulk_load(
        self, entities: Iterable[tuple[object, SparseVector]], model: LinearModel
    ) -> None:
        """Load and cluster under ``model``; the load cost seeds the estimate of S."""
        self.current_model = model
        load_cost = self.store.bulk_load(entities, model)
        self.tracker = WaterBandTracker(self.holder_p, self.store.max_feature_norm)
        self.tracker.reset(model)
        self.skiing.reorganization_cost = load_cost
        self._loaded = True

    def export_state(self) -> dict[str, object]:
        """Base state plus the water-band tracker and the Skiing accounting."""
        state = super().export_state()
        tracker = self._require_tracker()
        band = tracker.band()
        state["stored_model"] = tracker.stored_model
        state["band_low"] = band.low
        state["band_high"] = band.high
        state["max_feature_norm"] = tracker.max_feature_norm
        # Skiing's accounts; its alpha is configuration, not state.
        state["skiing"] = dataclasses.asdict(self.skiing)
        del state["skiing"]["alpha"]
        return state

    def import_state(self, state: dict[str, object]) -> None:
        """Restore store + model, then resume the band and Skiing mid-stream.

        The tracker is reset under the snapshot's *stored* model (the one the
        imported eps values were computed against) and the cumulative band is
        restored verbatim, so the first post-restart update continues the
        checkpointed epoch instead of assuming a fresh reorganization.
        """
        super().import_state(state)
        stored_model, skiing_state = state["stored_model"], state["skiing"]
        if stored_model is None or skiing_state is None:
            raise MaintenanceError("Hazy snapshot is missing its stored model or Skiing state")
        self.tracker = WaterBandTracker(self.holder_p, float(state["max_feature_norm"]))
        self.tracker.reset(stored_model)
        self.tracker.restore_band(float(state["band_low"]), float(state["band_high"]))
        self.skiing = dataclasses.replace(self.skiing, **skiing_state)

    def add_entity(self, entity_id: object, features: SparseVector) -> int:
        """Store a new entity: eps under the *stored* model, label under the current one."""
        self._require_loaded()
        tracker = self._require_tracker()
        self.store.charge_dot_product(features)
        eps = tracker.stored_model.margin(features)
        self.store.charge_dot_product(features)
        label = sign(self.current_model.margin(features))
        self.store.insert(entity_id, features, eps, label)
        # Keep M = max ||f||_q correct so future bounds stay sound for this entity.
        tracker.observe_max_feature_norm(features.norm(self.store.feature_norm_q))
        return label

    def _reorganize(self) -> None:
        """Recluster under the current model and reset the band and waste."""
        tracker = self._require_tracker()
        cost = self.store.reorganize(self.current_model)
        tracker.max_feature_norm = self.store.max_feature_norm
        tracker.reset(self.current_model)
        self.skiing.record_reorganization(cost)
        self.stats.record_reorganization(cost)

    def band_tuple_count(self) -> int:
        """Number of tuples currently inside the water band (Figure 13's metric)."""
        band = self._require_tracker().band()
        return self.store.count_eps_in_range(band.low, band.high)

    def read_hint(self, entity_id: object) -> int | None:
        """The ε-map short-circuit of Figure 8, shared by the batched read path."""
        hint = self.store.eps_hint(entity_id)
        if hint is None:
            return None
        band = self._require_tracker().band()
        if band.certain_positive(hint):
            self.stats.epsmap_hits += 1
            return 1
        if band.certain_negative(hint):
            self.stats.epsmap_hits += 1
            return -1
        return None

    def position_band(self) -> tuple[float, float]:
        """The water band: above high water a tuple is positive, below low water negative."""
        band = self._require_tracker().band()
        return band.low, band.high

    def candidates(self, label: int) -> tuple[float | None, float | None]:
        """Only the tuples that could be in the class: above low water, or below high water.

        Lemma 3.1: below the low-water mark every tuple is negative under the
        current model, above the high-water mark every tuple positive — so an
        eager read's stored labels and a lazy read's classifier agree there.
        """
        band = self._require_tracker().band()
        return (band.low, None) if label == 1 else (None, band.high)


class HazyEagerMaintainer(EagerReads, _HazyMaintainerBase):
    """Eager maintenance that only reclassifies the water band on each update."""

    def apply_model(self, model: LinearModel) -> None:
        """One round of Figure 7: an Update is a batch of one model."""
        self.apply_model_batch([model])

    def apply_model_batch(self, models: Sequence[LinearModel]) -> None:
        """Figure 7 for a run of models: reorganize if the waste justifies it, else one pass.

        Lemma 3.1's band is *cumulative*: after advancing the tracker through
        every model of the batch, any tuple outside the cumulative band is
        guaranteed to carry the same label under the final model as it did when
        the epoch started, so one reclassification pass over the cumulative
        band under the final model restores the eager invariant — without the
        per-model band scans a one-by-one replay would pay.
        """
        models = list(models)
        if not models:
            return
        self._require_loaded()
        tracker = self._require_tracker()
        final = models[-1]
        self.current_model = final
        if self.skiing.should_reorganize():
            self._reorganize()
            # The round still counts as an Update; its cost is recorded as a
            # reorganization rather than an incremental step.
            self.stats.record_update(0, 0, 0.0)
            self.stats.record_band(0)
            return
        start = self.store.cost_snapshot()
        for model in models:
            self.store.charge_bound_update(model.weights.nnz())
            band = tracker.advance(model)
        touched, changed = self._relabel(final, (band.low, band.high))
        cost = self.store.cost_snapshot() - start
        self.skiing.record_incremental_step(cost)
        self.stats.record_update(touched, changed, cost)
        self.stats.record_band(touched)


class HazyLazyMaintainer(_HazyMaintainerBase):
    """Lazy maintenance with water-band pruned reads and §3.4 waste accounting."""

    approach = "lazy"

    def apply_model(self, model: LinearModel) -> None:
        """A lazy update is just a model swap plus a constant-time band update."""
        self._require_loaded()
        tracker = self._require_tracker()
        self.current_model = model
        start = self.store.cost_snapshot()
        self.store.charge_bound_update(model.weights.nnz())
        tracker.advance(model)
        self.stats.record_update(0, 0, self.store.cost_snapshot() - start)

    def _scan_members(
        self, label: int, key_range: KeyRange | None = None
    ) -> tuple[list[object], int, float]:
        """Skiing decides before the read; its wasted fraction (§3.4) is charged after it.

        Key-range reads feed the same accounting as All Members, so a
        range-only workload still reorganizes when re-clustering pays.
        """
        self._require_loaded()
        if self.skiing.should_reorganize():
            self._reorganize()
        members, touched, cost = super()._scan_members(label, key_range)
        self.skiing.record_lazy_waste(touched, len(members), cost)
        return members, touched, cost
