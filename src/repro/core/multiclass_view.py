"""Multiclass classification views via one-versus-all (Appendix B.5.4, Figure 12B).

A multiclass view is a set of binary classification views, one per label, each
maintained with the same machinery as the binary case (any architecture and
strategy).  An update feeds the incoming example to every per-label trainer
(positive for its own label, negative for the rest — the sequential
one-versus-all configuration the paper evaluates) and lets each maintainer
absorb the resulting model.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from repro.core.maintainers.base import ViewMaintainer
from repro.core.stores.base import EntityStore
from repro.exceptions import ConfigurationError, NotFittedError
from repro.learn.sgd import SGDTrainer, TrainingExample
from repro.linalg import SparseVector

__all__ = ["MulticlassClassificationView"]


class MulticlassClassificationView:
    """One binary maintained view per label, combined by sequential one-vs-all.

    Parameters
    ----------
    labels:
        The label vocabulary (any hashable values, at least two).
    store_factory / maintainer_factory:
        Callables building a fresh entity store and a maintainer over it, one
        pair per label; this is how the benchmark switches between Naive-MM and
        Hazy-MM while keeping everything else fixed.

    Each label's binary trainer is an SVM-loss :class:`SGDTrainer`.
    """

    def __init__(
        self,
        labels: Sequence[object],
        store_factory: Callable[[], EntityStore],
        maintainer_factory: Callable[[EntityStore], ViewMaintainer],
    ):
        labels = list(labels)
        if len(labels) < 2:
            raise ConfigurationError("a multiclass view needs at least 2 labels")
        if len(set(labels)) != len(labels):
            raise ConfigurationError("duplicate labels in the label set")
        self.labels = labels
        self.trainers: dict[object, SGDTrainer] = {}
        self.maintainers: dict[object, ViewMaintainer] = {}
        for label in labels:
            store = store_factory()
            self.trainers[label] = SGDTrainer()
            self.maintainers[label] = maintainer_factory(store)
        self._loaded = False
        self._updates = 0

    # -- lifecycle ------------------------------------------------------------------------

    def bulk_load(self, entities: Iterable[tuple[object, SparseVector]]) -> None:
        """Load every entity into every per-label view (initial, untrained models)."""
        materialized = list(entities)
        for label in self.labels:
            self.maintainers[label].bulk_load(materialized, self.trainers[label].model)
        self._loaded = True

    def add_entity(self, entity_id: object, features: SparseVector) -> None:
        """A new entity joins every per-label view."""
        self._require_loaded()
        for label in self.labels:
            self.maintainers[label].add_entity(entity_id, features)

    # -- updates -----------------------------------------------------------------------------

    def absorb_example(self, entity_id: object, features: SparseVector, label: object) -> None:
        """One multiclass training example: +1 for its label's view, -1 for the others."""
        self._require_loaded()
        if label not in self.trainers:
            raise ConfigurationError(f"unknown label {label!r}")
        for candidate in self.labels:
            binary = 1 if candidate == label else -1
            model = self.trainers[candidate].absorb(
                TrainingExample(entity_id=entity_id, features=features, label=binary)
            )
            self.maintainers[candidate].apply_model(model)
        self._updates += 1

    # -- reads --------------------------------------------------------------------------------

    def predict(self, entity_id: object) -> object:
        """Sequential one-vs-all: the first label whose binary view claims the entity.

        Falls back to the largest current-model margin when no binary view
        claims it (or more than one does, which the sequential scheme resolves
        by order anyway).
        """
        self._require_loaded()
        if self._updates == 0:
            raise NotFittedError("multiclass view has absorbed no training examples")
        for label in self.labels:
            if self.maintainers[label].read_single(entity_id) == 1:
                return label
        features = self.maintainers[self.labels[0]].store.get(entity_id).features
        margins = {
            label: self.trainers[label].model.margin(features) for label in self.labels
        }
        return max(margins, key=lambda label: margins[label])

    def members(self, label: object) -> list[object]:
        """All entities assigned to ``label`` by its binary view."""
        self._require_loaded()
        if label not in self.maintainers:
            raise ConfigurationError(f"unknown label {label!r}")
        return self.maintainers[label].read_all_members(1)

    # -- statistics ------------------------------------------------------------------------------

    def total_simulated_update_seconds(self) -> float:
        """Simulated update cost summed over every per-label view."""
        return sum(
            m.stats.simulated_update_seconds + m.stats.simulated_reorganization_seconds
            for m in self.maintainers.values()
        )

    @property
    def updates(self) -> int:
        """Number of multiclass training examples absorbed."""
        return self._updates

    def _require_loaded(self) -> None:
        if not self._loaded:
            raise ConfigurationError("bulk_load must be called before using the view")
