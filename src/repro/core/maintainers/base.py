"""The maintainer skeleton: the paper's operations, each written once.

:class:`ViewMaintainer` writes the three operations of §2.2 — Single Entity
read, All Members read, Update (Figures 7 and 8) — and the bulk load once,
with the batched point read, the key-range read and the top-k read built on
the same store calls.  An All Members or key-range read is **one store
call**: :meth:`EntityStore.stored_members` for the eager approach (stored
labels are current), :meth:`EntityStore.lazy_members` for the lazy one
(tuples outside the position band labelled by their eps, the rest scored
under the current model), each answered in bulk by the architecture.  A
strategy supplies only what the paper says differs:

* :meth:`~ViewMaintainer.read_hint` — whether a point read can be answered
  without fetching the tuple (Figure 8's ε-map / water-band short-circuit);
* :meth:`~ViewMaintainer.classifier` — how a point read labels the tuple it
  fetched: the stored label (eager, :class:`EagerReads`), else the lazy rule
  built from the position band below;
* :meth:`~ViewMaintainer.candidates` — which tuples a read must look at: the
  whole table, or only those above low / below high water (Hazy, both
  approaches);
* :meth:`~ViewMaintainer.position_band` — outside which eps band a lazy read
  knows a tuple's label from its position alone (Hazy's water band; none for
  naive);
* :meth:`~ViewMaintainer.apply_model` — what an Update does with the new
  model: swap it, advance the band, or relabel a scan.

Every read charges the statement overhead once, then what its store calls
charge, in simulated seconds.  Skiing compares accumulated floats, so the
*order* of charges inside an operation is part of the contract;
``tests/core/test_operation_ledger.py`` pins it for every cell of the matrix.
"""

from __future__ import annotations

import heapq
import itertools
import math
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Sequence
from operator import attrgetter

import numpy as np

from repro.core.stats import MaintenanceStatistics
from repro.core.stores.base import EntityRecord, EntityStore
from repro.db.types import KeyRange
from repro.exceptions import KeyNotFoundError, MaintenanceError
from repro.learn.model import LinearModel, sign
from repro.linalg import SparseVector

__all__ = ["EagerReads", "ViewMaintainer"]


class ViewMaintainer(ABC):
    """Maintains ``V(id, class)`` as the model evolves."""

    #: Strategy name ("naive", "hazy") and approach ("eager", "lazy"): the cell
    #: of :data:`repro.core.maintainers.MAINTAINERS` a concrete class fills.
    strategy_name: str
    approach: str

    def __init__(self, store: EntityStore):
        self.store = store
        self.stats = MaintenanceStatistics()
        self.current_model = LinearModel()
        self._loaded = False

    # -- lifecycle --------------------------------------------------------------------

    def bulk_load(
        self, entities: Iterable[tuple[object, SparseVector]], model: LinearModel
    ) -> None:
        """Populate the view from scratch under ``model``."""
        self.current_model = model
        self.store.bulk_load(entities, model)
        self._loaded = True

    @abstractmethod
    def apply_model(self, model: LinearModel) -> None:
        """The Update operation: a new training example produced ``model``."""

    def apply_model_batch(self, models: Sequence[LinearModel]) -> None:
        """Batched Update: apply a run of successive models in one maintenance round.

        The serving subsystem's background worker groups the models produced
        by a burst of training examples and hands them over together.  The
        default replays them one by one (always correct); the eager Hazy
        maintainer overrides it to amortize work across the batch.
        """
        for model in models:
            self.apply_model(model)

    def _relabel(
        self, model: LinearModel, band: tuple[float | None, float | None] | None = None
    ) -> tuple[int, int]:
        """The eager relabel pass; returns ``(tuples touched, labels changed)``.

        The store scores the run — the whole table, or the eps slice ``band``
        — in whatever way its architecture makes cheap; label writes wait
        until the run is scored — a store never mutates under its own scan —
        and then go out in scan order.
        """
        store = self.store
        ids, stored, margins = store.score(model, band)
        if isinstance(margins, np.ndarray):
            # Scored in bulk: sign(margin) != stored label, labels being -1/+1.
            changed = np.flatnonzero((margins >= 0.0) != (stored > 0)).tolist()
        else:
            changed = [
                position
                for position, (margin, label) in enumerate(zip(margins, stored))
                if sign(margin) != label
            ]
        for position in changed:
            store.update_label(ids[position], sign(margins[position]))
        return len(ids), len(changed)

    def add_entity(self, entity_id: object, features: SparseVector) -> int:
        """A new entity arrived; classify and store it.  Returns its label."""
        self._require_loaded()
        self.store.charge_dot_product(features)
        eps = self.current_model.margin(features)
        label = sign(eps)
        self.store.insert(entity_id, features, eps, label)
        return label

    def remove_entity(self, entity_id: object) -> None:
        """An entity was deleted from the entities table: drop it from the view."""
        self._require_loaded()
        self.store.delete(entity_id)

    # -- checkpoint / recovery -------------------------------------------------------------

    def export_state(self) -> dict[str, object]:
        """Snapshot this maintainer's state as plain Python data.

        The base implementation covers the naive strategies (whose only state
        beyond the store is the current model); the Hazy strategies extend the
        dict with their water-band and Skiing state.  Model objects are
        held by reference — a model is never mutated after the trainer
        returns it — so the export stays consistent even if maintenance
        continues afterwards.
        """
        self._require_loaded()
        state: dict[str, object] = {
            "strategy": self.strategy_name,
            "approach": self.approach,
            "current_model": self.current_model,
        }
        state.update(self.store.export_state())
        return state

    def import_state(self, state: dict[str, object]) -> None:
        """Restore from :meth:`export_state` output without a cold bulk load.

        The strategy/approach recorded in the snapshot must match this
        maintainer — eps semantics differ between strategies, so importing a
        mismatched snapshot would silently corrupt reads.
        """
        if self._loaded:
            raise MaintenanceError(f"{type(self).__name__} is already loaded")
        if state.get("strategy") != self.strategy_name or state.get("approach") != self.approach:
            raise MaintenanceError(
                f"snapshot was written by a {state.get('strategy')}/{state.get('approach')} "
                f"maintainer; this one is {self.strategy_name}/{self.approach}"
            )
        self.current_model = state["current_model"]
        self.store.import_state(state)
        self._loaded = True

    # -- what a strategy supplies to the reads ----------------------------------------------

    def read_hint(self, entity_id: object) -> int | None:
        """Answer a Single Entity read without touching the record, if possible.

        The Hazy strategies override this with the ε-map / water-band
        short-circuit of Figure 8; the naive strategies have no bound to lean
        on and always return None.
        """
        return None  # noqa: RET501

    def classifier(self) -> Callable[[EntityRecord], int]:
        """How a point read labels a fetched record, resolved once per operation.

        The lazy rule, the same two comparisons as
        :meth:`~repro.core.stores.base.EntityStore.lazy_members`: a stored eps
        above :meth:`position_band` is positive, below it negative, and any
        other (a NaN eps too) costs one dot product under the current model.
        The model and the band are looked up here and held by the returned
        callable, which charges the dot products it computes.
        """
        low, high = self.position_band() or (-math.inf, math.inf)
        charge_dot_product = self.store.charge_dot_product
        margin = self.current_model.margin

        def classify(record: EntityRecord) -> int:
            eps = record.eps
            if eps > high:
                return 1
            if eps < low:
                return -1
            charge_dot_product(record.features)
            return sign(margin(record.features))

        return classify

    def position_band(self) -> tuple[float, float] | None:
        """The eps band outside which a stored tuple's current label follows from its eps.

        None for the naive strategies, which have no bound to lean on: a lazy
        read scores every tuple it classifies.  Hazy's is the water band.  Both
        lazy reads — :meth:`classifier` for a point read, the store's
        ``lazy_members`` for a run — are built from it.
        """
        return None  # noqa: RET501

    def candidates(self, label: int) -> tuple[float | None, float | None] | None:
        """The run a read for class ``label`` must look at, as ``store.scan`` takes it.

        By default the whole table (``None``); a Hazy strategy narrows it to an
        eps slice.
        """
        return None  # noqa: RET501

    # -- reads ----------------------------------------------------------------------------

    def read_single(self, entity_id: object) -> int:
        """Single Entity read (Figure 8): the label of one entity under the current model."""
        self._require_loaded()
        start = self.store.cost_snapshot()
        self.store.charge_statement_overhead()
        label = self.read_hint(entity_id)
        if label is None:
            label = self.classifier()(self.store.get(entity_id))
        self.stats.record_single_read(self.store.cost_snapshot() - start)
        return label

    def read_many(
        self,
        entity_ids: Sequence[object],
        on_record: Callable[[EntityRecord], None] | None = None,
    ) -> dict[object, int]:
        """Batched Single Entity read: one statement dispatch for the whole batch.

        This is the coalescing hook the serving subsystem's request batcher
        drives.  Per-statement RDBMS overhead — the very cost that caps
        single-read throughput in Figure 5 — is charged once for the batch,
        hint-answerable entities are served without touching the store, and
        the remainder is fetched either by point lookups or by one shared
        sequential scan, whichever the cost model prices cheaper.  An id the
        store does not hold is left out of the answer, so one unknown key
        costs the batch nothing more.

        ``on_record`` observes every record the batch had to fetch (the
        serving layer's result cache harvests stored ε values through it).
        """
        self._require_loaded()
        start = self.store.cost_snapshot()
        self.store.charge_statement_overhead()
        results: dict[object, int] = {}
        remaining: set[object] = set()
        for entity_id in entity_ids:
            if entity_id in results or entity_id in remaining:
                continue
            hinted = self.read_hint(entity_id)
            if hinted is not None:
                results[entity_id] = hinted
            else:
                remaining.add(entity_id)
        if remaining:
            classify = self.classifier()
            point_cost = len(remaining) * self.store.point_read_cost_estimate()
            if self.store.scan_cost_estimate() < point_cost:
                # Coalesce the batch into one sequential scan of the store.
                for record in self.store.scan_all():
                    if record.entity_id in remaining:
                        results[record.entity_id] = classify(record)
                        remaining.discard(record.entity_id)
                        if on_record is not None:
                            on_record(record)
                        if not remaining:
                            break
            else:
                for entity_id in remaining:
                    try:
                        record = self.store.get(entity_id)
                    except KeyNotFoundError:
                        continue
                    results[entity_id] = classify(record)
                    if on_record is not None:
                        on_record(record)
        self.stats.record_batched_read(len(results), self.store.cost_snapshot() - start)
        return results

    def read_all_members(self, label: int = 1) -> list[object]:
        """All Members read: ids of every entity carrying ``label``."""
        members, touched, cost = self._scan_members(label)
        self.stats.record_all_members(touched, cost)
        return members

    def read_range(self, label: int, key_range: KeyRange) -> list[object]:
        """Members of class ``label`` whose entity *key* lies in ``key_range``.

        This is the pushed-down form of ``WHERE class = x AND <key> <op> k``:
        one scan that classifies only the in-range candidates, instead of
        materializing the whole view and post-filtering.
        """
        members, touched, cost = self._scan_members(label, key_range)
        self.stats.record_range_read(touched, cost)
        return members

    def _scan_members(
        self, label: int, key_range: KeyRange | None = None
    ) -> tuple[list[object], int, float]:
        """The run behind All Members and key-range reads: ``(members, classified, cost)``.

        One statement and one store call: keys outside ``key_range`` are
        dropped *before* classification, so lazy strategies pay dot products
        only for tuples that can appear in the answer.
        """
        self._require_loaded()
        start = self.store.cost_snapshot()
        self.store.charge_statement_overhead()
        members, classified = self._members(label, key_range)
        return members, classified, self.store.cost_snapshot() - start

    def _members(self, label: int, key_range: KeyRange | None) -> tuple[list[object], int]:
        """Classify on read: the store labels the candidate run under the current model."""
        return self.store.lazy_members(
            label, self.current_model, self.candidates(label), self.position_band(), key_range
        )

    def top_k(self, k: int, label: int = 1) -> list[tuple[object, float]]:
        """The ``k`` entities deepest inside class ``label``, as ``(id, margin)`` pairs."""
        if k <= 0:
            return []
        self.store.charge_statement_overhead()
        ids, _, margins = self.store.score(self.current_model)
        tie = itertools.count()
        heap: list[tuple[float, int, object]] = []
        for entity_id, margin in zip(ids, np.asarray(margins, dtype=np.float64).tolist()):
            score = margin if label == 1 else -margin
            item = (score, next(tie), entity_id)
            if len(heap) < k:
                heapq.heappush(heap, item)
            elif item[0] > heap[0][0]:
                heapq.heapreplace(heap, item)
        ranked = sorted(heap, key=lambda item: (-item[0], item[1]))
        sign_ = 1.0 if label == 1 else -1.0
        return [(entity_id, sign_ * score) for score, _, entity_id in ranked]

    def contents(self) -> dict[object, int]:
        """The full view ``{id: label}``: one scan, each tuple labelled by :meth:`classifier`."""
        self._require_loaded()
        self.store.charge_statement_overhead()
        classify = self.classifier()
        return {record.entity_id: classify(record) for record in self.store.scan_all()}

    # -- helpers ------------------------------------------------------------------------------

    def _require_loaded(self) -> None:
        if not self._loaded:
            raise MaintenanceError(
                f"{type(self).__name__}: bulk_load must be called before this operation"
            )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(entities={self.store.count()}, "
            f"updates={self.stats.updates}, reorgs={self.stats.reorganizations})"
        )


_stored_label = attrgetter("label")


class EagerReads:
    """The eager approach's reads (§2.2): stored labels are always current.

    Mixed in ahead of a strategy's base; the lazy maintainers classify on
    read through :meth:`EntityStore.lazy_members` instead.
    """

    approach = "eager"

    def classifier(self) -> Callable[[EntityRecord], int]:
        """Every fetched record already carries its label."""
        return _stored_label

    def _members(self, label: int, key_range: KeyRange | None) -> tuple[list[object], int]:
        """A stored-label filter over the candidate run: nothing to classify."""
        return self.store.stored_members(label, self.candidates(label), key_range)
