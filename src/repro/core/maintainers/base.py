"""The maintainer skeleton: the paper's operations, each written once.

:class:`ViewMaintainer` writes the three operations of §2.2 — Single Entity
read, All Members read, Update (Figures 7 and 8) — and the bulk load once,
with the batched point read, the key-range read and the top-k read built on
the same scans.  A strategy supplies only what the paper says differs:

* :meth:`~ViewMaintainer.read_hint` — whether a point read can be answered
  without fetching the tuple (Figure 8's ε-map / water-band short-circuit);
* :meth:`~ViewMaintainer.classifier` — how a fetched tuple is labelled: the
  stored label (eager, :class:`EagerReads`), a dot product (naive lazy), or
  band-then-dot-product (Hazy lazy);
* :meth:`~ViewMaintainer.candidates` — which tuples a read must look at: the
  whole table, or only those above low / below high water (Hazy, both
  approaches);
* :meth:`~ViewMaintainer.apply_model` — what an Update does with the new
  model: swap it, advance the band, or relabel a scan.

Costs are the store's simulated seconds.  Skiing compares accumulated floats,
so the *order* of charges inside an operation is part of the contract;
``tests/core/test_operation_ledger.py`` pins it for every cell of the matrix.
"""

from __future__ import annotations

import heapq
import itertools
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Sequence
from operator import attrgetter

import numpy as np

from repro.core.stats import MaintenanceStatistics
from repro.core.stores.base import EntityRecord, EntityStore
from repro.exceptions import KeyNotFoundError, MaintenanceError
from repro.learn.model import LinearModel, sign
from repro.linalg import SparseVector

__all__ = ["EagerReads", "ViewMaintainer", "key_in_range"]


def key_in_range(
    key: object,
    low: object | None,
    high: object | None,
    include_low: bool = True,
    include_high: bool = True,
) -> bool:
    """Whether an entity key lies inside the (possibly half-open) range.

    ``None`` bounds are unbounded.  Keys compare with Python semantics — the
    SQL layer only pushes ranges over a view's key column, whose values share
    one type.
    """
    if low is not None and (key < low or (key == low and not include_low)):
        return False
    if high is not None and (key > high or (key == high and not include_high)):
        return False
    return True


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
        ids, stored, margins = store.score(model, band, exclusive=True)
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

    @abstractmethod
    def classifier(self) -> Callable[[EntityRecord], int]:
        """How this strategy labels a fetched record, resolved once per operation.

        The current model and the water band are looked up here and held by
        the returned callable, so a scan pays one call per tuple and nothing
        more.  The callable charges the dot products it computes.
        """

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
            label = self.classify_record(self.store.get(entity_id))
        self.stats.record_single_read(self.store.cost_snapshot() - start)
        return label

    def classify_record(self, record: EntityRecord) -> int:
        """Label of one already-fetched record under the current model."""
        return self.classifier()(record)

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
        sequential scan, whichever the cost model prices cheaper.

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
                    record = self.store.get(entity_id)
                    results[entity_id] = classify(record)
                    if on_record is not None:
                        on_record(record)
                remaining.clear()
        if remaining:
            missing = next(iter(remaining))
            raise KeyNotFoundError(f"no entity with id {missing!r}")
        self.stats.record_batched_read(len(results), self.store.cost_snapshot() - start)
        return results

    def read_all_members(self, label: int = 1) -> list[object]:
        """All Members read: ids of every entity carrying ``label``."""
        members, touched, cost = self._scan_members(label)
        self.stats.record_all_members(touched, cost)
        return members

    def read_range(
        self,
        label: int = 1,
        low: object | None = None,
        high: object | None = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[object]:
        """Members of class ``label`` whose entity *key* lies in the range.

        This is the pushed-down form of ``WHERE class = x AND <key> <op> k``:
        one scan that classifies only the in-range candidates, instead of
        materializing the whole view and post-filtering.
        """
        members, touched, cost = self._scan_members(label, (low, high, include_low, include_high))
        self.stats.record_range_read(touched, cost)
        return members

    def _scan_members(
        self, label: int, key_range: tuple[object, object, bool, bool] | None = None
    ) -> tuple[list[object], int, float]:
        """The scan behind All Members and key-range reads: ``(members, classified, cost)``.

        Keys outside ``key_range`` are dropped *before* classification, so lazy
        strategies pay dot products only for tuples that can appear in the
        answer; a key-range read is dispatched as a statement of its own.
        """
        self._require_loaded()
        start = self.store.cost_snapshot()
        candidates = self.store.scan(self.candidates(label))
        if key_range is not None:
            self.store.charge_statement_overhead()
            candidates = (r for r in candidates if key_in_range(r.entity_id, *key_range))
        classify = self.classifier()
        members: list[object] = []
        touched = 0
        for record in candidates:
            touched += 1
            if classify(record) == label:
                members.append(record.entity_id)
        return members, touched, self.store.cost_snapshot() - start

    def count_members(self, label: int = 1) -> int:
        """Number of entities in the class (executes an All Members read)."""
        return len(self.read_all_members(label))

    def top_k(self, k: int, label: int = 1) -> list[tuple[object, float]]:
        """The ``k`` entities deepest inside class ``label``, as ``(id, margin)`` pairs."""
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

    # -- helpers ------------------------------------------------------------------------------

    def contents(self) -> dict[object, int]:
        """The full view ``{id: label}`` under the current model.

        Default implementation answers through :meth:`read_single` for each
        stored entity, which is correct for every strategy (if slow); used by
        the consistency tests.
        """
        return {record.entity_id: self.read_single(record.entity_id) for record in self.store.scan_all()}

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
    read through :class:`ViewMaintainer`'s scan instead.
    """

    approach = "eager"

    def classifier(self) -> Callable[[EntityRecord], int]:
        """Every fetched record already carries its label."""
        return _stored_label

    def read_all_members(self, label: int = 1) -> list[object]:
        """A stored-label filter over the candidate run: nothing to classify, one store call."""
        self._require_loaded()
        start = self.store.cost_snapshot()
        members, scanned = self.store.stored_members(label, self.candidates(label))
        self.stats.record_all_members(scanned, self.store.cost_snapshot() - start)
        return members
