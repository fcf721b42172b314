"""The main-memory architecture, Hazy-MM (paper §3.5.1).

The classification view is a pure function of the entities and training
examples, so it never needs to be written back to disk — Hazy keeps the whole
structure in RAM.  The data is still *clustered* on ``eps`` (a sorted array)
because sequential access to the water band is what makes the incremental step
cheap even in memory; the Skiing strategy still decides when to re-sort.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator

from repro.core.stores.base import EntityRecord, EntityStore
from repro.db.buffer_pool import IOStatistics
from repro.db.costmodel import CostModel
from repro.exceptions import DuplicateKeyError, KeyNotFoundError
from repro.learn.model import LinearModel
from repro.linalg import SparseVector

__all__ = ["InMemoryEntityStore"]


class InMemoryEntityStore(EntityStore):
    """All entities in RAM, kept sorted by the stored-model ``eps``.

    The clustering arrays are treated as **copy-on-write**: structural changes
    (insert, delete, reorganize) publish fresh list objects instead of mutating
    the ones in place, and every scan captures the arrays once at iteration
    start.  Concurrent readers therefore always walk a coherent snapshot of the
    clustering, which is what lets the serving subsystem drive this store from
    many threads without locks (``supports_concurrent_reads``).
    """

    architecture = "mainmemory"
    supports_concurrent_reads = True

    def __init__(
        self,
        cost_model: CostModel | None = None,
        stats: IOStatistics | None = None,
        feature_norm_q: float = 1.0,
    ):
        cost_model = cost_model if cost_model is not None else CostModel.main_memory()
        stats = stats if stats is not None else IOStatistics()
        super().__init__(cost_model, stats, feature_norm_q)
        self._records: dict[object, EntityRecord] = {}
        # Sorted list of (eps, entity_id) pairs defining the clustering order,
        # with a parallel eps-only list for O(log n) binary searches.
        self._order: list[tuple[float, object]] = []
        self._order_eps: list[float] = []
        self._label_counts: dict[int, int] = {1: 0, -1: 0}

    # -- lifecycle -----------------------------------------------------------------------

    def bulk_load(
        self, entities: Iterable[tuple[object, SparseVector]], model: LinearModel
    ) -> float:
        """Load every entity, computing eps and label under ``model``."""
        start = self.cost_snapshot()
        self._records.clear()
        self._order.clear()
        self._label_counts = {1: 0, -1: 0}
        for entity_id, features in entities:
            self.charge_dot_product(features)
            eps = model.margin(features)
            self._write_record(entity_id, features, eps, 1 if eps >= 0 else -1)
        self._rebuild_order()
        return self.cost_snapshot() - start

    def insert(self, entity_id: object, features: SparseVector, eps: float, label: int) -> None:
        """Insert one entity at its sorted position (publishing fresh arrays)."""
        self._write_record(entity_id, features, eps, label)
        index = bisect.bisect_left(self._order_eps, eps)
        # Copy-on-write: in-flight scans keep iterating the old arrays.
        self._order = self._order[:index] + [(eps, entity_id)] + self._order[index:]
        self._order_eps = self._order_eps[:index] + [eps] + self._order_eps[index:]

    def _write_record(
        self, entity_id: object, features: SparseVector, eps: float, label: int
    ) -> None:
        """The one place a new record enters the store (clustering arrays aside)."""
        if entity_id in self._records:
            raise DuplicateKeyError(f"duplicate entity id {entity_id!r}")
        self._observe_features(features)
        self._records[entity_id] = EntityRecord(entity_id, features, eps, label)
        self._label_counts[label] = self._label_counts.get(label, 0) + 1
        self.stats.tuples_written += 1
        self.stats.charge(self.cost_model.tuple_cpu, "tuple_write")

    def delete(self, entity_id: object) -> None:
        """Remove one entity (publishing fresh clustering arrays)."""
        record = self._records.get(entity_id)
        if record is None:
            raise KeyNotFoundError(f"no entity with id {entity_id!r}")
        records = dict(self._records)
        del records[entity_id]
        self._records = records
        self._order = [pair for pair in self._order if pair[1] != entity_id]
        self._order_eps = [eps for eps, _ in self._order]
        self._label_counts[record.label] -= 1
        self.stats.tuples_written += 1
        self.stats.charge(self.cost_model.tuple_cpu, "tuple_write")

    def reorganize(self, model: LinearModel) -> float:
        """Recompute every eps under ``model`` and re-sort (an in-memory sort)."""
        start = self.cost_snapshot()
        self._label_counts = {1: 0, -1: 0}
        for record in self._records.values():
            self.charge_dot_product(record.features)
            record.eps = model.margin(record.features)
            record.label = 1 if record.eps >= 0 else -1
            self._label_counts[record.label] += 1
            self.stats.tuples_written += 1
            self.stats.charge(self.cost_model.tuple_cpu, "tuple_write")
        self._rebuild_order()
        self.stats.charge(self.cost_model.sort_cost(len(self._records)), "sort")
        return self.cost_snapshot() - start

    def _import_records(self, records) -> None:
        """Warm-restart load: trust the snapshot's eps/labels, pay only the writes."""
        self._records.clear()
        self._order.clear()
        self._label_counts = {1: 0, -1: 0}
        for entity_id, features, eps, label in records:
            self._write_record(entity_id, features, eps, label)
        # Snapshots are written in clustering order, so this sort is a linear
        # verification pass in practice; no sort cost is charged.
        self._rebuild_order()

    def _rebuild_order(self) -> None:
        self._order = sorted(
            ((record.eps, entity_id) for entity_id, record in self._records.items()),
            key=lambda pair: pair[0],
        )
        self._order_eps = [pair[0] for pair in self._order]

    # -- reads -------------------------------------------------------------------------------

    def get(self, entity_id: object) -> EntityRecord:
        """O(1) dictionary lookup."""
        record = self._records.get(entity_id)
        if record is None:
            raise KeyNotFoundError(f"no entity with id {entity_id!r}")
        self.stats.tuples_read += 1
        self.stats.charge(self.cost_model.tuple_cpu, "tuple_read")
        return record

    def scan_all(self) -> Iterator[EntityRecord]:
        """Every record in eps order (over a snapshot of the clustering)."""
        order, records = self._order, self._records
        return self._scan_slice(order, records, 0, len(order))

    def _scan_slice(
        self,
        order: list[tuple[float, object]],
        records: dict[object, EntityRecord],
        start_index: int,
        stop_index: int,
    ) -> Iterator[EntityRecord]:
        for position in range(start_index, stop_index):
            _, entity_id = order[position]
            self.stats.tuples_read += 1
            self.stats.charge(self.cost_model.tuple_cpu, "tuple_read")
            yield records[entity_id]

    def scan_eps(
        self, low: float | None = None, high: float | None = None
    ) -> Iterator[EntityRecord]:
        """Binary search each bounded end, then walk the slice.

        Not a generator function: the arrays are captured (and bisected) when
        the scan is created, not on its first ``next()``.
        """
        order, order_eps, records = self._order, self._order_eps, self._records
        start = 0 if low is None else bisect.bisect_left(order_eps, low)
        stop = len(order) if high is None else bisect.bisect_right(order_eps, high)
        return self._scan_slice(order, records, start, stop)

    # -- writes ---------------------------------------------------------------------------------

    def update_label(self, entity_id: object, label: int) -> None:
        """In-place label update (RAM write, CPU cost only)."""
        record = self._records.get(entity_id)
        if record is None:
            raise KeyNotFoundError(f"no entity with id {entity_id!r}")
        if record.label != label:
            self._label_counts[record.label] -= 1
            self._label_counts[label] = self._label_counts.get(label, 0) + 1
            record.label = label
        self.stats.tuples_written += 1
        self.stats.charge(self.cost_model.tuple_cpu, "tuple_write")

    # -- statistics --------------------------------------------------------------------------------

    def count(self) -> int:
        return len(self._records)

    def count_label(self, label: int) -> int:
        return self._label_counts.get(label, 0)

    def memory_usage(self) -> dict[str, int]:
        """Feature vectors dominate; the clustering array adds 16 bytes per entity."""
        features_bytes = sum(record.features.approx_size_bytes() for record in self._records.values())
        order_bytes = 16 * len(self._order)
        record_overhead = 64 * len(self._records)
        total = features_bytes + order_bytes + record_overhead
        return {
            "features": features_bytes,
            "clustering": order_bytes,
            "records": record_overhead,
            "total": total,
        }
