"""The hybrid architecture: ε-map + bounded buffer over the on-disk store (§3.5.2).

The hybrid keeps two in-memory structures next to the full on-disk data:

* the **ε-map** ``h(s) : id -> eps`` — one float per entity, tiny compared to
  the feature vectors (the paper's Citeseer ε-map is 245x smaller than the
  data set);
* a **buffer** of at most ``B`` full entity records, refilled at each
  reorganization with the entities closest to the decision boundary — exactly
  the ones whose labels are most likely to need a real lookup.

Single Entity reads follow the paper's Figure 8: answer from the ε-map when
the entity is outside the water band, else from the buffer, else go to disk.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.core.stores.base import EntityRecord, EntityStore
from repro.core.stores.ondisk import OnDiskEntityStore
from repro.db.buffer_pool import BufferPool
from repro.db.types import KeyRange
from repro.exceptions import ConfigurationError
from repro.learn.model import LinearModel
from repro.linalg import SparseVector

__all__ = ["HybridEntityStore"]


class HybridEntityStore(EntityStore):
    """On-disk store + in-memory ε-map + bounded hot-entity buffer.

    Parameters
    ----------
    pool:
        The on-disk component's buffer pool (see
        :class:`~repro.core.stores.ondisk.OnDiskEntityStore`).
    buffer_fraction:
        Fraction of the entities that may be cached as full records (the
        paper's experiments use 1 %).
    """

    architecture = "hybrid"

    def __init__(
        self,
        pool: BufferPool | None = None,
        feature_norm_q: float = 1.0,
        buffer_fraction: float = 0.01,
    ):
        if buffer_fraction < 0 or buffer_fraction > 1:
            raise ConfigurationError("buffer_fraction must be in [0, 1]")
        disk = OnDiskEntityStore(pool=pool, feature_norm_q=feature_norm_q)
        super().__init__(disk.cost_model, disk.stats, feature_norm_q)
        self.disk = disk
        self.buffer_fraction = float(buffer_fraction)
        self._eps_map: dict[object, float] = {}
        self._buffer: dict[object, EntityRecord] = {}
        #: Counters a maintainer (or benchmark) can inspect to see where reads were served.
        self.epsmap_served = 0
        self.buffer_served = 0
        self.disk_served = 0

    # -- sizing ---------------------------------------------------------------------------

    def _buffer_limit(self) -> int:
        return max(1, int(self.buffer_fraction * max(1, self.disk.count())))

    def _refill_buffer(self) -> None:
        """Cache the entities closest to the decision boundary (smallest |eps|)."""
        limit = self._buffer_limit()
        closest = sorted(self._eps_map.items(), key=lambda item: abs(item[1]))[:limit]
        self._buffer = {}
        for entity_id, _ in closest:
            self._buffer[entity_id] = self.disk.get(entity_id)

    # -- lifecycle ---------------------------------------------------------------------------

    def bulk_load(
        self, entities: Iterable[tuple[object, SparseVector]], model: LinearModel
    ) -> float:
        cost = self.disk.bulk_load(entities, model)
        self._max_feature_norm = self.disk.max_feature_norm
        self._eps_map = {record.entity_id: record.eps for record in self.disk.scan_all()}
        self._refill_buffer()
        return cost

    def insert(self, entity_id: object, features: SparseVector, eps: float, label: int) -> None:
        self.disk.insert(entity_id, features, eps, label)
        self._max_feature_norm = self.disk.max_feature_norm
        self._eps_map[entity_id] = eps
        if len(self._buffer) < self._buffer_limit():
            self._buffer[entity_id] = EntityRecord(entity_id, features, eps, label)

    def _import_records(self, records) -> None:
        """Warm-restart load: import the disk component, rebuild ε-map and buffer."""
        self.disk._import_records(records)
        self._max_feature_norm = max(self._max_feature_norm, self.disk.max_feature_norm)
        self._eps_map = {entity_id: eps for entity_id, _, eps, _ in records}
        self._refill_buffer()

    def reorganize(self, model: LinearModel) -> float:
        """Reorganize the disk component, then rebuild the ε-map and the buffer."""
        cost = self.disk.reorganize(model)
        self._eps_map = {record.entity_id: record.eps for record in self.disk.scan_all()}
        self._refill_buffer()
        return cost

    # -- reads -----------------------------------------------------------------------------------

    def eps_hint(self, entity_id: object) -> float | None:
        """The ε-map lookup: one hash probe, no page access."""
        eps = self._eps_map.get(entity_id)
        if eps is not None:
            self.epsmap_served += 1
            self.stats.charge(self.cost_model.tuple_cpu, "epsmap_lookup")
        return eps

    def get(self, entity_id: object) -> EntityRecord:
        """Buffer first, then disk (Figure 8, steps 3-4)."""
        cached = self._buffer.get(entity_id)
        if cached is not None:
            self.buffer_served += 1
            self.stats.tuples_read += 1
            self.stats.charge(self.cost_model.tuple_cpu, "tuple_read")
            return cached
        self.disk_served += 1
        return self.disk.get(entity_id)

    def scan_all(self) -> Iterator[EntityRecord]:
        return self.disk.scan_all()

    def scan_eps(
        self, low: float | None = None, high: float | None = None
    ) -> Iterator[EntityRecord]:
        return self.disk.scan_eps(low, high)

    def lazy_members(
        self,
        label: int,
        model: LinearModel,
        run: tuple[float | None, float | None] | None,
        band: tuple[float, float] | None,
        key_range: KeyRange | None = None,
    ) -> tuple[list[object], int]:
        """The disk component's page-at-a-time read: a run is a walk of its eps index."""
        return self.disk.lazy_members(label, model, run, band, key_range)

    # -- writes -------------------------------------------------------------------------------------

    def update_label(self, entity_id: object, label: int) -> None:
        """Write through to disk and keep the buffered copy coherent."""
        self.disk.update_label(entity_id, label)
        cached = self._buffer.get(entity_id)
        if cached is not None:
            cached.label = label

    def delete(self, entity_id: object) -> None:
        """Remove from disk, the ε-map, and the buffer."""
        self.disk.delete(entity_id)
        self._eps_map.pop(entity_id, None)
        self._buffer.pop(entity_id, None)

    # -- statistics ------------------------------------------------------------------------------------

    def count(self) -> int:
        return self.disk.count()

    def count_label(self, label: int) -> int:
        return self.disk.count_label(label)

    def memory_usage(self) -> dict[str, int]:
        """The Figure 6(A) breakdown: ε-map vs buffer vs indexes."""
        # The paper models the eps-map as (key + sizeof(double)) per entity.
        eps_map_bytes = (8 + 8) * len(self._eps_map)
        buffer_bytes = sum(
            record.features.approx_size_bytes() + 16 for record in self._buffer.values()
        )
        index_bytes = self.disk.memory_usage()["total"]
        return {
            "eps_map": eps_map_bytes,
            "buffer": buffer_bytes,
            "disk_indexes": index_bytes,
            "total": eps_map_bytes + buffer_bytes + index_bytes,
        }

    def buffer_size(self) -> int:
        """Number of records currently buffered."""
        return len(self._buffer)

    def point_read_cost_estimate(self) -> float:
        """Buffer hits are free of page I/O; weight the disk estimate by the miss rate."""
        total = max(1, self.disk.count())
        miss_rate = 1.0 - min(1.0, len(self._buffer) / total)
        return miss_rate * self.disk.point_read_cost_estimate() + self.cost_model.tuple_cpu

    def _page_estimate(self) -> int:
        return self.disk.heap.page_count()
