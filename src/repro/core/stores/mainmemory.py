"""The main-memory architecture, Hazy-MM (paper §3.5.1).

The classification view is a pure function of the entities and training
examples, so it never needs to be written back to disk — Hazy keeps the whole
structure in RAM.  The data is still *clustered* on ``eps`` (a sorted array)
because sequential access to the water band is what makes the incremental step
cheap even in memory; the Skiing strategy still decides when to re-sort.

**The feature mirror.**  A clustered run only pays off if it is stored as
something a kernel can stream, so beside the records (one Python object per
entity, holding its frozen :class:`~repro.linalg.SparseVector` — what point
reads and scans answer from) the store keeps a compact array skeleton of the
same rows, always: the feature vectors as CSR arrays (``int32`` indices,
``float64`` values, row pointers), one ``dot_product`` charge and one
``int8`` label per row, and — in the published clustering — the permutation
that lists the rows in eps order.  A bisected slice of that permutation is
scored by one call of :func:`repro.linalg.kernels.sparse_margins` against the
model's dense weight array as it is, bit-identical to ``LinearModel.margin``
on every row, and charged to the ledger exactly as the per-tuple loop charged
it (:meth:`IOStatistics.charge_interleaved`) — when the slice is worth a
kernel call (:data:`~repro.core.stores.base.KERNEL_NONZEROS_PER_ROW`); a
smaller one takes the scalar loop over the records.  Its invariants:

* Rows sit in *slot* order — the order the records entered ``_records`` — and
  each keeps its vector's stored order, which is the summation order of the
  scalar dot product.  No record knows its row: the published clustering maps
  an eps position to one, and an id is found by its eps.
* It is legal because a stored vector is a frozen value: an entity UPDATE is
  a remove plus an add.
* One constructor builds it, by concatenating the records' arrays: bulk load,
  a warm restart's import and a compaction.  ``insert`` appends one row
  (arrays grow by doubling); ``delete`` drops one entry of the permutation
  and leaves a dead row.  ``reorganize`` compacts the dead rows away, and so
  does ``insert`` once they outnumber the live ones.
* The label column follows ``record.label`` (``update_label``, ``insert``,
  ``reorganize``): a relabel pass compares labels without touching the band's
  Python objects, and an eager All Members read (``stored_members``) answers
  from it with one mask over its eps slice.  Point reads answer from the
  records.
* Only the write path writes it (bulk load, insert, delete, relabel,
  reorganize — under the server's write lock when served).  A read that uses
  it (``top_k``, All Members) captures the clustering once, as every scan
  does.

**The lazy read** (``lazy_members``) bisects the run and the water band in
the clustering: the ids below low water and above high water are slices of
it, answered by position, and the band is scored through the mirror like any
other slice.  A clustering that holds a NaN eps is not sorted, so its lazy
read takes the inherited loop.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Collection, Iterable, Iterator, Sequence
from itertools import compress
from typing import NamedTuple

import numpy as np

from repro.core.stores.base import EntityRecord, EntityStore
from repro.db.buffer_pool import IOStatistics
from repro.db.costmodel import CostModel
from repro.db.types import KeyRange
from repro.exceptions import DuplicateKeyError, KeyNotFoundError
from repro.learn.model import LinearModel, sign
from repro.linalg import SparseVector
from repro.linalg.kernels import flatten, sparse_margins

__all__ = ["InMemoryEntityStore"]


class _FeatureMirror:
    """The stored feature rows as CSR arrays, in slot order (module docstring).

    The arrays may be longer than what is in use: ``count`` rows are (dead
    ones included), and the non-zeros below ``indptr[count]``.
    """

    __slots__ = ("indptr", "indices", "values", "charges", "labels", "count")

    def __init__(self, records: Collection[EntityRecord], cost_model: CostModel):
        """The rows of ``records``, in their order: their feature arrays concatenated."""
        self.indptr, self.indices, self.values = flatten(
            [record.features for record in records], np.int32
        )
        lengths = np.diff(self.indptr)
        by_length = np.array(
            [cost_model.dot_product_cost(n) for n in range(int(lengths.max(initial=0)) + 1)]
        )
        self.charges = by_length[lengths]
        self.labels = np.array([record.label for record in records], dtype=np.int8)
        self.count = len(records)

    def append(self, features: SparseVector, charge: float, label: int) -> int:
        """Add one row after the last one; returns its slot."""
        row = self.count
        start = int(self.indptr[row])
        stop = start + features.nnz()
        self.indices = _with_room(self.indices, start, stop)
        self.values = _with_room(self.values, start, stop)
        self.indptr = _with_room(self.indptr, row + 1, row + 2)
        self.charges = _with_room(self.charges, row, row + 1)
        self.labels = _with_room(self.labels, row, row + 1)
        self.indices[start:stop] = features.indices()
        self.values[start:stop] = features.values()
        self.indptr[row + 1] = stop
        self.charges[row] = charge
        self.labels[row] = label
        self.count = row + 1
        return row

    def margins(self, rows: np.ndarray, model: LinearModel, dimension: int) -> np.ndarray:
        """``model.margin`` of the given rows, bit for bit, in one kernel call."""
        return sparse_margins(
            self.indptr, self.indices, self.values, rows, model.weights.array, model.bias, dimension
        )

    def nbytes(self) -> int:
        arrays = (self.indptr, self.indices, self.values, self.charges, self.labels)
        return sum(array.nbytes for array in arrays)


def _with_room(array: np.ndarray, used: int, needed: int) -> np.ndarray:
    """``array`` if it has ``needed`` cells, else its first ``used`` in at least twice the room.

    Never grows in place: a reader that captured the old array keeps it.
    """
    if needed <= len(array):
        return array
    grown = np.empty(max(needed, 2 * len(array)), dtype=array.dtype)
    grown[:used] = array[:used]
    return grown


class _Clustering(NamedTuple):
    """The eps order, published as one object so a reader captures it whole."""

    ids: list[object]  #: entity ids in eps order
    #: Their stored eps, for O(log n) binary searches.  A list for ``bisect``:
    #: ``ndarray.searchsorted`` releases the GIL on every call, and two shards
    #: relabelling small bands side by side then trade it back and forth.
    eps: list[float]
    rows: np.ndarray  #: their mirror rows
    mirror: _FeatureMirror
    #: No stored eps is NaN, so ``eps`` is sorted and a bisection around the
    #: water band answers the lazy classifier's two comparisons.  A NaN makes
    #: it False until the next recluster.
    nan_free: bool = True

    def bounds(self, band: tuple[float | None, float | None] | None) -> tuple[int, int]:
        """Positions ``[start, stop)`` of the tuples with ``low <= eps <= high``."""
        low, high = band if band is not None else (None, None)
        start = 0 if low is None else bisect.bisect_left(self.eps, low)
        stop = len(self.ids) if high is None else bisect.bisect_right(self.eps, high)
        return start, stop

    def position(self, entity_id: object, eps: float) -> int:
        """Where ``entity_id`` sits: bisect to the run of equal eps, walk it to the id."""
        return self.ids.index(entity_id, bisect.bisect_left(self.eps, eps))

    def inserted(self, position: int, entity_id: object, eps: float, row: int) -> _Clustering:
        """A copy with one more tuple at ``position``, whose mirror row is ``row``."""
        ids, order_eps, rows, mirror, nan_free = self
        return _Clustering(
            ids[:position] + [entity_id] + ids[position:],
            order_eps[:position] + [eps] + order_eps[position:],
            np.concatenate((rows[:position], [row], rows[position:]), dtype=rows.dtype),
            mirror,
            nan_free and not math.isnan(eps),
        )

    def removed(self, position: int) -> _Clustering:
        """A copy without the tuple at ``position`` (its mirror row stays behind, dead)."""
        ids, order_eps, rows, mirror, nan_free = self
        return _Clustering(
            ids[:position] + ids[position + 1 :],
            order_eps[:position] + order_eps[position + 1 :],
            np.concatenate((rows[:position], rows[position + 1 :])),
            mirror,
            nan_free,
        )


class InMemoryEntityStore(EntityStore):
    """All entities in RAM, kept sorted by the stored-model ``eps``.

    The clustering is treated as **copy-on-write**: structural changes
    (insert, delete, reorganize) publish a fresh :class:`_Clustering` instead
    of mutating the lists in place, and every scan captures it once, when the
    scan is created.  Concurrent readers therefore always walk a coherent
    snapshot of the clustering.
    """

    architecture = "mainmemory"

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
        self._clustering = _Clustering([], [], np.zeros(0, np.int32), _FeatureMirror([], cost_model))
        self._label_counts: dict[int, int] = {1: 0, -1: 0}

    # -- lifecycle -----------------------------------------------------------------------

    def bulk_load(
        self, entities: Iterable[tuple[object, SparseVector]], model: LinearModel
    ) -> float:
        """Load every entity, computing eps and label under ``model``."""
        start = self.cost_snapshot()
        records: dict[object, EntityRecord] = {}
        for entity_id, features in entities:
            if entity_id in records:
                raise DuplicateKeyError(f"duplicate entity id {entity_id!r}")
            self._observe_features(features)
            records[entity_id] = EntityRecord(entity_id, features, 0.0, 1)
        self._records = records
        self._reclassify(model, _FeatureMirror(records.values(), self.cost_model))
        return self.cost_snapshot() - start

    def insert(self, entity_id: object, features: SparseVector, eps: float, label: int) -> None:
        """Insert one entity at its sorted position (publishing a fresh clustering)."""
        if self._clustering.mirror.count > 2 * len(self._records):
            self._compact()  # more dead rows than live ones, and no reorganization to drop them
        self._add_record(entity_id, features, eps, label)
        clustering = self._clustering
        row = clustering.mirror.append(
            features, self.cost_model.dot_product_cost(features.nnz()), label
        )
        position = bisect.bisect_left(clustering.eps, eps)
        # Copy-on-write: in-flight scans keep iterating the old clustering.
        self._clustering = clustering.inserted(position, entity_id, eps, row)

    def _add_record(
        self, entity_id: object, features: SparseVector, eps: float, label: int
    ) -> None:
        """The one place a single new record enters the store (clustering aside)."""
        if entity_id in self._records:
            raise DuplicateKeyError(f"duplicate entity id {entity_id!r}")
        self._observe_features(features)
        self._records[entity_id] = EntityRecord(entity_id, features, eps, label)
        self._label_counts[label] = self._label_counts.get(label, 0) + 1
        self.stats.tuples_written += 1
        self.stats.charge(self.cost_model.tuple_cpu, "tuple_write")

    def delete(self, entity_id: object) -> None:
        """Remove one entity (publishing a fresh clustering; its mirror row stays, dead)."""
        record = self._records.get(entity_id)
        if record is None:
            raise KeyNotFoundError(f"no entity with id {entity_id!r}")
        records = dict(self._records)
        del records[entity_id]
        self._records = records
        clustering = self._clustering
        self._clustering = clustering.removed(clustering.position(entity_id, record.eps))
        self._label_counts[record.label] -= 1
        self.stats.tuples_written += 1
        self.stats.charge(self.cost_model.tuple_cpu, "tuple_write")

    def reorganize(self, model: LinearModel) -> float:
        """Recompute every eps under ``model`` and re-sort (an in-memory sort)."""
        start = self.cost_snapshot()
        mirror = self._clustering.mirror
        if mirror.count != len(self._records):
            mirror = _FeatureMirror(self._records.values(), self.cost_model)  # compacted
        self._reclassify(model, mirror)
        self.stats.charge(self.cost_model.sort_cost(len(self._records)), "sort")
        return self.cost_snapshot() - start

    def _reclassify(self, model: LinearModel, mirror: _FeatureMirror) -> None:
        """Score every record under ``model``, store eps and label, publish the clustering.

        ``mirror`` holds exactly the records' rows, in slot order.  The kernel
        scores them when the table is worth it (the size rule, ``_kernel_pays``),
        the scalar loop otherwise; both are charged per tuple as one dot
        product, then one tuple write.  The label counts start over.
        """
        records = list(self._records.values())
        count = len(records)
        if self._kernel_pays(count, model):
            margins = mirror.margins(np.arange(count), model, self._dimension)
        else:
            margins = np.array(model.margins([record.features for record in records]))
        self.stats.dot_products += count
        self.stats.tuples_written += count
        self.stats.charge_interleaved(
            ("dot_product", mirror.charges[:count]), ("tuple_write", self.cost_model.tuple_cpu)
        )
        labels = np.where(margins >= 0, 1, -1)  # sign(): NaN is negative
        mirror.labels[:count] = labels
        positives = int(np.count_nonzero(labels == 1))
        self._label_counts = {1: positives, -1: count - positives}
        for record, eps, label in zip(records, margins.tolist(), labels.tolist()):
            record.eps = eps
            record.label = label
        self._recluster(mirror)

    def _import_records(self, records: list[tuple[object, SparseVector, float, int]]) -> None:
        """Warm-restart load: trust the snapshot's eps/labels, pay only the writes."""
        self._records = {}
        self._label_counts = {1: 0, -1: 0}
        for entity_id, features, eps, label in records:
            self._add_record(entity_id, features, eps, label)
        # Snapshots are written in clustering order, so this sort is a linear
        # verification pass in practice; no sort cost is charged.
        self._recluster(_FeatureMirror(self._records.values(), self.cost_model))

    def _recluster(self, mirror: _FeatureMirror) -> None:
        """Publish the clustering of ``_records`` by their eps.

        ``mirror`` holds exactly the records, in dict order.  One stable
        ``argsort`` — ties keep dict order, ``-0.0 == 0.0`` — is what
        ``sorted(..., key=eps)`` over the records gave.
        """
        records = list(self._records.values())
        eps = [record.eps for record in records]  # the records' own float objects
        keys = np.array(eps, dtype=np.float64)
        order = np.argsort(keys, kind="stable")
        positions = order.tolist()
        self._clustering = _Clustering(
            [records[position].entity_id for position in positions],
            [eps[position] for position in positions],
            order.astype(np.int32),
            mirror,
            not np.isnan(keys).any(),
        )

    def _compact(self) -> None:
        """Publish the clustering over a mirror of the live records only, order unchanged."""
        records = self._records
        row_of = dict(zip(records, range(len(records))))
        ids, order_eps, _, _, nan_free = self._clustering
        self._clustering = _Clustering(
            ids,
            order_eps,
            np.array([row_of[entity_id] for entity_id in ids], dtype=np.int32),
            _FeatureMirror(records.values(), self.cost_model),
            nan_free,
        )

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
        return self.scan_eps()

    def scan_eps(
        self, low: float | None = None, high: float | None = None
    ) -> Iterator[EntityRecord]:
        """Binary search each bounded end, then walk the slice.

        Not a generator function: the clustering is captured (and bisected)
        when the scan is created, not on its first ``next()``.
        """
        clustering, records = self._clustering, self._records
        return self._scan_slice(clustering.ids, records, *clustering.bounds((low, high)))

    def _scan_slice(
        self,
        ids: list[object],
        records: dict[object, EntityRecord],
        start_index: int,
        stop_index: int,
    ) -> Iterator[EntityRecord]:
        for position in range(start_index, stop_index):
            self.stats.tuples_read += 1
            self.stats.charge(self.cost_model.tuple_cpu, "tuple_read")
            yield records[ids[position]]

    def score(
        self, model: LinearModel, band: tuple[float | None, float | None] | None = None
    ) -> tuple[Sequence[object], Sequence[int], Sequence[float]]:
        """One kernel call over the mirror rows of the slice, when the slice is worth one.

        Same answer and same ledger as the inherited scan loop, which still
        serves the slices on the scalar side of the size rule.
        """
        clustering, records = self._clustering, self._records
        start, stop = clustering.bounds(band)
        if not self._kernel_pays(stop - start, model):
            return self._score_scan(model, self._scan_slice(clustering.ids, records, start, stop))
        mirror = clustering.mirror
        rows = clustering.rows[start:stop]
        ids = clustering.ids[start:stop]
        margins = mirror.margins(rows, model, self._dimension)
        self.stats.tuples_read += len(ids)
        self.stats.dot_products += len(ids)
        self.stats.charge_interleaved(
            ("tuple_read", self.cost_model.tuple_cpu), ("dot_product", mirror.charges.take(rows))
        )
        return ids, mirror.labels.take(rows), margins

    def stored_members(
        self,
        label: int,
        run: tuple[float | None, float | None] | None,
        key_range: KeyRange | None = None,
    ) -> tuple[list[object], int]:
        """The slice's ids whose label is ``label``: one mask over the mirror's label column.

        Same answer (eps order) and same ledger as the inherited scan loop.
        """
        clustering = self._clustering
        start, stop = clustering.bounds(run)
        ids = clustering.ids[start:stop]
        kept = clustering.mirror.labels.take(clustering.rows[start:stop]) == label
        members = [ids[position] for position in np.flatnonzero(kept).tolist()]
        self.stats.tuples_read += len(ids)
        self.stats.charge_interleaved(("tuple_read", np.full(len(ids), self.cost_model.tuple_cpu)))
        if key_range is None:
            return members, len(ids)
        return [i for i in members if key_range.contains(i)], sum(map(key_range.contains, ids))

    def lazy_members(
        self,
        label: int,
        model: LinearModel,
        run: tuple[float | None, float | None] | None,
        band: tuple[float, float] | None,
        key_range: KeyRange | None = None,
    ) -> tuple[list[object], int]:
        """The run bisected around the water band: the ids beyond it as slices, the band scored.

        The band is scored through the feature mirror as :meth:`score` scores
        a slice.  Same answer (eps order) and same ledger as the inherited
        loop, which still serves a clustering holding a NaN eps (a bisection
        there would not answer the classifier's comparisons).
        """
        clustering, records = self._clustering, self._records
        if not clustering.nan_free:
            return super().lazy_members(label, model, run, band, key_range)
        start, stop = clustering.bounds(run)
        below, above = start, stop  # no band: every tuple of the run is scored
        if band is not None:
            low, high = band
            above = bisect.bisect_right(clustering.eps, high, start, stop)
            below = bisect.bisect_left(clustering.eps, low, start, above)
        negatives = clustering.ids[start:below]
        scored = clustering.ids[below:above]
        positives = clustering.ids[above:stop]
        rows = clustering.rows[below:above]
        charges = clustering.mirror.charges.take(rows)
        if key_range is not None:
            contains = key_range.contains
            kept = np.fromiter(map(contains, scored), dtype=bool, count=len(scored))
            charges = np.where(kept, charges, 0.0)  # a tuple read and dropped is not scored
            rows = rows[kept]
            scored = list(compress(scored, kept))
            negatives = list(filter(contains, negatives))
            positives = list(filter(contains, positives))
        if self._kernel_pays(len(scored), model):
            margins = clustering.mirror.margins(rows, model, self._dimension)
            labels = np.where(margins >= 0.0, 1, -1).tolist()  # sign(): NaN is negative
        else:
            labels = list(map(sign, model.margins(records[i].features for i in scored)))
        in_band = [entity_id for entity_id, answer in zip(scored, labels) if answer == label]
        members = negatives + in_band if label == -1 else in_band + positives
        dots = np.zeros(stop - start)  # the run's dot-product charges, in eps order
        dots[below - start : above - start] = charges
        self.stats.tuples_read += stop - start
        self.stats.dot_products += len(scored)
        tuple_cpu = self.cost_model.tuple_cpu
        if scored:
            # A zero adds nothing to a fold of non-negative costs: the ledger
            # is the per-tuple loop's, dropped tuples included.
            self.stats.charge_interleaved(("tuple_read", tuple_cpu), ("dot_product", dots))
        else:
            self.stats.charge_interleaved(("tuple_read", np.full(stop - start, tuple_cpu)))
        return members, len(negatives) + len(scored) + len(positives)

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
            clustering = self._clustering
            row = clustering.rows[clustering.position(entity_id, record.eps)]
            clustering.mirror.labels[row] = label
        self.stats.tuples_written += 1
        self.stats.charge(self.cost_model.tuple_cpu, "tuple_write")

    # -- statistics --------------------------------------------------------------------------------

    def count(self) -> int:
        return len(self._records)

    def count_label(self, label: int) -> int:
        return self._label_counts.get(label, 0)

    def memory_usage(self) -> dict[str, int]:
        """Feature vectors dominate; clustering and mirror are the array skeleton beside them."""
        features_bytes = sum(record.features.approx_size_bytes() for record in self._records.values())
        clustering = self._clustering
        order_bytes = 16 * len(clustering.ids)
        mirror_bytes = clustering.mirror.nbytes() + clustering.rows.nbytes
        record_overhead = 64 * len(self._records)
        return {
            "features": features_bytes,
            "clustering": order_bytes,
            "mirror": mirror_bytes,
            "records": record_overhead,
            "total": features_bytes + order_bytes + mirror_bytes + record_overhead,
        }
