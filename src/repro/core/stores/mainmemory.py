"""The main-memory architecture, Hazy-MM (paper §3.5.1).

The classification view is a pure function of the entities and training
examples, so it never needs to be written back to disk — Hazy keeps the whole
structure in RAM.  The data is still *clustered* on ``eps`` (a sorted array)
because sequential access to the water band is what makes the incremental step
cheap even in memory; the Skiing strategy still decides when to re-sort.

**The feature mirror.**  A clustered run only pays off if it is stored as
something a kernel can stream, so beside the records (one Python object and
one feature dict per entity — what point reads and scans answer from) the
store keeps a compact array skeleton of the same rows: the feature vectors as
CSR arrays (``int32`` indices, ``float64`` values, row pointers), one
``dot_product`` charge and one ``int8`` label per row, and — in the published
clustering — the permutation that lists the rows in eps order.  A bisected
slice of that permutation is scored by one call of
:func:`repro.linalg.kernels.sparse_margins` against the model's dense weight
array as it is, bit-identical to ``LinearModel.margin`` on every row, and
charged to the ledger exactly as the per-tuple loop charged it
(:meth:`IOStatistics.charge_interleaved`).  Its invariants:

* Rows sit in *slot* order — the order the records entered ``_records`` — and
  each keeps its feature dict's own iteration order, which is the summation
  order of the scalar dot product.  No record knows its row: the published
  clustering maps an eps position to one, and an id is found by its eps.
* It is legal because stored feature vectors are **never mutated in place**:
  an entity UPDATE is a remove plus an add.
* It is built when first needed — by the first maintenance-path scoring whose
  slice is worth a kernel call (:data:`KERNEL_NONZEROS_PER_ROW`); a store
  whose bands stay small never pays for one — and never rebuilt for churn:
  ``insert`` appends one row (arrays grow by doubling), ``delete`` drops one
  entry of the permutation and leaves a dead row that the next reorganization
  compacts (``insert`` drops a mirror that is mostly dead rows; the next big
  slice builds a fresh one).
* The label column follows ``record.label`` (``update_label``, ``insert``,
  ``reorganize``): a relabel pass compares labels without touching the band's
  Python objects, and an eager All Members read (``stored_members``) answers
  from it with one mask over its eps slice.  Point reads answer from the
  records.
* Only the write path writes it (bulk load, insert, delete, reorganize, and
  ``score(..., exclusive=True)`` — under the server's write lock when served).
  A read that uses it (``top_k``, All Members) captures the clustering once,
  as every scan does, and never builds or extends it.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

import numpy as np

from repro.core.stores.base import EntityRecord, EntityStore
from repro.db.buffer_pool import IOStatistics
from repro.db.costmodel import CostModel
from repro.exceptions import DuplicateKeyError, KeyNotFoundError
from repro.learn.model import LinearModel
from repro.linalg import SparseVector
from repro.linalg.kernels import flatten, sparse_margins

__all__ = ["InMemoryEntityStore", "KERNEL_NONZEROS_PER_ROW"]

#: The kernel/scalar size rule: a run of ``rows`` tuples is scored by the
#: kernel when ``rows * KERNEL_NONZEROS_PER_ROW >= max(nnz(w), dimension)`` —
#: when the slice holds at least about as many non-zeros as the weight array
#: has cells.  The model already is that array (zero-padded only when the
#: store's ``dimension`` reaches past it), so the kernel's fixed cost is its
#: ~50 us of NumPy calls against ~0.1 us per feature non-zero for the scalar
#: loop; the rule was measured when the kernel also filled a dense vector from
#: a dict model (~0.06 us per model non-zero) and is kept as it was, so the
#: same slices take the same side.  Measured with ``perf/run.py --trace 1``
#: then: ``feedback_eager`` and ``wire_reads`` (bands of ~1,700 tuples x ~18
#: non-zeros against a 1,900-wide model) sit far on the kernel side
#: (``core.apply_model_ms`` 6.2 -> 1.4); ``durable_writes`` (bands of ~15
#: tuples per shard) sits on the scalar side, where forcing the kernel made
#: ``core.apply_model_ms`` 0.47 -> 0.65.  The ``dimension`` half keeps every
#: stored index inside ``int32``.  Both sides produce the same bits and the
#: same ledger, which ``tests/core/test_operation_ledger.py`` pins by forcing
#: each.
KERNEL_NONZEROS_PER_ROW = 16


class _FeatureMirror:
    """The stored feature rows as CSR arrays, in slot order (module docstring).

    The arrays may be longer than what is in use: ``count`` rows are (dead
    ones included), and the non-zeros below ``indptr[count]``.
    """

    __slots__ = ("indptr", "indices", "values", "charges", "labels", "count")

    def __init__(self, vectors: Sequence[SparseVector], cost_model: CostModel):
        self.indptr, self.indices, self.values = flatten(vectors, np.int32)
        lengths = np.diff(self.indptr)
        by_length = np.array(
            [cost_model.dot_product_cost(n) for n in range(int(lengths.max(initial=0)) + 1)]
        )
        self.charges = by_length[lengths]
        self.labels = np.zeros(len(vectors), dtype=np.int8)
        self.count = len(vectors)

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
        self.indices[start:stop] = np.fromiter(features.indices(), np.int32, stop - start)
        self.values[start:stop] = np.fromiter(features.values(), np.float64, stop - start)
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
    rows: np.ndarray | None  #: their mirror rows (None while there is no mirror)
    mirror: _FeatureMirror | None

    def bounds(self, band: tuple[float | None, float | None] | None) -> tuple[int, int]:
        """Positions ``[start, stop)`` of the tuples with ``low <= eps <= high``."""
        low, high = band if band is not None else (None, None)
        start = 0 if low is None else bisect.bisect_left(self.eps, low)
        stop = len(self.ids) if high is None else bisect.bisect_right(self.eps, high)
        return start, stop

    def position(self, entity_id: object, eps: float) -> int:
        """Where ``entity_id`` sits: bisect to the run of equal eps, walk it to the id."""
        return self.ids.index(entity_id, bisect.bisect_left(self.eps, eps))

    def inserted(
        self, position: int, entity_id: object, eps: float, row: int | None
    ) -> "_Clustering":
        """A copy with one more tuple at ``position`` (``row``: its mirror row, if mirrored)."""
        ids, order_eps, rows, mirror = self
        if rows is not None:
            rows = np.concatenate((rows[:position], [row], rows[position:]), dtype=rows.dtype)
        return _Clustering(
            ids[:position] + [entity_id] + ids[position:],
            order_eps[:position] + [eps] + order_eps[position:],
            rows,
            mirror,
        )

    def removed(self, position: int) -> "_Clustering":
        """A copy without the tuple at ``position`` (its mirror row stays behind, dead)."""
        ids, order_eps, rows, mirror = self
        if rows is not None:
            rows = np.concatenate((rows[:position], rows[position + 1 :]))
        return _Clustering(
            ids[:position] + ids[position + 1 :],
            order_eps[:position] + order_eps[position + 1 :],
            rows,
            mirror,
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
        self._clustering = _Clustering([], [], None, None)
        self._label_counts: dict[int, int] = {1: 0, -1: 0}
        #: One more than the largest feature index ever stored.
        self._dimension = 0

    def _observe_features(self, features: SparseVector) -> None:
        super()._observe_features(features)
        self._dimension = max(self._dimension, features.max_index() + 1)

    def _kernel_pays(self, rows: int, model: LinearModel) -> bool:
        """The size rule of :data:`KERNEL_NONZEROS_PER_ROW` for a run of ``rows`` tuples."""
        return rows * KERNEL_NONZEROS_PER_ROW >= max(model.weights.nnz(), self._dimension, 1)

    # -- lifecycle -----------------------------------------------------------------------

    def bulk_load(
        self, entities: Iterable[tuple[object, SparseVector]], model: LinearModel
    ) -> float:
        """Load every entity, computing eps and label under ``model``.

        Always the scalar loop, and no mirror: flattening the vectors costs
        about what scoring them does, and most stores that are bulk-loaded
        (a served view's own store, a lazy view's) never relabel a big band.
        """
        start = self.cost_snapshot()
        entities = list(entities)
        margins, labels = self._rewrite(model, [features for _, features in entities], None)
        self._records = records = {}
        for (entity_id, features), eps, label in zip(entities, margins.tolist(), labels.tolist()):
            if entity_id in records:
                raise DuplicateKeyError(f"duplicate entity id {entity_id!r}")
            self._observe_features(features)
            records[entity_id] = EntityRecord(entity_id, features, eps, label)
        self._recluster(None)
        return self.cost_snapshot() - start

    def insert(self, entity_id: object, features: SparseVector, eps: float, label: int) -> None:
        """Insert one entity at its sorted position (publishing a fresh clustering)."""
        self._add_record(entity_id, features, eps, label)
        clustering = self._clustering
        if clustering.mirror is not None and (
            # An index the dense weight vector should not stretch to ...
            len(self._records) * KERNEL_NONZEROS_PER_ROW < self._dimension
            # ... or more dead rows than live ones, and no reorganization to compact them.
            or clustering.mirror.count > 2 * len(self._records)
        ):
            clustering = clustering._replace(rows=None, mirror=None)
        row = None
        if clustering.mirror is not None:
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
        records = list(self._records.values())
        mirror = self._clustering.mirror if self._kernel_pays(len(records), model) else None
        if mirror is not None and mirror.count != len(records):
            mirror = self._build_mirror().mirror  # compact the dead rows away
        margins, labels = self._rewrite(model, [record.features for record in records], mirror)
        for record, eps, label in zip(records, margins.tolist(), labels.tolist()):
            record.eps = eps
            record.label = label
        self._recluster(mirror)
        self.stats.charge(self.cost_model.sort_cost(len(records)), "sort")
        return self.cost_snapshot() - start

    def _rewrite(
        self, model: LinearModel, vectors: list[SparseVector], mirror: _FeatureMirror | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(margins, labels)`` of every vector of a table being (re)written, in slot order.

        Charged per tuple as one dot product, then one tuple write.  With a
        ``mirror`` (whose rows are exactly ``vectors``) one kernel call scores
        them and the label column is refreshed; without one, the scalar loop
        scores them.  The label counts start over from the result.
        """
        count = len(vectors)
        if mirror is not None:
            margins = mirror.margins(np.arange(count), model, self._dimension)
            charges = mirror.charges[:count]
        else:
            margins = np.array(model.margins(vectors), dtype=np.float64)
            dot_product_cost = self.cost_model.dot_product_cost
            charges = np.array([dot_product_cost(vector.nnz()) for vector in vectors])
        self.stats.dot_products += count
        self.stats.tuples_written += count
        self.stats.charge_interleaved(
            ("dot_product", charges), ("tuple_write", self.cost_model.tuple_cpu)
        )
        labels = np.where(margins >= 0, 1, -1)  # sign(): NaN is negative
        if mirror is not None:
            mirror.labels[:count] = labels
        positives = int(np.count_nonzero(labels == 1))
        self._label_counts = {1: positives, -1: count - positives}
        return margins, labels

    def _import_records(self, records) -> None:
        """Warm-restart load: trust the snapshot's eps/labels, pay only the writes."""
        self._records = {}
        self._label_counts = {1: 0, -1: 0}
        for entity_id, features, eps, label in records:
            self._add_record(entity_id, features, eps, label)
        # Snapshots are written in clustering order, so this sort is a linear
        # verification pass in practice; no sort cost is charged.  No mirror:
        # nothing was scored, so nothing has needed one yet.
        self._recluster(None)

    def _recluster(self, mirror: _FeatureMirror | None) -> None:
        """Publish the clustering of ``_records`` by their eps.

        ``mirror``, when given, holds exactly the records, in dict order.  One
        stable ``argsort`` — ties keep dict order, ``-0.0 == 0.0`` — is what
        ``sorted(..., key=eps)`` over the records gave.
        """
        records = list(self._records.values())
        eps = [record.eps for record in records]  # the records' own float objects
        order = np.argsort(np.array(eps, dtype=np.float64), kind="stable")
        positions = order.tolist()
        self._clustering = _Clustering(
            [records[position].entity_id for position in positions],
            [eps[position] for position in positions],
            order.astype(np.int32) if mirror is not None else None,
            mirror,
        )

    def _build_mirror(self) -> _Clustering:
        """Build the mirror from the live records, in dict order, and publish it."""
        records = self._records
        mirror = _FeatureMirror([record.features for record in records.values()], self.cost_model)
        mirror.labels[:] = [record.label for record in records.values()]
        ids, order_eps, _, _ = self._clustering
        row_of = dict(zip(records, range(len(records))))
        rows = np.fromiter(map(row_of.__getitem__, ids), np.int32, len(ids))
        self._clustering = clustering = _Clustering(ids, order_eps, rows, mirror)
        return clustering

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
        self,
        model: LinearModel,
        band: tuple[float | None, float | None] | None = None,
        exclusive: bool = False,
    ) -> tuple[Sequence[object], Sequence[int], Sequence[float]]:
        """One kernel call over the mirror rows of the slice, when the slice is worth one.

        Same answer and same ledger as the inherited scan loop, which still
        serves the slices on the scalar side of the size rule — and reads
        (``exclusive=False``) that arrive before any writer has built the
        mirror: a read never builds it.
        """
        clustering, records = self._clustering, self._records
        start, stop = clustering.bounds(band)
        if not self._kernel_pays(stop - start, model) or (
            clustering.mirror is None and not exclusive
        ):
            return self._score_scan(model, self._scan_slice(clustering.ids, records, start, stop))
        if clustering.mirror is None:
            clustering = self._build_mirror()
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
        self, label: int, band: tuple[float | None, float | None] | None
    ) -> tuple[list[object], int]:
        """The slice's ids whose label is ``label``: one mask over the mirror's label column.

        Same answer (eps order) and same ledger as the inherited scan loop.
        Without a mirror the records' labels are read instead; a read never
        builds one.
        """
        clustering, records = self._clustering, self._records
        start, stop = clustering.bounds(band)
        ids = clustering.ids[start:stop]
        if clustering.mirror is None:
            members = [entity_id for entity_id in ids if records[entity_id].label == label]
        else:
            kept = clustering.mirror.labels.take(clustering.rows[start:stop]) == label
            members = [ids[position] for position in np.flatnonzero(kept).tolist()]
        self.stats.tuples_read += len(ids)
        self.stats.charge_interleaved(("tuple_read", np.full(len(ids), self.cost_model.tuple_cpu)))
        return members, len(ids)

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
            if clustering.mirror is not None:
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
        mirror_bytes = 0
        if clustering.mirror is not None:
            mirror_bytes = clustering.mirror.nbytes() + clustering.rows.nbytes
        record_overhead = 64 * len(self._records)
        return {
            "features": features_bytes,
            "clustering": order_bytes,
            "mirror": mirror_bytes,
            "records": record_overhead,
            "total": features_bytes + order_bytes + mirror_bytes + record_overhead,
        }
