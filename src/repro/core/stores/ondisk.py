"""The on-disk architecture, Hazy-OD (paper §3.2).

The scratch table ``H(id, f, eps, label)`` lives in a heap file behind the
database's buffer pool.  At each reorganization the heap is rewritten in
``eps`` order (that is the clustering the paper maintains) and a clustered
B+-tree over ``eps`` is rebuilt, so scans of the water band touch only the few
contiguous pages that hold it.  A hash index on the entity id serves Single
Entity reads.

The lazy All Members and key-range read (``lazy_members``) is one walk of
the eps B+-tree and one buffer-pool fetch per heap page, in the scan's
page/slot order, so the pool sees exactly the hits, misses and evictions of
a read per tuple.  Rows beyond the water band are answered by position; the
band's vectors are collected and scored together — one kernel call when the
size rule says the run pays — and the ledger is charged in scan order.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

import numpy as np

from repro.core.stores.base import EntityRecord, EntityStore
from repro.db.btree import BPlusTree
from repro.db.buffer_pool import BufferPool, IOStatistics
from repro.db.costmodel import CostModel
from repro.db.hash_index import HashIndex
from repro.db.heap import HeapFile
from repro.db.page import RecordId
from repro.db.types import KeyRange, estimate_value_size
from repro.exceptions import DuplicateKeyError, KeyNotFoundError
from repro.learn.model import LinearModel
from repro.linalg import SparseVector
from repro.linalg.kernels import flatten, sparse_margins

__all__ = ["OnDiskEntityStore"]

#: Fan-out of the clustered B+-tree over eps.
BTREE_ORDER = 64

#: Marks a band tuple in a lazy read's answer list that scored outside the class.
_NOT_A_MEMBER = object()


def _row_size(row: dict[str, object]) -> int:
    """Approximate serialized size of an H-row."""
    return sum(estimate_value_size(value) for value in row.values()) + 8


class OnDiskEntityStore(EntityStore):
    """Heap file + clustered B+-tree on eps + hash index on id.

    Parameters
    ----------
    pool:
        The buffer pool to allocate pages from, whose cost model and ledger
        price the store; None makes an unbounded pool under the default
        :class:`~repro.db.costmodel.CostModel`.  Supplying a pool with a small
        ``capacity_pages`` models a memory-starved system; an unbounded pool
        still pays the cold-read and write-back costs that dominate on-disk
        behaviour right after a reorganization.
    """

    architecture = "ondisk"

    def __init__(self, pool: BufferPool | None = None, feature_norm_q: float = 1.0):
        if pool is None:
            pool = BufferPool(CostModel(), capacity_pages=None, statistics=IOStatistics())
        super().__init__(pool.cost_model, pool.stats, feature_norm_q)
        self.pool = pool
        self.heap = HeapFile(pool, sizer=_row_size)
        self.id_index = HashIndex("id")
        self.eps_index = BPlusTree(order=BTREE_ORDER)
        self._label_counts: dict[int, int] = {1: 0, -1: 0}

    # -- lifecycle ------------------------------------------------------------------------

    def bulk_load(
        self, entities: Iterable[tuple[object, SparseVector]], model: LinearModel
    ) -> float:
        """Classify every entity under ``model`` and write the heap in eps order."""
        start = self.cost_snapshot()
        staged: list[tuple[object, SparseVector, float, int]] = []
        for entity_id, features in entities:
            self._observe_features(features)
            self.charge_dot_product(features)
            eps = model.margin(features)
            staged.append((entity_id, features, eps, 1 if eps >= 0 else -1))
        self._write_clustered(staged)
        self.stats.charge(self.cost_model.sort_cost(len(staged)), "sort")
        return self.cost_snapshot() - start

    def _write_clustered(self, staged: list[tuple[object, SparseVector, float, int]]) -> None:
        """Rewrite the heap in eps order and rebuild both indexes."""
        staged.sort(key=lambda item: item[2])
        self.heap.truncate()
        self.id_index.clear()
        self.eps_index = BPlusTree(order=BTREE_ORDER)
        self._label_counts = {1: 0, -1: 0}
        seen: set[object] = set()
        for entity_id, features, eps, label in staged:
            if entity_id in seen:
                raise DuplicateKeyError(f"duplicate entity id {entity_id!r}")
            seen.add(entity_id)
            rid = self.heap.insert(
                {"id": entity_id, "eps": eps, "label": label, "features": features}
            )
            self.id_index.insert(entity_id, rid)
            self.eps_index.insert(eps, rid)
            self._label_counts[label] = self._label_counts.get(label, 0) + 1
        self.pool.flush_all()

    def _import_records(self, records) -> None:
        """Warm-restart load: rewrite the heap from pre-classified records.

        The snapshot arrives in clustering order, so the heap comes out
        clustered exactly as a reorganization would leave it — but without
        the dot products or the sort charge a cold bulk load pays.
        """
        staged: list[tuple[object, SparseVector, float, int]] = []
        for entity_id, features, eps, label in records:
            self._observe_features(features)
            staged.append((entity_id, features, eps, label))
        self._write_clustered(staged)

    def insert(self, entity_id: object, features: SparseVector, eps: float, label: int) -> None:
        """Append one entity (unclustered until the next reorganization)."""
        if self.id_index.get(entity_id) is not None:
            raise DuplicateKeyError(f"duplicate entity id {entity_id!r}")
        self._observe_features(features)
        rid = self.heap.insert({"id": entity_id, "eps": eps, "label": label, "features": features})
        self.id_index.insert(entity_id, rid)
        self.eps_index.insert(eps, rid)
        self._label_counts[label] = self._label_counts.get(label, 0) + 1

    def reorganize(self, model: LinearModel) -> float:
        """Recompute eps under ``model``, sort, rewrite the heap, rebuild indexes."""
        start = self.cost_snapshot()
        staged: list[tuple[object, SparseVector, float, int]] = []
        for _, row in self.heap.scan():
            features = row["features"]
            self.charge_dot_product(features)
            eps = model.margin(features)
            staged.append((row["id"], features, eps, 1 if eps >= 0 else -1))
        self.stats.charge(self.cost_model.sort_cost(len(staged)), "sort")
        self._write_clustered(staged)
        return self.cost_snapshot() - start

    # -- reads -----------------------------------------------------------------------------------

    def _record_from_row(self, row: dict[str, object]) -> EntityRecord:
        return EntityRecord(row["id"], row["features"], row["eps"], row["label"])

    def get(self, entity_id: object) -> EntityRecord:
        """Point lookup through the hash index (random page access)."""
        rid = self.id_index.get(entity_id)
        if rid is None:
            raise KeyNotFoundError(f"no entity with id {entity_id!r}")
        return self._record_from_row(self.heap.read(rid, sequential=False))

    def scan_all(self) -> Iterator[EntityRecord]:
        """Full sequential scan in physical (clustered) order."""
        for _, row in self.heap.scan():
            yield self._record_from_row(row)

    def _eps_slots(self, low: float | None, high: float | None) -> list[tuple[int, list[int]]]:
        """``(page id, slots)`` holding ``low <= eps <= high``: one walk of the eps index.

        Grouped by page, pages and slots ascending, so a scan fetches each page once.
        """
        by_page: dict[int, list[int]] = {}
        for _, rid in self.eps_index.range_scan(low, high):
            by_page.setdefault(rid.page_id, []).append(rid.slot)
        return [(page_id, sorted(by_page[page_id])) for page_id in sorted(by_page)]

    def _read_slots(self, pages: list[tuple[int, list[int]]]) -> Iterator[EntityRecord]:
        for page_id, slots in pages:
            for slot in slots:
                row = self.heap.read(RecordId(page_id, slot), sequential=True)
                yield self._record_from_row(row)

    def scan_eps(
        self, low: float | None = None, high: float | None = None
    ) -> Iterator[EntityRecord]:
        """Range walk of the clustered B+-tree, then the heap pages it points at."""
        return self._read_slots(self._eps_slots(low, high))

    def _page_rows(
        self, run: tuple[float | None, float | None] | None
    ) -> Iterator[list[dict[str, object]]]:
        """The rows of one run, a list per heap page in :meth:`scan`'s order.

        The tuple reads are left to the caller to charge.
        """
        if run is None:
            yield from self.heap.page_rows()
            return
        for page_id, slots in self._eps_slots(*run):
            yield self.heap.read_slots(page_id, slots)

    def lazy_members(
        self,
        label: int,
        model: LinearModel,
        run: tuple[float | None, float | None] | None,
        band: tuple[float, float] | None,
        key_range: KeyRange | None = None,
    ) -> tuple[list[object], int]:
        """A page at a time: rows beyond the water band by position, the band scored at once.

        Same answer (scan order) and same ledger as the inherited loop.  Each
        page is fetched where the loop's first read of it was, its other rows
        are the buffer hits the loop's reads scored, and each page's tuple
        reads and dot products are added to the clock right after its fetch,
        in scan order — the loop's additions, one by one.  The band's vectors
        are scored together: by the kernel when the size rule, given the
        band's non-zero count, says the run pays, else by the scalar margin.
        """
        low, high = band if band is not None else (-math.inf, math.inf)
        stats, detail = self.stats, self.stats.detail
        tuple_cpu = self.cost_model.tuple_cpu
        dot_costs: dict[int, float] = {}  # by non-zero count: the charge_dot_product amounts
        read_total = detail.get("tuple_read", 0.0)
        dot_total = detail.get("dot_product", 0.0)
        answers: list[object] = []  # members by position, and every band tuple
        band_positions: list[int] = []  # where in ``answers`` each band tuple sits
        band_vectors: list[SparseVector] = []
        reads = classified = band_nonzeros = 0
        for rows in self._page_rows(run):
            reads += len(rows)
            seconds = stats.simulated_seconds
            for row in rows:
                seconds += tuple_cpu
                read_total += tuple_cpu
                entity_id = row["id"]
                if key_range is not None and not key_range.contains(entity_id):
                    continue
                classified += 1
                eps = row["eps"]
                if eps > high:
                    if label == 1:
                        answers.append(entity_id)
                elif eps < low:
                    if label == -1:
                        answers.append(entity_id)
                else:
                    vector = row["features"]
                    nonzeros = vector.nnz()
                    band_nonzeros += nonzeros
                    cost = dot_costs.get(nonzeros)
                    if cost is None:
                        cost = dot_costs[nonzeros] = self.cost_model.dot_product_cost(nonzeros)
                    seconds += cost
                    dot_total += cost
                    band_positions.append(len(answers))
                    answers.append(entity_id)
                    band_vectors.append(vector)
            stats.simulated_seconds = seconds
        stats.tuples_read += reads
        if reads:
            detail["tuple_read"] = read_total
        if not band_vectors:
            return answers, classified
        stats.dot_products += len(band_vectors)
        detail["dot_product"] = dot_total
        if self._kernel_pays(len(band_vectors), model, band_nonzeros):
            indptr, indices, values = flatten(band_vectors, np.int32)
            everyone = np.arange(len(band_vectors))
            margins = sparse_margins(
                indptr, indices, values, everyone, model.weights.array, model.bias, self._dimension
            )
            positive = (margins >= 0.0).tolist()  # sign(): NaN is negative
        else:
            positive = [margin >= 0.0 for margin in model.margins(band_vectors)]
        wanted = label == 1
        for position, answer in zip(band_positions, positive):
            if answer != wanted:
                answers[position] = _NOT_A_MEMBER
        return [entity_id for entity_id in answers if entity_id is not _NOT_A_MEMBER], classified

    # -- writes -------------------------------------------------------------------------------------

    def update_label(self, entity_id: object, label: int) -> None:
        """In-place page update of the label column (the paper's in-place-write UDF)."""
        rid = self.id_index.get(entity_id)
        if rid is None:
            raise KeyNotFoundError(f"no entity with id {entity_id!r}")
        row = dict(self.heap.read(rid, sequential=True))
        if row["label"] != label:
            self._label_counts[row["label"]] -= 1
            self._label_counts[label] = self._label_counts.get(label, 0) + 1
            row["label"] = label
            self.heap.update(rid, row, sequential=True)

    def delete(self, entity_id: object) -> None:
        """Remove one entity from the heap and both indexes."""
        rid = self.id_index.get(entity_id)
        if rid is None:
            raise KeyNotFoundError(f"no entity with id {entity_id!r}")
        row = self.heap.read(rid, sequential=False)
        self.heap.delete(rid)
        self.id_index.delete(entity_id)
        self.eps_index.delete(row["eps"], rid)
        self._label_counts[row["label"]] -= 1

    # -- statistics -----------------------------------------------------------------------------------

    def count(self) -> int:
        return self.heap.row_count()

    def count_label(self, label: int) -> int:
        return self._label_counts.get(label, 0)

    def memory_usage(self) -> dict[str, int]:
        """RAM used: only the indexes (heap pages are 'disk')."""
        id_index_bytes = 32 * len(self.id_index)
        eps_index_bytes = 40 * len(self.eps_index)
        return {
            "id_index": id_index_bytes,
            "eps_index": eps_index_bytes,
            "total": id_index_bytes + eps_index_bytes,
        }

    def _page_estimate(self) -> int:
        return self.heap.page_count()
