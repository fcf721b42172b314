"""The entity-store interface shared by the on-disk, in-memory and hybrid architectures.

Every read that walks a run of tuples is one store call, written here once
as a plain loop over :meth:`EntityStore.scan` — the definition — and
answered in bulk by an architecture that can: :meth:`~EntityStore.score`
(the eager relabel pass, ``top_k``), :meth:`~EntityStore.stored_members`
(an eager All Members or key-range read) and :meth:`~EntityStore.lazy_members`
(a lazy one: tuples outside the water band labelled by their position, the
band scored in one kernel call when the size rule of
:data:`KERNEL_NONZEROS_PER_ROW` says the run pays).  An override returns
the same answer in the same order and leaves the same ledger, charge for
charge.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.db.buffer_pool import IOStatistics
from repro.db.costmodel import CostModel
from repro.db.types import KeyRange
from repro.learn.model import LinearModel, sign
from repro.linalg import SparseVector

__all__ = ["EntityRecord", "EntityStore", "KERNEL_NONZEROS_PER_ROW"]

#: The kernel/scalar size rule: a run of ``rows`` tuples is scored by the
#: kernel when ``rows * KERNEL_NONZEROS_PER_ROW >= max(nnz(w), dimension)`` —
#: when the slice holds at least about as many non-zeros as the weight array
#: has cells.  The model already is that array (zero-padded only when the
#: store's ``dimension`` reaches past it).  The kernel costs a fixed set of
#: NumPy calls per slice, the scalar loop one ``LinearModel.margin`` per tuple
#: (a gather and an accumulate, ~3 us at 40 non-zeros).  Measured with
#: ``perf/run.py`` on one pinned CPU of a 2-CPU container, ten alternating
#: pairs each: ``feedback_eager`` and ``wire_reads`` (bands of ~1,700 tuples x
#: ~18 non-zeros against a 1,900-wide model) sit far on the kernel side;
#: ``durable_writes`` (bands of ~15 tuples per shard) sits on the scalar side,
#: and forcing the kernel there (the constant set to infinity) made
#: ``core.apply_model_ms`` 0.123 -> 0.171 ms (slower in 9 of 10 traced pairs)
#: and ``write_visible_p50_ms`` 0.86 -> 1.03 ms (8 of 10 untraced pairs).  The
#: ``dimension`` half keeps the zero-padded weight array within 16 cells a
#: scored tuple, however far a stored index reaches.  Sixteen is what a row is
#: taken to hold where the run's non-zeros are not counted (the mirror's
#: slices); the on-disk lazy read counts its band's exactly, for the dot
#: product charges, and passes the count.  Its rows are wider: on
#: ``hybrid_lazy`` (~60 non-zeros a row, a 20,000-cell model) the count sends
#: bands of 581-990 rows to the kernel that sixteen a row would leave to the
#: scalar loop, and ten alternating ``perf/run.py`` pairs with and without it
#: (same CPU and container as above) gave ``members_read_p50_ms`` 2.82 ->
#: 2.57 ms (lower in 8 of 10) and ``ops_per_s`` 4,880 -> 5,183 (higher in 8
#: of 10).  Both sides produce the same bits and the same ledger, which
#: ``tests/core/test_operation_ledger.py`` pins by forcing each, on every
#: architecture and approach.
KERNEL_NONZEROS_PER_ROW = 16


@dataclass(slots=True)
class EntityRecord:
    """One entity as the scratch table ``H`` sees it.

    ``eps`` is the margin under the *stored* model (the model the store was
    last organized under), not the current one; ``label`` is the entity's
    label in the maintained view.
    """

    entity_id: object
    features: SparseVector
    eps: float
    label: int


class EntityStore(ABC):
    """Physical storage of ``H(id, f, eps, label)`` clustered on ``eps``.

    Every store charges its work to an :class:`~repro.db.buffer_pool.IOStatistics`
    ledger priced by a :class:`~repro.db.costmodel.CostModel`; maintainers
    measure the cost of a step as the difference of ``stats.simulated_seconds``
    around it, which is what feeds the Skiing strategy.
    """

    #: The engine-facing name of this architecture ("mainmemory", "ondisk",
    #: "hybrid"); :data:`repro.core.stores.STORES` is keyed on it.
    architecture: str

    def __init__(self, cost_model: CostModel, stats: IOStatistics, feature_norm_q: float = 1.0):
        self.cost_model = cost_model
        self.stats = stats
        self.feature_norm_q = float(feature_norm_q)
        self._max_feature_norm = 0.0
        #: One more than the largest feature index ever stored.
        self._dimension = 0

    # -- cost helpers -----------------------------------------------------------------

    def charge_dot_product(self, features: SparseVector) -> None:
        """Charge the CPU cost of one ``w · f`` against this store's ledger."""
        self.stats.dot_products += 1
        self.stats.charge(self.cost_model.dot_product_cost(features.nnz()), "dot_product")

    def charge_featurization(self, nonzeros: int) -> None:
        """Charge the CPU cost of featurizing one entity tuple (cold-load path)."""
        self.stats.charge(self.cost_model.featurize_cost(nonzeros), "featurize")

    def charge_statement_overhead(self) -> None:
        """Charge the per-statement RDBMS overhead (point-query dispatch)."""
        self.stats.charge(self.cost_model.statement_overhead, "statement")

    def charge_model_update(self) -> None:
        """Charge the cost of one incremental training step (paper §2.2, ~100 µs)."""
        self.stats.charge(self.cost_model.model_update, "model_update")

    def charge_bound_update(self, nonzeros: int) -> None:
        """Charge the water-band bound computation (a norm over the weight delta)."""
        self.stats.charge(self.cost_model.dot_product_cost(nonzeros), "bound_update")

    def cost_snapshot(self) -> float:
        """Current accumulated simulated seconds (for before/after measurement)."""
        return self.stats.simulated_seconds

    # -- feature norm (the constant M of Lemma 3.1) --------------------------------------

    @property
    def max_feature_norm(self) -> float:
        """``M = max_t ||f(t)||_q`` over every entity ever inserted."""
        return self._max_feature_norm

    def _observe_features(self, features: SparseVector) -> None:
        norm = features.norm(self.feature_norm_q)
        if norm > self._max_feature_norm:
            self._max_feature_norm = norm
        self._dimension = max(self._dimension, features.max_index() + 1)

    def _kernel_pays(self, rows: int, model: LinearModel, nonzeros: int | None = None) -> bool:
        """The size rule of :data:`KERNEL_NONZEROS_PER_ROW` for a run of ``rows`` tuples.

        ``nonzeros`` is the run's non-zero count where the caller has it at
        hand; without it, each row is taken to hold ``KERNEL_NONZEROS_PER_ROW``.
        """
        if nonzeros is None:
            nonzeros = rows * KERNEL_NONZEROS_PER_ROW
        return nonzeros >= max(model.weights.nnz(), self._dimension, 1)

    # -- lifecycle -------------------------------------------------------------------------

    @abstractmethod
    def bulk_load(
        self, entities: Iterable[tuple[object, SparseVector]], model: LinearModel
    ) -> float:
        """Populate the store from scratch, clustered under ``model``.

        Returns the simulated cost of the load (used as the initial estimate
        of the reorganization cost ``S``).
        """

    @abstractmethod
    def insert(self, entity_id: object, features: SparseVector, eps: float, label: int) -> None:
        """Add one new entity with a precomputed ``eps`` (stored model) and label."""

    @abstractmethod
    def reorganize(self, model: LinearModel) -> float:
        """Recompute every ``eps`` under ``model``, recluster, return the measured cost."""

    # -- reads --------------------------------------------------------------------------------

    @abstractmethod
    def get(self, entity_id: object) -> EntityRecord:
        """Point lookup by entity id."""

    def eps_hint(self, entity_id: object) -> float | None:
        """Return the stored ``eps`` without touching disk, if the architecture can.

        Only the hybrid architecture (with its ε-map) returns a value here;
        other stores return None and callers fall back to :meth:`get`.
        """
        return None  # noqa: RET501

    @abstractmethod
    def scan_all(self) -> Iterator[EntityRecord]:
        """Sequential scan of every entity in clustering order."""

    @abstractmethod
    def scan_eps(
        self, low: float | None = None, high: float | None = None
    ) -> Iterator[EntityRecord]:
        """The clustered range scan: entities with ``low <= eps <= high``, in eps order.

        ``None`` leaves that end unbounded: both bounds give the water band,
        ``low`` alone the positive-class candidates of a Hazy All Members
        read, ``high`` alone the negative-class ones.  Unlike :meth:`scan_all`
        (a heap scan in physical order on disk) this walks the eps index, and
        the two are priced differently.
        """

    def scan(self, band: tuple[float | None, float | None] | None) -> Iterator[EntityRecord]:
        """One run of tuples: the whole table or an eps slice.

        ``band=None`` is the whole table as :meth:`scan_all` walks it,
        ``(low, high)`` the clustered slice :meth:`scan_eps` walks — kept
        apart because on disk the first is a heap scan in physical order and
        the second an index walk, priced differently.
        """
        return self.scan_all() if band is None else self.scan_eps(*band)

    def score(
        self, model: LinearModel, band: tuple[float | None, float | None] | None = None
    ) -> tuple[Sequence[object], Sequence[int], Sequence[float]]:
        """Score one run of tuples under ``model``: ``(ids, stored labels, margins)``.

        ``band`` picks the run as for :meth:`scan`.  The result is three
        parallel sequences in scan order, and the ledger is charged what the
        scan charges plus one dot product per tuple, tuple by tuple.  This
        loop is the definition and returns lists; the main-memory store
        answers the same call from its feature mirror, with the labels and
        margins as the NumPy arrays its kernel produced.
        """
        return self._score_scan(model, self.scan(band))

    def stored_members(
        self,
        label: int,
        run: tuple[float | None, float | None] | None,
        key_range: KeyRange | None = None,
    ) -> tuple[list[object], int]:
        """Ids in one run whose *stored* label is ``label``, and how many tuples were kept.

        ``run`` picks the tuples as for :meth:`scan`; a tuple whose key lies
        outside ``key_range`` is read and dropped, and only the rest count.
        The ids come in scan order and the ledger is charged what the scan
        charges, nothing more.  This loop is the definition; the main-memory
        store answers the same call from its clustering and the feature
        mirror's label column with one mask, charging one ``tuple_read`` per
        tuple of the slice.
        """
        members: list[object] = []
        kept = 0
        for record in self.scan(run):
            if key_range is not None and not key_range.contains(record.entity_id):
                continue
            kept += 1
            if record.label == label:
                members.append(record.entity_id)
        return members, kept

    def lazy_members(
        self,
        label: int,
        model: LinearModel,
        run: tuple[float | None, float | None] | None,
        band: tuple[float, float] | None,
        key_range: KeyRange | None = None,
    ) -> tuple[list[object], int]:
        """Ids in one run whose label under ``model`` is ``label``, and how many were classified.

        The lazy All Members and key-range read.  ``run`` picks the tuples as
        for :meth:`scan`; a tuple whose key lies outside ``key_range`` is
        read and dropped before classification.  ``band`` is the water band
        ``(low, high)`` of Lemma 3.1: a tuple whose stored eps is above
        ``high`` is positive by position, below ``low`` negative — the two
        comparisons of ``ViewMaintainer.classifier``, so a NaN eps falls
        to neither — and any other costs one dot product under ``model``.
        ``band=None`` (the naive strategies) scores every tuple.  The ids come
        in scan order.  This loop is the definition; the main-memory and
        on-disk stores answer the same call in bulk, the band in one kernel
        call when it pays.
        """
        low, high = band if band is not None else (-math.inf, math.inf)
        members: list[object] = []
        classified = 0
        for record in self.scan(run):
            if key_range is not None and not key_range.contains(record.entity_id):
                continue
            classified += 1
            eps = record.eps
            if eps > high:
                answer = 1
            elif eps < low:
                answer = -1
            else:
                self.charge_dot_product(record.features)
                answer = sign(model.margin(record.features))
            if answer == label:
                members.append(record.entity_id)
        return members, classified

    def _score_scan(
        self, model: LinearModel, records: Iterable[EntityRecord]
    ) -> tuple[list[object], list[int], list[float]]:
        """The scan loop behind :meth:`score`: one dot product per scanned tuple.

        Plain lists on purpose: a short run (a small water band) stays out of
        NumPy, whose calls hand the GIL to the shard relabelling next door.
        """
        ids: list[object] = []
        labels: list[int] = []
        margins: list[float] = []
        for record in records:
            self.charge_dot_product(record.features)
            ids.append(record.entity_id)
            labels.append(record.label)
            margins.append(model.margin(record.features))
        return ids, labels, margins

    # -- checkpoint / recovery -------------------------------------------------------------

    def export_state(self) -> dict[str, object]:
        """Snapshot this store's physical state as plain Python data.

        Returns ``{"records": [(id, features, eps, label), ...],
        "max_feature_norm": M}`` with the records in clustering (eps) order.
        The scan charges its usual read costs, so a checkpoint's price shows
        up on the ledger like any other full scan.  Record tuples carry
        copied scalars — later in-place label updates do not leak into a
        snapshot taken earlier.
        """
        return {
            "records": [
                (record.entity_id, record.features, record.eps, record.label)
                for record in self.scan_all()
            ],
            "max_feature_norm": self._max_feature_norm,
        }

    def import_state(self, state: dict[str, object]) -> float:
        """Rebuild this store from :meth:`export_state` output; returns the cost.

        This is the warm-restart fast path: the eps values and labels were
        already computed when the snapshot was written, so — unlike
        :meth:`bulk_load` — no dot products are charged and no re-sort is
        priced (the snapshot is in clustering order).  Reading the snapshot
        itself is priced as a sequential scan of ``state["payload_bytes"]``
        bytes when the caller provides them.
        """
        start = self.cost_snapshot()
        payload_bytes = int(state.get("payload_bytes", 0) or 0)
        if payload_bytes > 0:
            pages = max(1, -(-payload_bytes // self.cost_model.page_size_bytes))
            self.stats.charge(pages * self.cost_model.sequential_page_read, "snapshot_read")
        self._import_records(state["records"])
        self._max_feature_norm = max(self._max_feature_norm, float(state["max_feature_norm"]))
        return self.cost_snapshot() - start

    @abstractmethod
    def _import_records(self, records: list[tuple[object, "SparseVector", float, int]]) -> None:
        """Architecture hook for :meth:`import_state`: load pre-classified records."""

    # -- writes ---------------------------------------------------------------------------------

    @abstractmethod
    def update_label(self, entity_id: object, label: int) -> None:
        """Overwrite an entity's label in place."""

    @abstractmethod
    def delete(self, entity_id: object) -> None:
        """Remove one entity from the store (drives entity ``DELETE`` triggers)."""

    # -- statistics -------------------------------------------------------------------------------

    @abstractmethod
    def count(self) -> int:
        """Number of entities stored."""

    @abstractmethod
    def count_label(self, label: int) -> int:
        """Number of entities currently carrying ``label``."""

    @abstractmethod
    def memory_usage(self) -> dict[str, int]:
        """Approximate RAM footprint by component, in bytes."""

    def count_eps_in_range(self, low: float, high: float) -> int:
        """Number of entities whose stored eps lies inside ``[low, high]``."""
        return sum(1 for _ in self.scan_eps(low, high))

    def scan_cost_estimate(self) -> float:
        """Estimated simulated cost of one full sequential scan (the ``sigma * S`` of §3.3)."""
        return self.cost_model.scan_cost(page_count=self._page_estimate(), tuple_count=self.count())

    def point_read_cost_estimate(self) -> float:
        """Estimated simulated cost of one point lookup (for batch-read planning)."""
        if self._page_estimate() > 0:
            return self.cost_model.random_page_read + self.cost_model.tuple_cpu
        return self.cost_model.tuple_cpu

    def _page_estimate(self) -> int:
        """How many pages a full scan would touch (0 for pure in-memory stores)."""
        return 0
