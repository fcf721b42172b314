"""The entity-store interface shared by the on-disk, in-memory and hybrid architectures."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.db.buffer_pool import IOStatistics
from repro.db.costmodel import CostModel
from repro.learn.model import LinearModel
from repro.linalg import SparseVector

__all__ = ["EntityRecord", "EntityStore"]


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
        self,
        model: LinearModel,
        band: tuple[float | None, float | None] | None = None,
        exclusive: bool = False,
    ) -> tuple[Sequence[object], Sequence[int], Sequence[float]]:
        """Score one run of tuples under ``model``: ``(ids, stored labels, margins)``.

        ``band`` picks the run as for :meth:`scan`.  The result is three
        parallel sequences in scan order, and the ledger is charged what the
        scan charges plus one dot product per tuple, tuple by tuple.  This
        loop is the definition and returns lists; the main-memory store
        answers the same call from its feature mirror, with the labels and
        margins as the NumPy arrays its kernel produced.

        ``exclusive`` says the caller is the store's single writer (the
        maintenance path, under the server's write lock when served), so the
        store may build whatever scoring structure the run is worth; a read
        leaves it ``False`` and the store unchanged.
        """
        return self._score_scan(model, self.scan(band))

    def stored_members(
        self, label: int, band: tuple[float | None, float | None] | None
    ) -> tuple[list[object], int]:
        """Ids in one run whose *stored* label is ``label``, and how many tuples the run held.

        ``band`` picks the run as for :meth:`scan`.  The ids come in scan
        order and the ledger is charged what the scan charges, nothing more.
        This loop is the definition; the main-memory store answers the same
        call from its clustering and the feature mirror's label column with
        one mask, charging one ``tuple_read`` per tuple of the slice.
        """
        members: list[object] = []
        scanned = 0
        for record in self.scan(band):
            scanned += 1
            if record.label == label:
                members.append(record.entity_id)
        return members, scanned

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
        self._max_feature_norm = max(
            self._max_feature_norm, float(state.get("max_feature_norm", 0.0))
        )
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
