"""The read side of a classification view: one reader, asked for once.

The paper reads a view two ways (§2.2) — Single Entity and All Members — and
the SQL layer adds a key range, a ranked read and a contents scan.  Whoever
answers them *now* is the view's **reader**, handed out by
:meth:`~repro.core.engine.ClassificationView.reader`, the one place that asks
"am I served?" for a read: :class:`DirectReads` over the view's own maintainer
while it is not, the :class:`~repro.serve.server.ViewServer` — or a
connection's :class:`~repro.serve.server.ClientSession` on it — while it is.

Every reader answers the six :data:`READS` with the same signatures, so plan
nodes never fork.  The two the planner can be handed (``DirectReads``,
``ViewServer``) also **price their own reads** — ``estimate(operation)`` is
:func:`read_estimate` over the one store of a maintainer or the N stores of
the shards — say who they are (``served``, ``fanout``) and name the ledger
their reads charge (``ledger_seconds()``): ``repro.db`` never walks a server.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.maintainers.base import ViewMaintainer
from repro.core.stores.base import EntityStore
from repro.exceptions import KeyNotFoundError

__all__ = ["READS", "ESTIMATES", "DirectReads", "read_estimate"]

#: The reads every reader answers.
READS = ("label_of", "labels_of", "all_members", "range_scan", "top_k", "contents")
#: The reads :func:`read_estimate` prices (a join's ``labels_of`` burst is
#: sized by its probe side, which is unknown at plan time).
ESTIMATES = ("label_of", "all_members", "range_scan", "top_k", "contents")


def read_estimate(operation: str, stores: Sequence[EntityStore]) -> float:
    """Cost-model estimate, in simulated seconds, of one read over ``stores``.

    A point read is priced on the first store (the cheaper of a point lookup
    and a scan, as ``read_many`` chooses); All Members, a key range and a
    ranked read scan every store once; a contents read also answers through
    ``read_single`` — statement overhead included — per stored entity.  On a
    Hazy strategy All Members and a key range scan only the eps slice above
    low / below high water, so the full scan is their upper bound, the price
    the plan shows before the band is known.
    """
    first = stores[0]
    overhead = first.cost_model.statement_overhead
    if operation == "label_of":
        return overhead + min(first.point_read_cost_estimate(), first.scan_cost_estimate())
    if operation == "contents":
        return overhead + sum(
            store.scan_cost_estimate()
            + store.count() * (overhead + store.point_read_cost_estimate())
            for store in stores
        )
    if operation in ESTIMATES:
        return overhead + sum(store.scan_cost_estimate() for store in stores)
    raise ValueError(f"no estimate for read {operation!r}; known: {ESTIMATES}")


class DirectReads:
    """The reader of an unserved view: each read is one maintainer operation.

    Maintainer methods are looked up per call, never captured: the wall-clock
    benchmark's tracer patches them on the class during a traced run.
    """

    served = False
    fanout = 1

    def __init__(self, maintainer: ViewMaintainer):
        self._maintainer = maintainer

    def label_of(self, entity_id: object) -> int:
        """Single Entity read: the entity's label in {-1, +1}."""
        return self._maintainer.read_single(entity_id)

    def labels_of(self, entity_ids: Iterable[object]) -> dict[object, int]:
        """Point reads for a join's probe keys; unknown ids are absent."""
        found: dict[object, int] = {}
        for entity_id in entity_ids:
            try:
                found[entity_id] = self._maintainer.read_single(entity_id)
            except KeyNotFoundError:
                continue
        return found

    def all_members(self, label: int = 1) -> list[object]:
        """All Members read: ids of every entity carrying ``label``."""
        return self._maintainer.read_all_members(label)

    def range_scan(
        self,
        label: int = 1,
        low: object | None = None,
        high: object | None = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[object]:
        """Members of class ``label`` whose key lies in the range."""
        return self._maintainer.read_range(label, low, high, include_low, include_high)

    def top_k(self, k: int, label: int = 1) -> list[tuple[object, float]]:
        """The ``k`` entities deepest inside class ``label``: ``(id, margin)`` pairs."""
        return self._maintainer.top_k(k, label)

    def contents(self) -> dict[object, int]:
        """The full view ``{id: label}``."""
        return self._maintainer.contents()

    def estimate(self, operation: str) -> float:
        """What the planner should expect ``operation`` to cost here."""
        return read_estimate(operation, [self._maintainer.store])

    def ledger_seconds(self) -> float:
        """Simulated seconds on the ledger these reads charge."""
        return self._maintainer.store.stats.simulated_seconds
