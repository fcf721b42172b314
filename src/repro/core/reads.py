"""The read side of a classification view: one reader, asked for once.

The paper reads a view two ways (§2.2) — Single Entity and All Members — and
the SQL layer adds a key range (one :class:`~repro.db.types.KeyRange`, handed
unchanged to the maintainer), a ranked read and a contents scan; a join's
probe keys are one batched point read.  Whoever answers them *now* is the
view's **reader**, handed out by
:meth:`~repro.core.engine.ClassificationView.reader`, the one place that asks
"am I served?" for a read: :class:`DirectReads` over the view's own maintainer
while it is not, the :class:`~repro.serve.server.ViewServer` — or a
connection's :class:`~repro.serve.server.ClientSession` on it — while it is.

Every reader answers the six :data:`READS` with the same signatures, so plan
nodes never fork, and charge one statement per store they touch.  The two the
planner can be handed (``DirectReads``, ``ViewServer``) also **price their own
reads** — ``estimate(operation)`` is :func:`read_estimate` over the one store
of a maintainer or the N stores of the shards — say who they are (``served``,
``fanout``) and hand out the ledgers their reads charge (``ledgers()``):
``repro.db`` never walks a server.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.maintainers.base import ViewMaintainer
from repro.core.stores.base import EntityStore
from repro.db.buffer_pool import IOStatistics
from repro.db.types import KeyRange

__all__ = ["READS", "ESTIMATES", "DirectReads", "read_estimate"]

#: The reads every reader answers.
READS = ("label_of", "labels_of", "all_members", "range_scan", "top_k", "contents")
#: The reads :func:`read_estimate` prices (a join's ``labels_of`` burst is
#: sized by its probe side, which is unknown at plan time).
ESTIMATES = ("label_of", "all_members", "range_scan", "top_k", "contents")


def read_estimate(operation: str, stores: Sequence[EntityStore]) -> float:
    """Cost-model estimate, in simulated seconds, of one read over ``stores``.

    Every read is one statement per store it touches.  A point read touches
    one, priced on the first (the cheaper of a point lookup and a scan, as
    ``read_many`` chooses); every other read scans each store once.  On a
    Hazy strategy All Members and a key range scan only the eps slice above
    low / below high water, so the full scan is their upper bound, the price
    the plan shows before the band is known.  No dot product is priced
    (stores do not count their non-zeros): a read that scores tuples charges
    them on top of this figure.
    """
    first = stores[0]
    overhead = first.cost_model.statement_overhead
    if operation == "label_of":
        return overhead + min(first.point_read_cost_estimate(), first.scan_cost_estimate())
    if operation in ESTIMATES:
        return sum(overhead + store.scan_cost_estimate() for store in stores)
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

    def labels_of(self, entity_ids: Sequence[object]) -> dict[object, int]:
        """One batched point read for a join's probe keys; unknown ids are absent."""
        return self._maintainer.read_many(entity_ids)

    def all_members(self, label: int = 1) -> list[object]:
        """All Members read: ids of every entity carrying ``label``."""
        return self._maintainer.read_all_members(label)

    def range_scan(self, label: int, key_range: KeyRange) -> list[object]:
        """Members of class ``label`` whose key lies in ``key_range``."""
        return self._maintainer.read_range(label, key_range)

    def top_k(self, k: int, label: int = 1) -> list[tuple[object, float]]:
        """The ``k`` entities deepest inside class ``label``: ``(id, margin)`` pairs."""
        return self._maintainer.top_k(k, label)

    def contents(self) -> dict[object, int]:
        """The full view ``{id: label}``."""
        return self._maintainer.contents()

    def estimate(self, operation: str) -> float:
        """What the planner should expect ``operation`` to cost here."""
        return read_estimate(operation, [self._maintainer.store])

    def ledgers(self) -> tuple[IOStatistics, ...]:
        """The ledger these reads charge: the store's (the database's own on disk)."""
        return (self._maintainer.store.stats,)
