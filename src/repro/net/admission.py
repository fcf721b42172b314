"""Priority-lane admission control in front of the executor.

The wire server accepts statements faster than the engine can execute them
under load, and the two statement populations have wildly different costs: a
batched point read touches one entity, an All-Members scatter/gather touches
every shard.  A single FIFO queue lets a burst of scans park every point read
behind seconds of scan work.  The :class:`AdmissionController` prevents that
with two **lanes**:

``point``
    SELECTs whose plan touches only point-access nodes (primary-key
    ``IndexRange``, batcher-routed ``ViewPointRead``/``ServedPointRead``) or
    zero-cost ``SystemTableScan`` dashboards.
``bulk``
    Everything else — scans, range reads, scatter/gather, joins over scans,
    DML, DDL, the serving lifecycle verbs, ``executemany``.

Each lane is a bounded FIFO; a full lane rejects immediately
(:class:`~repro.exceptions.AdmissionRejectedError` — backpressure the client
can retry) rather than queueing unboundedly.  A fixed pool of execution
*slots* caps concurrency; when a slot frees, the scheduler picks the next
lane by **weighted round-robin** (default 4:1 point:bulk), so bulk work
always progresses but can never monopolize grants.  Additionally the bulk
lane may occupy at most ``bulk_slot_cap`` slots (default ``slots - 1``):
point-read headroom is always reserved, bounding the time a point read can
wait behind in-flight scans to the remaining runtime of the capped scans.

The controller keeps its own plain counters under its lock and exposes them
via :meth:`stats`; the server mirrors that dict into the metrics registry as
a lazy ``net.admission`` pull provider — the grant/release hot path never
touches the registry.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager

from repro.db.sql.plan import (
    IndexRange,
    SystemTableScan,
    ViewPointRead,
)
from repro.db.sql.ast import Select
from repro.exceptions import (
    AdmissionRejectedError,
    AdmissionTimeoutError,
    ConfigurationError,
)

__all__ = ["AdmissionController", "LANES", "POINT_LANE", "BULK_LANE", "lane_for"]

POINT_LANE = "point"
BULK_LANE = "bulk"
LANES = (POINT_LANE, BULK_LANE)

#: Plan nodes that are cheap per-statement point accesses.  ``ServedPointRead``
#: is the name ``EXPLAIN`` prints for a ``ViewPointRead`` planned against a
#: live server; ``SystemTableScan`` costs zero simulated seconds by
#: construction, so observability dashboards ride the fast lane.
_POINT_ACCESS_NODES = (IndexRange, ViewPointRead, SystemTableScan)

#: Structural nodes that never touch storage themselves.
_STRUCTURAL_LABELS = ("Filter", "Project", "Sort", "TopK", "Limit", "Aggregate", "HashJoin")


def lane_for(statement, plan) -> str:
    """Classify one prepared statement into its admission lane.

    A statement rides the point lane only when it is a SELECT whose plan's
    every *access* node is a point access; anything unplanned (DML, DDL,
    lifecycle verbs) or containing a scan-shaped node is bulk.
    """
    if not isinstance(statement, Select) or plan is None:
        return BULK_LANE
    for _, node in plan.root.walk():
        if type(node).__name__ in _STRUCTURAL_LABELS:
            continue
        if not isinstance(node, _POINT_ACCESS_NODES):
            return BULK_LANE
    return POINT_LANE


class _Ticket:
    """One waiting statement: FIFO position plus its grant flag."""

    __slots__ = ("granted", "enqueued_at")

    def __init__(self) -> None:
        self.granted = False
        self.enqueued_at = time.perf_counter()


class _Lane:
    """One lane's queue and counters (all mutated under the controller lock)."""

    __slots__ = (
        "name",
        "queue",
        "in_flight",
        "admitted_total",
        "rejected_total",
        "timeouts_total",
        "waits_total",
        "wait_seconds_total",
        "max_wait_seconds",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.queue: deque[_Ticket] = deque()
        self.in_flight = 0
        self.admitted_total = 0
        self.rejected_total = 0
        self.timeouts_total = 0
        self.waits_total = 0
        self.wait_seconds_total = 0.0
        self.max_wait_seconds = 0.0


class AdmissionController:
    """Bounded two-lane admission with weighted slot scheduling.

    Parameters
    ----------
    slots:
        Concurrent statement executions across both lanes.
    queue_capacity:
        Per-lane bound on *waiting* statements; a full lane rejects.
    point_weight / bulk_weight:
        The weighted round-robin grant ratio when both lanes have waiters.
    """

    # Shared-state contract, enforced by repro-lint's lock pass.  Lane
    # objects' fields ride under the same condition by convention; only the
    # controller's own attributes can be declared here.
    _GUARDED_BY = {"_cursor": "_condition"}

    def __init__(
        self,
        slots: int = 4,
        queue_capacity: int = 128,
        point_weight: int = 4,
        bulk_weight: int = 1,
        bulk_slot_cap: int | None = None,
    ) -> None:
        if slots < 1:
            raise ConfigurationError("admission needs at least one execution slot")
        if queue_capacity < 1:
            raise ConfigurationError("admission queue capacity must be positive")
        if point_weight < 1 or bulk_weight < 1:
            raise ConfigurationError("lane weights must be positive integers")
        self.slots = int(slots)
        self.queue_capacity = int(queue_capacity)
        self.point_weight = int(point_weight)
        self.bulk_weight = int(bulk_weight)
        #: Bulk may never fill every slot: the reserved headroom bounds how
        #: long a point read waits behind already-running scans.  Defaults to
        #: ``slots - 1``; operators protecting tail latency under heavy scan
        #: pressure can pin it lower (1 = one scan at a time).
        if bulk_slot_cap is None:
            bulk_slot_cap = max(1, self.slots - 1)
        if not 1 <= bulk_slot_cap <= self.slots:
            raise ConfigurationError("bulk_slot_cap must be between 1 and slots")
        self.bulk_slot_cap = int(bulk_slot_cap)
        self._condition = threading.Condition()
        self._lanes = {POINT_LANE: _Lane(POINT_LANE), BULK_LANE: _Lane(BULK_LANE)}
        # The grant cycle realizes the weights deterministically:
        # point,point,point,point,bulk for the 4:1 default.
        self._cycle = (POINT_LANE,) * int(point_weight) + (BULK_LANE,) * int(bulk_weight)
        self._cursor = 0

    # -- submission ----------------------------------------------------------------------

    @contextmanager
    def admit(self, lane: str, timeout: float | None = None):
        """``with controller.admit(lane):`` — hold one execution slot.

        Raises :class:`AdmissionRejectedError` when the lane's queue is full
        and :class:`AdmissionTimeoutError` when no slot frees within
        ``timeout`` seconds.
        """
        self._submit(lane, timeout)
        try:
            yield
        finally:
            self._release(lane)

    def _submit(self, lane_name: str, timeout: float | None) -> None:
        if lane_name not in self._lanes:
            raise ConfigurationError(f"unknown admission lane {lane_name!r}")
        with self._condition:
            lane = self._lanes[lane_name]
            if len(lane.queue) >= self.queue_capacity:
                lane.rejected_total += 1
                raise AdmissionRejectedError(
                    f"{lane_name} lane is at capacity "
                    f"({self.queue_capacity} queued statements); retry later"
                )
            ticket = _Ticket()
            lane.queue.append(ticket)
            self._dispatch()
            if not ticket.granted:
                granted = self._condition.wait_for(lambda: ticket.granted, timeout=timeout)
                if not granted:
                    # Still queued: withdraw.  (Grant cannot race past the
                    # predicate — both happen under this lock.)
                    try:
                        lane.queue.remove(ticket)
                    except ValueError:
                        pass
                    lane.timeouts_total += 1
                    raise AdmissionTimeoutError(
                        f"statement waited over {timeout}s in the {lane_name} lane"
                    )
            wait = time.perf_counter() - ticket.enqueued_at
            lane.admitted_total += 1
            lane.waits_total += 1
            lane.wait_seconds_total += wait
            if wait > lane.max_wait_seconds:
                lane.max_wait_seconds = wait

    def _release(self, lane_name: str) -> None:
        with self._condition:
            self._lanes[lane_name].in_flight -= 1
            self._dispatch()

    # -- scheduling ----------------------------------------------------------------------

    def _eligible(self, lane: _Lane) -> bool:
        if not lane.queue:
            return False
        if lane.name == BULK_LANE and lane.in_flight >= self.bulk_slot_cap:
            return False
        return True

    def _dispatch(self) -> None:  # repro: locked(_condition)
        """Grant free slots to waiting tickets (call under the lock)."""
        granted_any = False
        while True:
            free = self.slots - sum(lane.in_flight for lane in self._lanes.values())
            if free <= 0:
                break
            chosen: _Lane | None = None
            # Walk one full cycle from the cursor; the first eligible lane in
            # weighted order wins and the cursor advances past it, so over
            # time grants match the configured ratio whenever both lanes wait.
            for offset in range(len(self._cycle)):
                candidate = self._lanes[self._cycle[(self._cursor + offset) % len(self._cycle)]]
                if self._eligible(candidate):
                    chosen = candidate
                    self._cursor = (self._cursor + offset + 1) % len(self._cycle)
                    break
            if chosen is None:
                break
            ticket = chosen.queue.popleft()
            ticket.granted = True
            chosen.in_flight += 1
            granted_any = True
        if granted_any:
            self._condition.notify_all()

    # -- observability -------------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Per-lane depth/in-flight/admission counters, mirror-ready.

        Keys follow the registry's ``snake_case`` + ``_total``/``_seconds``
        convention so the ``net.admission`` pull provider can expose the dict
        verbatim.
        """
        with self._condition:
            out: dict[str, float] = {
                "slots": self.slots,
                "queue_capacity": self.queue_capacity,
            }
            for lane in self._lanes.values():
                prefix = f"{lane.name}."
                out[prefix + "depth"] = len(lane.queue)
                out[prefix + "in_flight"] = lane.in_flight
                out[prefix + "admitted_total"] = lane.admitted_total
                out[prefix + "rejected_total"] = lane.rejected_total
                out[prefix + "timeouts_total"] = lane.timeouts_total
                out[prefix + "wait_seconds_total"] = lane.wait_seconds_total
                out[prefix + "max_wait_seconds"] = lane.max_wait_seconds
            return out
