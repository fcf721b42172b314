"""A disk manager plus LRU buffer pool with deterministic cost accounting.

The buffer pool is where "on-disk" and "in-memory" architectures diverge in
this reproduction: every page fetched that is not resident charges the cost
model's page-read price, every dirty eviction charges a page write, and all of
it is accumulated in :class:`IOStatistics`.  A pool with ``capacity_pages``
large enough to hold the whole table behaves exactly like the main-memory
architecture (after warm-up), which is how Hazy-MM is modeled.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.db.costmodel import CostModel
from repro.db.page import Page
from repro.exceptions import PageError

__all__ = ["IOStatistics", "ledger_probe", "DiskManager", "BufferPool"]


@dataclass
class IOStatistics:
    """Counters for simulated I/O and CPU work, plus the accumulated cost."""

    page_reads: int = 0
    page_writes: int = 0
    sequential_reads: int = 0
    random_reads: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    evictions: int = 0
    tuples_read: int = 0
    tuples_written: int = 0
    dot_products: int = 0
    simulated_seconds: float = 0.0
    detail: dict[str, float] = field(default_factory=dict)

    def charge(self, seconds: float, category: str | None = None) -> None:
        """Add ``seconds`` of simulated cost, optionally tagged by category."""
        self.simulated_seconds += seconds
        if category:
            self.detail[category] = self.detail.get(category, 0.0) + seconds

    def charge_interleaved(self, *charges: tuple[str, np.ndarray | float]) -> None:
        """One call for a loop that made the same few charges once per tuple, in order.

        Each charge is ``(category, amounts)`` — an array of per-tuple
        amounts, or one float for every tuple (at least one is an array) —
        and the loop being replaced charged the first category, then the
        second (...), tuple after tuple.  Skiing compares accumulated floats,
        so the totals must be what that loop would have left *bit for bit*:
        each is an ``np.add.accumulate`` fold — a sequential left fold, unlike
        ``np.sum``, which adds pairwise — seeded with the current value.
        """
        sequence = np.stack(np.broadcast_arrays(*(amounts for _, amounts in charges)), axis=1)
        if not sequence.size:
            return
        self.simulated_seconds = _fold(self.simulated_seconds, sequence.ravel())
        for position, (category, _) in enumerate(charges):
            self.detail[category] = _fold(
                self.detail.get(category, 0.0), sequence[:, position]
            )

    def snapshot(self) -> "IOStatistics":
        """Copy of the current counters (detail dict copied shallowly)."""
        clone = IOStatistics(
            page_reads=self.page_reads,
            page_writes=self.page_writes,
            sequential_reads=self.sequential_reads,
            random_reads=self.random_reads,
            buffer_hits=self.buffer_hits,
            buffer_misses=self.buffer_misses,
            evictions=self.evictions,
            tuples_read=self.tuples_read,
            tuples_written=self.tuples_written,
            dot_products=self.dot_products,
            simulated_seconds=self.simulated_seconds,
        )
        clone.detail = dict(self.detail)
        return clone

    def diff(self, earlier: "IOStatistics") -> "IOStatistics":
        """Counters accumulated since ``earlier`` (a snapshot taken before)."""
        result = IOStatistics(
            page_reads=self.page_reads - earlier.page_reads,
            page_writes=self.page_writes - earlier.page_writes,
            sequential_reads=self.sequential_reads - earlier.sequential_reads,
            random_reads=self.random_reads - earlier.random_reads,
            buffer_hits=self.buffer_hits - earlier.buffer_hits,
            buffer_misses=self.buffer_misses - earlier.buffer_misses,
            evictions=self.evictions - earlier.evictions,
            tuples_read=self.tuples_read - earlier.tuples_read,
            tuples_written=self.tuples_written - earlier.tuples_written,
            dot_products=self.dot_products - earlier.dot_products,
            simulated_seconds=self.simulated_seconds - earlier.simulated_seconds,
        )
        result.detail = {
            key: value - earlier.detail.get(key, 0.0) for key, value in self.detail.items()
        }
        return result


def ledger_probe(*groups: Iterable[IOStatistics]) -> Callable[[], float]:
    """A zero-argument probe of the simulated seconds on ``groups`` of ledgers,
    the one place ledger identity is decided: a ledger counts where it first
    appears (an unserved on-disk view's store charges the database's ledger,
    so list that first).  Groups are summed on their own, then added in order."""
    seen: dict[int, IOStatistics] = {}
    kept = []
    for group in groups:
        distinct = {id(ledger): ledger for ledger in group if id(ledger) not in seen}
        seen.update(distinct)
        if distinct:
            kept.append(tuple(distinct.values()))

    def probe() -> float:
        total = 0.0
        for group in kept:
            subtotal = 0.0
            for ledger in group:
                subtotal += ledger.simulated_seconds
            total += subtotal
        return total

    return probe


def _fold(current: float, amounts: np.ndarray) -> float:
    """``current + amounts[0] + amounts[1] + ...`` added strictly left to right."""
    return float(np.add.accumulate(np.concatenate(((current,), amounts)))[-1])


class DiskManager:
    """Owns every page ever allocated; the "disk" below the buffer pool."""

    def __init__(self, page_size_bytes: int):
        self.page_size_bytes = page_size_bytes
        self._pages: dict[int, Page] = {}
        self._next_page_id = 0

    def allocate(self) -> Page:
        """Allocate a fresh empty page."""
        page = Page(self._next_page_id, self.page_size_bytes)
        self._pages[page.page_id] = page
        self._next_page_id += 1
        return page

    def get(self, page_id: int) -> Page:
        """Fetch a page by id (no cost accounting — that is the pool's job)."""
        if page_id not in self._pages:
            raise PageError(f"unknown page id {page_id}")
        return self._pages[page_id]

    def deallocate(self, page_id: int) -> None:
        """Drop a page (used when heap files are rewritten)."""
        self._pages.pop(page_id, None)

    def page_count(self) -> int:
        """Number of allocated pages."""
        return len(self._pages)


class BufferPool:
    """LRU page cache charging the cost model for misses and dirty evictions.

    Parameters
    ----------
    cost_model:
        Prices for page reads/writes and CPU work.
    capacity_pages:
        How many pages may be resident at once.  ``None`` means unbounded,
        which (after warm-up) behaves like a pure main-memory system.
    statistics:
        Shared :class:`IOStatistics` instance; one per database so all tables
        account into the same ledger.
    """

    def __init__(
        self,
        cost_model: CostModel,
        capacity_pages: int | None = None,
        statistics: IOStatistics | None = None,
    ):
        if capacity_pages is not None and capacity_pages < 1:
            raise PageError("buffer pool capacity must be >= 1 page")
        self.cost_model = cost_model
        self.capacity_pages = capacity_pages
        self.stats = statistics if statistics is not None else IOStatistics()
        self.disk = DiskManager(cost_model.page_size_bytes)
        self._resident: OrderedDict[int, Page] = OrderedDict()

    # -- page lifecycle --------------------------------------------------------

    def allocate_page(self) -> Page:
        """Allocate a new page and make it resident (no read charge)."""
        page = self.disk.allocate()
        self._make_resident(page, charge_read=False, sequential=True)
        return page

    def fetch(self, page_id: int, sequential: bool = False) -> Page:
        """Return the page, charging a read if it is not resident."""
        if page_id in self._resident:
            self._resident.move_to_end(page_id)
            self.stats.buffer_hits += 1
            return self._resident[page_id]
        self.stats.buffer_misses += 1
        page = self.disk.get(page_id)
        self._make_resident(page, charge_read=True, sequential=sequential)
        return page

    def mark_dirty(self, page_id: int) -> None:
        """Record that a resident page has been modified."""
        page = self.disk.get(page_id)
        page.dirty = True

    def drop_page(self, page_id: int) -> None:
        """Remove a page entirely (heap rewrite); dirty data is charged as a write."""
        page = self._resident.pop(page_id, None)
        if page is not None and page.dirty:
            self._charge_write(sequential=True)
        self.disk.deallocate(page_id)

    def flush_all(self) -> None:
        """Write back every dirty resident page (sequential pricing)."""
        for page in self._resident.values():
            if page.dirty:
                self._charge_write(sequential=True)
                page.dirty = False

    def resident_page_count(self) -> int:
        """Number of pages currently cached."""
        return len(self._resident)

    # -- internals --------------------------------------------------------------

    def _make_resident(self, page: Page, charge_read: bool, sequential: bool) -> None:
        if charge_read:
            self._charge_read(sequential)
        self._resident[page.page_id] = page
        self._resident.move_to_end(page.page_id)
        self._evict_if_needed()

    def _evict_if_needed(self) -> None:
        if self.capacity_pages is None:
            return
        while len(self._resident) > self.capacity_pages:
            evicted_id, evicted = self._resident.popitem(last=False)
            self.stats.evictions += 1
            if evicted.dirty:
                self._charge_write(sequential=False)
                evicted.dirty = False
            # The page data itself stays in the DiskManager; only residency is lost.
            del evicted_id

    def _charge_read(self, sequential: bool) -> None:
        self.stats.page_reads += 1
        if sequential:
            self.stats.sequential_reads += 1
            self.stats.charge(self.cost_model.sequential_page_read, "page_read")
        else:
            self.stats.random_reads += 1
            self.stats.charge(self.cost_model.random_page_read, "page_read")

    def _charge_write(self, sequential: bool) -> None:
        self.stats.page_writes += 1
        cost = (
            self.cost_model.sequential_page_write
            if sequential
            else self.cost_model.random_page_write
        )
        self.stats.charge(cost, "page_write")
