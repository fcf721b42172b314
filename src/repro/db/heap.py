"""Heap files: an append-ordered collection of slotted pages behind the buffer pool."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

from repro.db.buffer_pool import BufferPool
from repro.db.page import RecordId
from repro.exceptions import PageError

__all__ = ["HeapFile"]


class HeapFile:
    """Rows stored in insertion order across pages allocated from a buffer pool.

    A heap file does not know about schemas — callers pass a ``row_size``
    function so the file can pack pages.  The Hazy on-disk architecture
    *rewrites* its heap file in ``eps`` order at each reorganization, which is
    what makes range scans over the water band touch few, contiguous pages.
    """

    def __init__(self, pool: BufferPool, sizer: Callable[[dict[str, object]], int]):
        self.pool = pool
        self.sizer = sizer
        self._page_ids: list[int] = []
        self._row_count = 0

    # -- write path --------------------------------------------------------------

    def insert(self, row: dict[str, object]) -> RecordId:
        """Append a row, allocating a new page when the last one is full."""
        row_size = self.sizer(row)
        if row_size > self.pool.cost_model.page_size_bytes:
            raise PageError(
                f"row of {row_size} bytes exceeds the page size "
                f"{self.pool.cost_model.page_size_bytes}"
            )
        page = None
        if self._page_ids:
            last = self.pool.fetch(self._page_ids[-1], sequential=True)
            if last.fits(row_size):
                page = last
        if page is None:
            page = self.pool.allocate_page()
            self._page_ids.append(page.page_id)
        slot = page.insert(row, row_size)
        self.pool.mark_dirty(page.page_id)
        self.pool.stats.tuples_written += 1
        self.pool.stats.charge(self.pool.cost_model.tuple_cpu, "tuple_write")
        self._row_count += 1
        return RecordId(page.page_id, slot)

    def update(self, rid: RecordId, row: dict[str, object], sequential: bool = False) -> None:
        """Overwrite the row at ``rid`` in place."""
        page = self.pool.fetch(rid.page_id, sequential=sequential)
        page.update(rid.slot, row, self.sizer(row))
        self.pool.mark_dirty(rid.page_id)
        self.pool.stats.tuples_written += 1
        self.pool.stats.charge(self.pool.cost_model.tuple_cpu, "tuple_write")

    def delete(self, rid: RecordId) -> None:
        """Tombstone the row at ``rid``."""
        page = self.pool.fetch(rid.page_id)
        page.delete(rid.slot)
        self.pool.mark_dirty(rid.page_id)
        self._row_count -= 1

    def truncate(self) -> None:
        """Drop every page (used when the file is rebuilt in a new order)."""
        for page_id in self._page_ids:
            self.pool.drop_page(page_id)
        self._page_ids = []
        self._row_count = 0

    def bulk_rebuild(self, rows: Iterable[dict[str, object]]) -> list[RecordId]:
        """Replace the file's contents with ``rows`` in the given order.

        Returns the new record id of each row, in order.  This is the physical
        half of a Hazy reorganization: rewrite the heap sorted by ``eps``.
        """
        self.truncate()
        return [self.insert(row) for row in rows]

    # -- read path ----------------------------------------------------------------

    def read(self, rid: RecordId, sequential: bool = False) -> dict[str, object]:
        """Return the row stored at ``rid``."""
        page = self.pool.fetch(rid.page_id, sequential=sequential)
        self.pool.stats.tuples_read += 1
        self.pool.stats.charge(self.pool.cost_model.tuple_cpu, "tuple_read")
        return page.read(rid.slot)

    def read_slots(self, page_id: int, slots: list[int]) -> list[dict[str, object]]:
        """The rows at ``slots`` (ascending) of one page, fetched once, sequentially.

        The ledger is what one :meth:`read` per slot leaves *except* the tuple
        reads, which the caller charges in its own order: the first read's
        fetch, then a buffer hit for each further one (the page is the most
        recently used by then).
        """
        page = self.pool.fetch(page_id, sequential=True)
        self.pool.stats.buffer_hits += len(slots) - 1
        return page.read_slots(slots)

    def page_rows(self) -> Iterator[list[dict[str, object]]]:
        """Every live row, a list per page in physical order: :meth:`scan` less its tuple reads."""
        for page_id in self._page_ids:
            page = self.pool.fetch(page_id, sequential=True)
            yield [row for _, row in page.rows()]

    def scan(self) -> Iterator[tuple[RecordId, dict[str, object]]]:
        """Full sequential scan in physical order."""
        for page_id in self._page_ids:
            page = self.pool.fetch(page_id, sequential=True)
            for slot, row in page.rows():
                self.pool.stats.tuples_read += 1
                self.pool.stats.charge(self.pool.cost_model.tuple_cpu, "tuple_read")
                yield RecordId(page_id, slot), row

    # -- stats ---------------------------------------------------------------------

    def page_count(self) -> int:
        """Number of pages the file spans."""
        return len(self._page_ids)

    def row_count(self) -> int:
        """Number of live rows."""
        return self._row_count
