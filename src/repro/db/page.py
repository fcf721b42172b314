"""Slotted pages: the unit of simulated disk I/O.

A page stores row payloads in slots.  Rows are identified by a record id
(``RecordId``): the pair (page id, slot number).  Deleting a row leaves a
tombstone so record ids of other rows stay stable; compaction happens when the
heap file is rewritten (e.g. on a Hazy reorganization).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import PageError

__all__ = ["RecordId", "Page"]


@dataclass(frozen=True, order=True)
class RecordId:
    """Physical address of a row: page id and slot index within the page."""

    page_id: int
    slot: int


class Page:
    """A fixed-capacity slotted page holding row dictionaries.

    Capacity is tracked in *approximate bytes* supplied by the caller (the
    table schema knows how to size a row); the page itself never inspects row
    contents.
    """

    __slots__ = ("page_id", "capacity_bytes", "used_bytes", "_slots", "_sizes", "dirty")

    def __init__(self, page_id: int, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise PageError("page capacity must be positive")
        self.page_id = page_id
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self._slots: list[dict[str, object] | None] = []
        self._sizes: list[int] = []
        self.dirty = False

    # -- capacity -------------------------------------------------------------

    def free_bytes(self) -> int:
        """Remaining capacity in bytes."""
        return self.capacity_bytes - self.used_bytes

    def fits(self, row_size: int) -> bool:
        """Whether a row of ``row_size`` bytes fits on this page."""
        return row_size <= self.free_bytes()

    def live_row_count(self) -> int:
        """Number of non-deleted rows on the page."""
        return sum(1 for slot in self._slots if slot is not None)

    # -- row operations --------------------------------------------------------

    def insert(self, row: dict[str, object], row_size: int) -> int:
        """Insert ``row`` and return its slot index."""
        if not self.fits(row_size):
            raise PageError(
                f"page {self.page_id} cannot fit a {row_size}-byte row "
                f"({self.free_bytes()} bytes free)"
            )
        self._slots.append(row)
        self._sizes.append(row_size)
        self.used_bytes += row_size
        self.dirty = True
        return len(self._slots) - 1

    def read(self, slot: int) -> dict[str, object]:
        """Return the row at ``slot``; raises on tombstones and bad slots."""
        self._check_slot(slot)
        row = self._slots[slot]
        if row is None:
            raise PageError(f"slot {slot} of page {self.page_id} is deleted")
        return row

    def read_slots(self, slots: list[int]) -> list[dict[str, object]]:
        """:meth:`read` of each of ``slots`` (ascending), in one call; raises as it does."""
        if slots:
            self._check_slot(slots[0])
            self._check_slot(slots[-1])
        stored = self._slots
        rows = [stored[slot] for slot in slots]
        if None in rows:
            raise PageError(f"slot {slots[rows.index(None)]} of page {self.page_id} is deleted")
        return rows

    def update(self, slot: int, row: dict[str, object], row_size: int) -> None:
        """Replace the row at ``slot`` in place (the paper's in-place-update UDF)."""
        self._check_slot(slot)
        if self._slots[slot] is None:
            raise PageError(f"slot {slot} of page {self.page_id} is deleted")
        old_size = self._sizes[slot]
        if self.used_bytes - old_size + row_size > self.capacity_bytes:
            raise PageError(
                f"in-place update of slot {slot} on page {self.page_id} would overflow"
            )
        self._slots[slot] = row
        self._sizes[slot] = row_size
        self.used_bytes += row_size - old_size
        self.dirty = True

    def delete(self, slot: int) -> None:
        """Tombstone the row at ``slot``."""
        self._check_slot(slot)
        if self._slots[slot] is None:
            return
        self.used_bytes -= self._sizes[slot]
        self._slots[slot] = None
        self._sizes[slot] = 0
        self.dirty = True

    def rows(self) -> list[tuple[int, dict[str, object]]]:
        """All live rows as ``(slot, row)`` pairs in slot order."""
        return [(slot, row) for slot, row in enumerate(self._slots) if row is not None]

    def _check_slot(self, slot: int) -> None:
        if slot < 0 or slot >= len(self._slots):
            raise PageError(f"page {self.page_id} has no slot {slot}")

    def __repr__(self) -> str:
        return (
            f"Page(id={self.page_id}, rows={self.live_row_count()}, "
            f"used={self.used_bytes}/{self.capacity_bytes})"
        )
