"""Secondary B+-tree indexes on base-table columns (``CREATE INDEX``).

A :class:`SecondaryIndex` maps one or more columns' values to the heap record
ids of the rows carrying them, backed by the same
:class:`~repro.db.btree.BPlusTree` that clusters the scratch table on ``eps``.
Every index keys on the tuple of its columns' values, compared
lexicographically — a one-column index is the composite case with no prefix —
which gives the planner the classic leftmost-prefix rule
(:func:`~repro.db.sql.plan.leftmost_prefix`): equality conjuncts pin leading
columns and at most one range on the next column becomes a contiguous key
range.  A probe takes the pinned values and that range as one
:class:`~repro.db.types.KeyRange` — :meth:`SecondaryIndex.scan` walks the tree
over its inclusive bounds and drops the equal key of a strict bound — and the
one estimator, :meth:`SecondaryIndex.estimate_matches`, takes the number of
pinned columns and the same range, None when it is unknown at plan time.  The
table maintains its indexes inline on every INSERT/UPDATE/DELETE, so an index
scan is always exactly as fresh as a heap scan; the planner prices the access
paths against each other and the :class:`~repro.db.sql.plan.SecondaryIndexRange`
node is what an index win executes.

NULL values are **not** indexed (as in most engines): an entry is skipped when
*any* key component is NULL, since a predicate never selects such rows
through a B+-tree, and the residual ``Filter`` the planner keeps above every
access path re-checks the original conjuncts anyway.  The ``covers_all_rows``
probe tells order-sensitive consumers (index-ordered ``ORDER BY ... LIMIT k``)
and covering scans whether the index saw every live row.

Cost accounting follows the house convention: *actual* charges are CPU-style
(``tuple_cpu`` per descent level and per visited entry, tagged
``index_read``/``index_write``/``index_build`` in the ledger detail); the heap
fetch for each matching rid goes through the buffer pool and prices its own
pages — unless the scan is *covering*, in which case the caller rebuilds rows
from the keys this scan yields and no heap page is ever touched.  The
*estimate* is pure statistics — entry count, distinct keys, min/max
interpolation — so planning never touches data.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.db.btree import BPlusTree
from repro.db.buffer_pool import BufferPool
from repro.db.page import RecordId
from repro.db.types import KeyRange

__all__ = ["SecondaryIndex"]

#: Selectivity assumed for a range whose bounds are unknown at plan time
#: (placeholder parameters) or not interpolatable (non-numeric keys).
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0


class _Top:
    """Compares greater than every column value.

    Appending this sentinel to a key prefix produces an upper bound that
    admits every tuple key extending the prefix while excluding the next
    prefix, so prefix scans need no knowledge of the column's value domain.
    """

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self

    def __gt__(self, other: object) -> bool:
        return other is not self

    def __ge__(self, other: object) -> bool:
        return True

    def __repr__(self) -> str:
        return "<top>"


_TOP = _Top()


class SecondaryIndex:
    """A named B+-tree over one or more columns: key -> record ids (dups allowed)."""

    def __init__(self, name: str, columns: Sequence[str], pool: BufferPool, order: int = 64):
        self.name = name
        self.columns: tuple[str, ...] = tuple(columns)
        if not self.columns:
            raise ValueError("secondary index needs at least one column")
        self.pool = pool
        self.tree = BPlusTree(order=order, coerce=None)

    def __len__(self) -> int:
        return len(self.tree)

    @property
    def distinct_keys(self) -> int:
        """Distinct indexed keys (the equality-selectivity denominator)."""
        return self.tree.distinct_keys

    @property
    def height(self) -> int:
        """Tree height (priced per level on every probe)."""
        return self.tree.height

    # -- maintenance (called by Table on every write) -----------------------------------

    @staticmethod
    def _indexable(value: object) -> bool:
        """NULLs and non-self-equal values (NaN) are never indexed: a NaN key
        could never be found again by the tree's bisect lookups (``NaN != NaN``),
        so it would become an undeletable ghost and poison the min/max stats.
        Unindexed rows stay scan-equivalent — no predicate matches NaN either,
        and ``covers_all_rows`` turning False keeps ordered reads on the
        fallback path."""
        return value is not None and value == value

    def key_of(self, row: dict) -> tuple | None:
        """The tree key for ``row`` — the tuple of its key columns' values —
        or None when any component is NULL/NaN and the row is unindexable."""
        parts = tuple(row.get(column) for column in self.columns)
        if all(self._indexable(part) for part in parts):
            return parts
        return None

    @staticmethod
    def _same_key(old: tuple, new: tuple) -> bool:
        return all(a == b and type(a) is type(b) for a, b in zip(old, new))

    def insert(self, row: dict, rid: RecordId) -> None:
        """Index ``row -> rid``; rows with NULL/NaN key components are skipped."""
        key = self.key_of(row)
        if key is None:
            return
        self.tree.insert(key, rid)
        self.pool.stats.charge(self.pool.cost_model.tuple_cpu, "index_write")

    def delete(self, row: dict, rid: RecordId) -> None:
        """Drop one ``row -> rid`` entry (no-op for unindexable / absent entries)."""
        key = self.key_of(row)
        if key is None:
            return
        self.tree.delete(key, rid)
        self.pool.stats.charge(self.pool.cost_model.tuple_cpu, "index_write")

    def replace(self, old_row: dict, new_row: dict, rid: RecordId) -> None:
        """Re-key ``rid`` after an UPDATE changed some indexed column."""
        old_key, new_key = self.key_of(old_row), self.key_of(new_row)
        if old_key is not None and new_key is not None and self._same_key(old_key, new_key):
            return
        if old_key is not None:
            self.tree.delete(old_key, rid)
            self.pool.stats.charge(self.pool.cost_model.tuple_cpu, "index_write")
        if new_key is not None:
            self.tree.insert(new_key, rid)
            self.pool.stats.charge(self.pool.cost_model.tuple_cpu, "index_write")

    def clear(self) -> None:
        """Drop every entry (table truncation)."""
        self.tree.clear()

    # -- probes --------------------------------------------------------------------------

    def covers_all_rows(self, live_rows: int) -> bool:
        """Whether every live row is indexed (False when key columns have NULLs)."""
        return len(self.tree) == live_rows

    @staticmethod
    def _tree_bounds(key_range: KeyRange, equalities: tuple) -> tuple[tuple | None, tuple | None]:
        """Full tree-key bounds for an equality prefix plus a range on the
        next column.  A shorter tuple is already an inclusive lower bound for
        every extension; the upper bound appends :data:`_TOP` so every
        extension of the bounded prefix stays in range."""
        low, high = key_range.low, key_range.high
        tree_low: tuple | None = equalities + ((low,) if low is not None else ())
        if not tree_low:
            tree_low = None
        if high is not None:
            tree_high: tuple | None = equalities + (high, _TOP)
        elif equalities:
            tree_high = equalities + (_TOP,)
        else:
            tree_high = None
        return tree_low, tree_high

    def scan(
        self,
        key_range: KeyRange,
        equalities: Sequence[object] = (),
        reverse: bool = False,
        with_keys: bool = False,
    ) -> Iterator[RecordId] | Iterator[tuple[object, RecordId]]:
        """Record ids (or ``(key, rid)`` pairs) matching the probe, in key order.

        ``equalities`` pins the leading key columns (all of them, for a
        full-key probe); ``key_range`` bounds the next key column.  The tree
        walks the inclusive ``[low, high]`` leaf chain, so a strict bound has
        only its equal key left to drop.  ``reverse=True`` walks the leaf back-chain so
        descending consumers can early-exit; ``with_keys=True`` additionally
        yields the tree key, which is how covering scans rebuild rows without
        touching the heap.  Each visited entry and each descent level charges
        ``tuple_cpu`` to the ledger.
        """
        equalities = tuple(equalities)
        charge = self.pool.stats.charge
        tuple_cpu = self.pool.cost_model.tuple_cpu
        charge(self.tree.height * tuple_cpu, "index_read")
        tree_low, tree_high = self._tree_bounds(key_range, equalities)
        entries = (
            self.tree.range_scan_reversed(tree_low, tree_high)
            if reverse
            else self.tree.range_scan(tree_low, tree_high)
        )
        position = len(equalities)
        low, high = key_range.low, key_range.high
        drop_low = low is not None and not key_range.include_low
        drop_high = high is not None and not key_range.include_high
        for key, rid in entries:
            charge(tuple_cpu, "index_read")
            if (drop_low and key[position] == low) or (drop_high and key[position] == high):
                continue
            yield (key, rid) if with_keys else rid

    # -- statistics for the planner -------------------------------------------------------

    @staticmethod
    def _numeric(value: object) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def estimate_matches(self, eq_count: int, key_range: KeyRange | None) -> float:
        """Estimated entries a probe walks: ``eq_count`` leading key columns
        pinned by equalities and ``key_range`` over the next one (an
        unbounded ``KeyRange()`` when no conjunct ranges over it; None when
        the range is unknown at plan time: ``?`` parameters, or literals that
        cannot be ordered against each other).

        Pure statistics — no data access.  A whole pinned key is the classic
        ``n / distinct``.  Otherwise columns are assumed independent: the
        full-key distinct count spreads evenly across the key columns, so each
        pinned column divides by ``distinct ** (1/ncols)``.  With no column
        pinned, a known range on the leading column takes
        :meth:`_leading_fraction` of the entries; an unknown one, or one after
        a pinned prefix, takes :data:`DEFAULT_RANGE_SELECTIVITY`.
        """
        n = len(self.tree)
        if n == 0:
            return 0.0
        ncols = len(self.columns)
        if eq_count >= ncols:
            return n / max(1, self.tree.distinct_keys)
        estimate = float(n)
        if eq_count:
            per_column = max(1.0, self.tree.distinct_keys ** (1.0 / ncols))
            estimate /= per_column**eq_count
            if key_range == KeyRange():
                return estimate
        elif key_range is not None:
            return estimate * self._leading_fraction(key_range)
        return estimate * DEFAULT_RANGE_SELECTIVITY

    def _leading_fraction(self, key_range: KeyRange) -> float:
        """The share of entries whose leading value lies in ``key_range``: all
        for an unbounded range, the default third when an end is no number,
        else interpolated between the tree's min and max leading values, over
        the integer values covered when every end is an integer (a strict
        bound made inclusive first: ``v > 8`` is ``v >= 9``)."""
        low, high = key_range.low, key_range.high
        if low is None and high is None:
            return 1.0
        min_key, max_key = self.tree.min_key()[0], self.tree.max_key()[0]
        lo = min_key if low is None else low
        hi = max_key if high is None else high
        ends = (min_key, max_key, lo, hi)
        if not all(self._numeric(end) for end in ends):
            return DEFAULT_RANGE_SELECTIVITY
        step = int(all(isinstance(end, int) for end in ends))  # one integer value
        lo += step * (low is not None and not key_range.include_low)
        hi -= step * (high is not None and not key_range.include_high)
        span = max_key - min_key + step
        if span <= 0:
            return 1.0 if lo <= min_key <= hi else 0.0
        covered = min(hi, max_key) - max(lo, min_key) + step
        return min(1.0, max(0.0, covered / span))

    def __repr__(self) -> str:
        columns = ", ".join(repr(column) for column in self.columns)
        return (
            f"SecondaryIndex({self.name!r} ON ({columns}), "
            f"entries={len(self.tree)}, distinct={self.tree.distinct_keys})"
        )
