"""An in-memory B+-tree used as the clustered index on ``eps``.

Hazy keeps the scratch table ``H`` clustered on ``eps = w(s)·f − b(s)`` and
maintains a clustered B+-tree over that column so the tuples inside the water
band ``[lw, hw]`` can be found without scanning the whole table.  The tree
maps a float key to a list of opaque values (record ids); duplicate keys are
allowed because distinct entities can share an ``eps`` value.

The same structure backs the *secondary* indexes that ``CREATE INDEX``
attaches to base tables (:mod:`repro.db.secondary_index`).  Those trees hold
tuples of column values, so the float coercion the eps index wants is a
constructor option (``coerce``) rather than hard-wired.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator

from repro.exceptions import DatabaseError

__all__ = ["BPlusTree"]


class _Node:
    """Internal representation shared by leaf and interior nodes."""

    __slots__ = ("is_leaf", "keys", "children", "values", "next_leaf", "prev_leaf")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.keys: list[float] = []
        # Interior nodes: children[i] covers keys < keys[i]; len(children) == len(keys)+1.
        self.children: list["_Node"] = []
        # Leaf nodes: values[i] is the list of payloads stored under keys[i].
        self.values: list[list[object]] = []
        self.next_leaf: "_Node | None" = None
        self.prev_leaf: "_Node | None" = None


class BPlusTree:
    """A B+-tree over mutually comparable keys with duplicate support and range scans.

    Parameters
    ----------
    order:
        Maximum number of keys per node before it splits (>= 3).
    coerce:
        Applied to every key on insert/delete.  The eps index keeps the
        default (``float``); secondary indexes pass ``None`` so the tree
        stores their keys as-is (tuples of column values, compared
        lexicographically).
    """

    def __init__(self, order: int = 64, coerce=float):
        if order < 3:
            raise DatabaseError("B+-tree order must be >= 3")
        self.order = order
        self._coerce = coerce
        self._root = _Node(is_leaf=True)
        self._size = 0
        self._distinct = 0
        self._height = 1

    # -- basic properties ----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def distinct_keys(self) -> int:
        """Number of distinct keys currently stored (selectivity statistics)."""
        return self._distinct

    @property
    def height(self) -> int:
        """Number of levels from root to leaves."""
        return self._height

    # -- search ----------------------------------------------------------------------

    def _find_leaf(self, key: float) -> _Node:
        node = self._root
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        return node

    def search(self, key: float) -> list[object]:
        """All payloads stored under exactly ``key`` (empty list if none)."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return list(leaf.values[index])
        return []

    def range_scan(
        self, low: float | None = None, high: float | None = None
    ) -> Iterator[tuple[float, object]]:
        """Yield ``(key, payload)`` pairs with ``low <= key <= high`` in key order.

        ``None`` bounds are unbounded on that side.  This is the access path
        the incremental step uses to enumerate the water band.
        """
        if low is not None and high is not None and low > high:
            return
        leaf = self._find_leaf(low) if low is not None else self._leftmost_leaf()
        start = bisect.bisect_left(leaf.keys, low) if low is not None else 0
        node: _Node | None = leaf
        index = start
        while node is not None:
            while index < len(node.keys):
                key = node.keys[index]
                if high is not None and key > high:
                    return
                for payload in node.values[index]:
                    yield key, payload
                index += 1
            node = node.next_leaf
            index = 0

    def range_scan_reversed(
        self, low: float | None = None, high: float | None = None
    ) -> Iterator[tuple[float, object]]:
        """Yield ``(key, payload)`` pairs with ``low <= key <= high`` in
        *descending* key order.

        Walks the doubly-linked leaf chain backwards from the last leaf that
        can hold ``high``, so ``ORDER BY col DESC LIMIT k`` consumers can
        early-exit after k entries exactly like the ascending walk.  Payloads
        under a shared key come out in reverse insertion order (the mirror of
        the forward scan).
        """
        if low is not None and high is not None and low > high:
            return
        if high is not None:
            leaf = self._find_leaf(high)
            # bisect_right - 1 lands on the last key <= high in this leaf; if
            # every key here is > high the walk starts in the previous leaf.
            index = bisect.bisect_right(leaf.keys, high) - 1
        else:
            leaf = self._rightmost_leaf()
            index = len(leaf.keys) - 1
        node: _Node | None = leaf
        while node is not None:
            while index >= 0:
                key = node.keys[index]
                if low is not None and key < low:
                    return
                for payload in reversed(node.values[index]):
                    yield key, payload
                index -= 1
            node = node.prev_leaf
            index = len(node.keys) - 1 if node is not None else -1

    def items(self) -> Iterator[tuple[float, object]]:
        """Every ``(key, payload)`` pair in key order."""
        return self.range_scan(None, None)

    def min_key(self) -> float | None:
        """Smallest key in the tree, or None when empty.

        Lazy deletion can leave the end leaves empty, so both ends walk the
        leaf chain inwards to the first leaf that still holds a key.
        """
        leaf: _Node | None = self._leftmost_leaf()
        while leaf is not None and not leaf.keys:
            leaf = leaf.next_leaf
        return leaf.keys[0] if leaf is not None else None

    def max_key(self) -> float | None:
        """Largest key in the tree, or None when empty (see :meth:`min_key`)."""
        leaf: _Node | None = self._rightmost_leaf()
        while leaf is not None and not leaf.keys:
            leaf = leaf.prev_leaf
        return leaf.keys[-1] if leaf is not None else None

    def _leftmost_leaf(self) -> _Node:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node

    def _rightmost_leaf(self) -> _Node:
        node = self._root
        while not node.is_leaf:
            node = node.children[-1]
        return node

    # -- mutation -----------------------------------------------------------------------

    def insert(self, key: float, payload: object) -> None:
        """Insert ``payload`` under ``key`` (duplicates allowed)."""
        if self._coerce is not None:
            key = self._coerce(key)
        split = self._insert_recursive(self._root, key, payload)
        if split is not None:
            separator, right = split
            new_root = _Node(is_leaf=False)
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
        self._size += 1

    def _insert_recursive(
        self, node: _Node, key: float, payload: object
    ) -> tuple[float, _Node] | None:
        if node.is_leaf:
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index].append(payload)
            else:
                node.keys.insert(index, key)
                node.values.insert(index, [payload])
                self._distinct += 1
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        index = bisect.bisect_right(node.keys, key)
        split = self._insert_recursive(node.children[index], key, payload)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right)
        if len(node.keys) > self.order:
            return self._split_interior(node)
        return None

    def _split_leaf(self, node: _Node) -> tuple[float, _Node]:
        middle = len(node.keys) // 2
        right = _Node(is_leaf=True)
        right.keys = node.keys[middle:]
        right.values = node.values[middle:]
        node.keys = node.keys[:middle]
        node.values = node.values[:middle]
        right.next_leaf = node.next_leaf
        right.prev_leaf = node
        if right.next_leaf is not None:
            right.next_leaf.prev_leaf = right
        node.next_leaf = right
        return right.keys[0], right

    def _split_interior(self, node: _Node) -> tuple[float, _Node]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Node(is_leaf=False)
        right.keys = node.keys[middle + 1 :]
        right.children = node.children[middle + 1 :]
        node.keys = node.keys[:middle]
        node.children = node.children[: middle + 1]
        return separator, right

    def delete(self, key: float, payload: object) -> bool:
        """Remove one occurrence of ``payload`` under ``key``.

        Returns True when something was removed.  The tree uses lazy deletion
        (no rebalancing); Hazy rebuilds the index wholesale at reorganization
        time, so sustained deletes never accumulate.
        """
        if self._coerce is not None:
            key = self._coerce(key)
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return False
        bucket = leaf.values[index]
        try:
            bucket.remove(payload)
        except ValueError:
            return False
        if not bucket:
            leaf.keys.pop(index)
            leaf.values.pop(index)
            self._distinct -= 1
        self._size -= 1
        return True

    def clear(self) -> None:
        """Remove everything."""
        self._root = _Node(is_leaf=True)
        self._size = 0
        self._distinct = 0
        self._height = 1

    @classmethod
    def bulk_load(
        cls, items: Iterable[tuple[float, object]], order: int = 64, coerce=float
    ) -> "BPlusTree":
        """Build a tree from (not necessarily sorted) ``(key, payload)`` pairs."""
        tree = cls(order=order, coerce=coerce)
        for key, payload in sorted(items, key=lambda pair: pair[0]):
            tree.insert(key, payload)
        return tree

    # -- invariant checking (used by property tests) ----------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`DatabaseError` if structural invariants are violated."""
        self._check_node(self._root, low=None, high=None)
        keys = [key for key, _ in self.items()]
        if keys != sorted(keys):
            raise DatabaseError("leaf chain is not in sorted order")
        # The prev_leaf chain must be the exact mirror of next_leaf.
        leaf = self._leftmost_leaf()
        if leaf.prev_leaf is not None:
            raise DatabaseError("leftmost leaf has a prev_leaf")
        while leaf.next_leaf is not None:
            if leaf.next_leaf.prev_leaf is not leaf:
                raise DatabaseError("leaf back-chain does not mirror the forward chain")
            leaf = leaf.next_leaf
        if leaf is not self._rightmost_leaf():
            raise DatabaseError("forward leaf chain does not end at the rightmost leaf")
        reverse_keys = [key for key, _ in self.range_scan_reversed()]
        if reverse_keys != keys[::-1]:
            raise DatabaseError("reverse scan disagrees with the forward scan")

    def _check_node(self, node: _Node, low: float | None, high: float | None) -> None:
        if node.keys != sorted(node.keys):
            raise DatabaseError("node keys out of order")
        for key in node.keys:
            if low is not None and key < low:
                raise DatabaseError("key below subtree lower bound")
            if high is not None and key > high:
                raise DatabaseError("key above subtree upper bound")
        if node.is_leaf:
            if len(node.keys) != len(node.values):
                raise DatabaseError("leaf keys/values length mismatch")
            return
        if len(node.children) != len(node.keys) + 1:
            raise DatabaseError("interior fan-out mismatch")
        bounds = [low, *node.keys, high]
        for i, child in enumerate(node.children):
            self._check_node(child, bounds[i], bounds[i + 1])
