"""Binary max-heap with a deterministic tie rule, on `heapq`.

Entries are (gain, stamp, pair) tuples. Ordering is by gain descending; equal
gains are resolved toward the smaller pair in (i, j) lexicographic order, so
extraction order is fully deterministic. The stamp records the iteration at
which the stored gain was computed and never participates in the ordering.
"""

from __future__ import annotations

import heapq
from typing import Iterable, NamedTuple

from .errors import EmptyHeap


class HeapEntry(NamedTuple):
    gain: float
    stamp: int
    pair: tuple[int, int]


def beats(a: HeapEntry, b: HeapEntry) -> bool:
    """True when a is extracted before b."""
    if a.gain != b.gain:
        return a.gain > b.gain
    return a.pair < b.pair


def _item(entry: HeapEntry):
    """The min-heap item of `entry`: the smaller key is the entry that beats."""
    return (-entry.gain, entry.pair), entry


class LazyHeap:
    """Max-heap over HeapEntry values: a `heapq` min-heap of ((-gain, pair),
    entry) items, built in O(n)."""

    __slots__ = ("_items",)

    def __init__(self, entries: Iterable[HeapEntry] = ()):
        self._items = [_item(e) for e in entries]
        heapq.heapify(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def peek(self) -> HeapEntry:
        if not self._items:
            raise EmptyHeap("peek on empty heap")
        return self._items[0][1]

    def extract_max(self) -> HeapEntry:
        if not self._items:
            raise EmptyHeap("extract on empty heap")
        return heapq.heappop(self._items)[1]

    def insert(self, entry: HeapEntry) -> None:
        heapq.heappush(self._items, _item(entry))

    def replace_top(self, entry: HeapEntry) -> HeapEntry:
        """Swap the root for `entry`, returning the old root.

        Equivalent to extract_max followed by insert, in one sift-down.
        """
        if not self._items:
            raise EmptyHeap("replace_top on empty heap")
        return heapq.heapreplace(self._items, _item(entry))[1]

    def is_valid(self) -> bool:
        """Exhaustive heap-property check; test helper only."""
        items = self._items
        return not any(beats(items[i][1], items[(i - 1) >> 1][1]) for i in range(1, len(items)))
