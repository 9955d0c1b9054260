import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairdesign.errors import EmptyHeap
from pairdesign.heap import HeapEntry, LazyHeap, beats


def entry(gain, pair, stamp=0):
    return HeapEntry(float(gain), stamp, pair)


class SortedOracle:
    """Reference multiset keyed by (-gain, pair)."""

    def __init__(self):
        self._items = []

    def insert(self, e: HeapEntry):
        bisect.insort(self._items, ((-e.gain, e.pair), e))

    def extract_max(self) -> HeapEntry:
        return self._items.pop(0)[1]

    def replace_top(self, e: HeapEntry) -> HeapEntry:
        old = self.extract_max()
        self.insert(e)
        return old

    def __len__(self):
        return len(self._items)


def test_beats_ordering():
    assert beats(entry(2.0, (0, 1)), entry(1.0, (0, 2)))
    assert not beats(entry(1.0, (0, 2)), entry(2.0, (0, 1)))
    # equal gains resolve toward the smaller pair
    assert beats(entry(1.0, (0, 1)), entry(1.0, (0, 2)))
    assert not beats(entry(1.0, (0, 2)), entry(1.0, (0, 1)))
    assert not beats(entry(1.0, (0, 1)), entry(1.0, (0, 1)))


def test_build_and_extract_sorted():
    entries = [entry(g, (i, i + 1)) for i, g in enumerate([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])]
    heap = LazyHeap(entries)
    assert heap.is_valid()
    out = [heap.extract_max() for _ in range(len(entries))]
    expected = sorted(entries, key=lambda e: (-e.gain, e.pair))
    assert out == expected


def test_tie_rule_on_extraction():
    heap = LazyHeap([entry(1.0, (5, 6)), entry(1.0, (0, 9)), entry(1.0, (0, 2))])
    assert heap.extract_max().pair == (0, 2)
    assert heap.extract_max().pair == (0, 9)
    assert heap.extract_max().pair == (5, 6)


def test_replace_top_equivalent_to_extract_insert():
    entries = [entry(g, (0, i + 1)) for i, g in enumerate([4.0, 2.0, 7.0, 1.0])]
    heap = LazyHeap(entries)
    old = heap.replace_top(entry(3.0, (9, 10)))
    assert old == entry(7.0, (0, 3))
    assert heap.is_valid()
    assert heap.peek() == entry(4.0, (0, 1))
    assert len(heap) == 4


def test_empty_heap_errors():
    heap = LazyHeap()
    with pytest.raises(EmptyHeap):
        heap.peek()
    with pytest.raises(EmptyHeap):
        heap.extract_max()
    with pytest.raises(EmptyHeap):
        heap.replace_top(entry(1.0, (0, 1)))


def _random_ops(seed, n_ops):
    rng = np.random.default_rng(seed)
    heap = LazyHeap()
    oracle = SortedOracle()
    counter = 0
    for _ in range(n_ops):
        op = rng.integers(0, 3)
        if op == 0 or len(oracle) == 0:
            # gains drawn from a small grid to force ties
            e = entry(float(rng.integers(0, 8)), (counter % 50, 50 + counter))
            counter += 1
            heap.insert(e)
            oracle.insert(e)
        elif op == 1:
            assert heap.extract_max() == oracle.extract_max()
        else:
            e = entry(float(rng.integers(0, 8)), (counter % 50, 50 + counter))
            counter += 1
            assert heap.replace_top(e) == oracle.replace_top(e)
        assert len(heap) == len(oracle)
    assert heap.is_valid()
    while len(oracle):
        assert heap.extract_max() == oracle.extract_max()


def test_randomized_against_oracle():
    _random_ops(seed=0, n_ops=2000)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_randomized_against_oracle_property(seed):
    _random_ops(seed=seed, n_ops=300)
