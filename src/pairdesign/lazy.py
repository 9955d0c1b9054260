"""Lazy greedy search: block refresh of stale upper bounds held in arrays.

Submodularity makes every stored gain an upper bound on the pair's current
gain (Minoux's accelerated greedy). The search keeps one bound and one
refresh stamp per candidate pair, in lexicographic pool order. A pick first
refreshes the stale entries among the largest live bounds in one vectorised
call; that block takes half as many entries as the previous pick needed.
Further blocks refresh the stale entries whose bounds still reach the best
fresh gain, at most as many as were refreshed so far and the largest first,
until none is left. The best fresh gain then beats every stale bound, and on
equal values the smaller pool index, which is the smaller pair, wins: the
acceptance rule of a one-at-a-time max-heap search, which the tests keep as
a reference.

The lazy engines of `bench.ENGINES` run this search over the gain oracles
of `greedy.py`:

* naive lazy (`nl`): refresh with fresh quadratic forms;
* factorization lazy (`flp`, `flm`): refresh as ||z_i - z_j||^2 through a
  factor of A^-1 taken at the iteration's first refresh, with the z vectors
  mapped for all samples or for each sample on first use;
* scalar lazy (`slp`, `slm`): bring an entry current from its initial gain
  through a history of scalar projections, filled in full or on demand.
"""

from __future__ import annotations

import numpy as np

from .errors import StaleStampCorruption
# Not used here; per-layer tracing (perfbench/spans.py) patches these names
# on this module as well, so they must stay resolvable.
from .greedy import factorization_gains, init_design  # noqa: F401
from .heap import LazyHeap  # noqa: F401

# Fewest entries a refresh block takes.
_MIN_BLOCK = 16


def _checked_stamps(stamp: np.ndarray, b: np.ndarray, it: int) -> np.ndarray:
    stamps = stamp[b]
    if stamps.size and stamps.max() > it:
        at = int(stamps.argmax())
        raise StaleStampCorruption(f"entry {int(b[at])} stamped {int(stamps[at])} at iteration {it}")
    return stamps


def _pending(b: np.ndarray, bound: np.ndarray, stamp: np.ndarray, it: int, gain: float):
    """Acceptance rule for the best fresh `gain` of iteration `it`.

    `b` must hold every live entry whose bound reaches `gain`. Returns the
    stale entries of `b` that could still beat it, and the winner should
    there be none: the smallest pool index holding `gain` among fresh
    entries. A stale bound above the gain might beat it; a stale bound equal
    to it beats it only at a smaller index, which is the smaller pair.
    """
    values = bound[b]
    stale = _checked_stamps(stamp, b, it) < it
    first = b[~stale & (values == gain)].min()
    return b[stale & ((values > gain) | ((values == gain) & (b < first)))], int(first)


class BlockSearch:
    """The lazy search: stale bounds refreshed in blocks, touches counted."""

    gain_arrays = None

    def start(self, oracle) -> None:
        self.bound = np.array(oracle.initial(), dtype=np.float64)
        self.stamp = np.zeros(len(self.bound), dtype=np.intp)
        self.block = _MIN_BLOCK
        self.touch_counts = []

    def pick(self, oracle, it: int) -> tuple[int, float]:
        bound, stamp = self.bound, self.stamp
        n_pairs = len(bound)
        live = n_pairs - it
        if self.block < live:
            b = np.argpartition(bound, n_pairs - self.block)[n_pairs - self.block:]
        else:
            b = np.flatnonzero(bound != -np.inf)
        touches = 0
        gain = -np.inf
        old_bounds = []
        while b.size:
            stale = b[_checked_stamps(stamp, b, it) < it]
            if stale.size:
                old = bound[stale]
                bound[stale] = oracle.refresh(stale, it)
                stamp[stale] = it
                touches += stale.size
                old_bounds.append(old)
            gain = max(gain, bound[b].max())
            b, best = _pending(np.flatnonzero(bound >= gain), bound, stamp, it, gain)
            # refresh at most as many again, those with the largest bounds
            cap = max(_MIN_BLOCK, touches)
            if b.size > cap:
                b = b[np.argpartition(bound[b], b.size - cap)[b.size - cap:]]
        # a one-at-a-time search refreshes every stale bound that reaches the
        # winning gain; the next first block takes half as many
        needed = sum(int(np.count_nonzero(old >= gain)) for old in old_bounds)
        self.block = max(_MIN_BLOCK, needed // 2)
        self.touch_counts.append(touches)
        bound[best] = -np.inf
        return best, float(gain)

