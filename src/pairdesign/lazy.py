"""Lazy greedy search: block refresh of stale upper bounds held in arrays.

Submodularity makes every stored gain an upper bound on the pair's current
gain (Minoux's accelerated greedy). The search keeps one bound and one
refresh stamp per candidate pair, in lexicographic pool order. At the first
pick every bound is exact and the largest wins outright. A later pick starts
with every live entry stale and first refreshes the largest live bounds in
one vectorised call; that block takes half as many entries as the previous
pick needed. Each refreshed entry is then fresh and its bound is at most the
best fresh gain, so the next block is read off the bounds alone: the
entries above the best gain, or equal to it at a smaller pool index than the
one holding it, which are all stale. A block takes at most as many entries
as were refreshed so far, the largest first, and the pick ends when none is
left. The best fresh gain then beats every stale bound, and on equal values
the smaller pool index, which is the smaller pair, wins: the acceptance rule
of a one-at-a-time max-heap search, which the tests keep as a reference.

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


def _checked_stamps(stamp: np.ndarray, b: np.ndarray, it: int) -> None:
    stamps = stamp[b]
    if stamps.size and stamps.max() > it:
        at = int(stamps.argmax())
        raise StaleStampCorruption(f"entry {int(b[at])} stamped {int(stamps[at])} at iteration {it}")


def _accept(bound: np.ndarray, b: np.ndarray, values: np.ndarray, gain: float, best: int):
    """Acceptance rule: fold the refreshed `values` of entries `b` into the
    best fresh `gain` of the pick, held at pool index `best`.

    Returns the new gain and best, the smallest pool index holding it, and
    the entries that could still beat it, in index order: the bounds above
    the gain, and those equal to it before `best`. Every entry refreshed in
    the pick has a bound at most the gain, equal to it only from `best` on,
    so all of these are stale. A stale bound above the gain might beat it;
    one equal to it beats it only at a smaller index, the smaller pair.
    """
    top = values.max()
    if top >= gain:
        at = int(b[values == top].min())
        best = at if top > gain else min(best, at)
        gain = top
    above = np.flatnonzero(bound[best + 1:] > gain)
    above += best + 1
    return gain, best, np.concatenate((np.flatnonzero(bound[:best] >= gain), above))


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
        touches = 0
        if it == 0:
            # every bound is exact; argmax takes the first, smallest pair of the largest
            best = int(np.argmax(bound))
            gain = bound[best]
        else:
            # every live entry is stale: its stamp is below `it`
            n_pairs = len(bound)
            if self.block < n_pairs - it:
                b = np.argpartition(bound, n_pairs - self.block)[n_pairs - self.block:]
            else:
                b = np.flatnonzero(bound != -np.inf)
            gain, best = -np.inf, n_pairs
            old_bounds = []
            while b.size:
                _checked_stamps(stamp, b, it)
                old_bounds.append(bound[b])
                values = oracle.refresh(b, it)
                bound[b] = values
                stamp[b] = it
                touches += b.size
                gain, best, b = _accept(bound, b, values, gain, best)
                # refresh at most as many again, those with the largest bounds
                cap = max(_MIN_BLOCK, touches)
                if b.size > cap:
                    b = b[np.argpartition(bound[b], b.size - cap)[b.size - cap:]]
            # a one-at-a-time search refreshes every stale bound that reaches
            # the winning gain; the next first block takes half as many
            needed = sum(int(np.count_nonzero(old >= gain)) for old in old_bounds)
            self.block = max(_MIN_BLOCK, needed // 2)
        self.touch_counts.append(touches)
        bound[best] = -np.inf
        return best, float(gain)
