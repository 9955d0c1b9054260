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
one holding it, which are all stale. One pass over the bounds reads them
after the first block; as the gain only rises within a pick, each later
round reads them off the previous round's list. A block takes at most as
many entries as were refreshed so far, the largest first, and the pick ends
when none is left, or once a block took all of them. The best fresh gain
then beats every stale bound, and on equal values the smaller pool index,
which is the smaller pair, wins: the acceptance rule of a one-at-a-time
max-heap search, which the tests keep as a reference.

The lazy engines of `bench.ENGINES` run this search over the gain oracles
of `greedy.py`:

* naive lazy (`nl`): refresh with fresh quadratic forms;
* factorization lazy (`flp`, `flm`): refresh as q_i + q_j - 2 x_i.z_j with
  z_i = A^-1 x_i and q_i = x_i.z_i, mapped through the A^-1 in hand for all
  samples at the iteration's first refresh or for each sample on first use;
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

# The reductions a refresh round makes, called as ufunc methods rather than
# through numpy's Python-level wrappers, which cost more than the reduction
# itself on a block of a few dozen entries.
_max = np.maximum.reduce
_min = np.minimum.reduce


def _checked_stamps(stamp: np.ndarray, b: np.ndarray, it: int) -> None:
    stamps = stamp[b]
    if stamps.size and _max(stamps) > it:
        at = int(stamps.argmax())
        raise StaleStampCorruption(f"entry {int(b[at])} stamped {int(stamps[at])} at iteration {it}")


def _fold(b: np.ndarray, values: np.ndarray, gain: float, best: int) -> tuple[float, int]:
    """Fold the refreshed `values` of entries `b` into the best fresh `gain`
    of the pick, held at pool index `best`: the new gain, and the smallest
    pool index holding it."""
    top = _max(values)
    if top >= gain:
        at = int(_min(b[values == top]))
        best = at if top > gain else min(best, at)
        gain = top
    return gain, best


def _accept(bound: np.ndarray, b: np.ndarray, values: np.ndarray, gain: float, best: int,
            pending: np.ndarray | None = None):
    """Acceptance rule: fold the refreshed `values` of entries `b` into the
    best fresh `gain` of the pick, held at pool index `best` (see `_fold`).

    Returns the new gain and best, and the entries that could still beat
    the gain, in index order: the bounds above it, and those equal to it
    before `best`. Every entry refreshed in the pick has a bound at most the
    gain, equal to it only from `best` on, so all of these are stale. A
    stale bound above the gain might beat it; one equal to it beats it only
    at a smaller index, the smaller pair.

    The gain never falls within a pick, and a stale bound never changes, so
    these entries are among those returned for the previous block. Given
    those as `pending`, in index order, they are read off that list; else
    off the bounds, in one pass.
    """
    gain, best = _fold(b, values, gain, best)
    if pending is None:
        c = (bound >= gain).nonzero()[0]
    else:
        c = pending[bound[pending] >= gain]
    return gain, best, c[(c < best) | (bound[c] > gain)]


class BlockSearch:
    """The lazy search: stale bounds refreshed in blocks, touches counted."""

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
                b = bound.argpartition(n_pairs - self.block)[n_pairs - self.block:]
            else:
                b = (bound != -np.inf).nonzero()[0]
            gain, best = -np.inf, n_pairs
            old_bounds = []
            pending = None  # the entries that could beat the gain, once read
            while True:
                _checked_stamps(stamp, b, it)
                old_bounds.append(bound[b])
                values = oracle.refresh(b, it)
                bound[b] = values
                stamp[b] = it
                touches += b.size
                if b is pending:
                    # the block took every entry that could beat the gain:
                    # whatever it holds, none is left
                    gain, best = _fold(b, values, gain, best)
                    break
                gain, best, pending = _accept(bound, b, values, gain, best, pending)
                # refresh at most as many again, those with the largest bounds
                cap = max(_MIN_BLOCK, touches)
                if pending.size > cap:
                    b = pending[bound[pending].argpartition(pending.size - cap)[pending.size - cap:]]
                elif pending.size:
                    b = pending
                else:
                    break
            # a one-at-a-time search refreshes every stale bound that reaches
            # the winning gain; the next first block takes half as many
            needed = int(np.count_nonzero(np.concatenate(old_bounds) >= gain))
            self.block = max(_MIN_BLOCK, needed // 2)
        self.touch_counts.append(touches)
        bound[best] = -np.inf
        return best, float(gain)
