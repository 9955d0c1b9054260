"""The engine core: gain oracles driven by a search, plus the eager search.

Every engine is one `Engine`: a search driving a gain oracle under a memo
policy, run by the same greedy loop (`bench.ENGINES` lists the eight). The
oracle yields d_e = x_e^T A^-1 x_e:

* `NaiveOracle`: a fresh quadratic form per pair, O(|C| d^2) for all pairs,
  swept in blocks of about 256 KiB of difference rows x_i - x_j, so that
  a block and its product stay in cache; for `ng` it holds the pool's
  rows (|C| d 8 bytes) for pools up to `_CHUNK` = 65,536 pairs, and a
  larger pool gathers each block's rows anew each iteration;
* `FactorizationOracle`: map samples through A^-1 itself once per
  iteration, on first use, as z_i = A^-1 x_i and q_i = x_i.z_i, then
  d_e = q_i + q_j - 2 x_i.z_j, O(N d^2 + N^2 d) for all pairs, with no
  d^3 term: no pick factors a matrix;
* `ScalarOracle`: compute all d_e once, then downdate them by
  (v.x_i - v.x_j)^2 per iteration, O(N d + |C|) after an O(N^2 d)
  preprocessing, plus O(d^2 + t d) to form the t-th update vector v from
  the base inverse A_0^-1 and the earlier vectors, with no d x d write.

The search decides which gains to ask for: the eager search here (`ng`,
`fg`, `sg`) asks for every pair's gain each iteration; the lazy block search
in `lazy.py` (`nl`, `flp`, `flm`, `slp`, `slm`) asks only for the stale
gains that could still win.

Each oracle holds A^-1 as `ainv`, from the A_0^-1 of `design.init_design`.
The naive and factorization oracles advance it by rank-one downdates only
and never rebuild or factor it mid-run. Every Cholesky factor of a run is
taken in preprocessing: the one that inverts A_0, and for the six engines
that read initial gains (`sg nl flp flm slp slm`) a second one,
`linalg.gram_factor(A_0^-1)` in `GainOracle.initial`. So no engine raises
`NotPositiveDefinite` after preprocessing.
The scalar oracles hold A^-1 in product form, A_0^-1 - V^T V: `ainv` stays
the base inverse A_0^-1 and the update vectors V grow by one row per
selection.

Every engine runs on `design.sample_coordinates`: when 2 d >= 3 N, the
samples' coordinates in the row space of X, which give every gain the
same value; every d above then reads d' = min(N, d).

Every selector, engine or baseline, reads its pool through `resolve_pool`,
as index arrays (I, J) in lexicographic pair order. Ties in d_e resolve to
the lexicographically smallest pair: gains are laid out in that order and
argmax returns the first maximum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .design import Pair, comparison_feature, init_design, pair_arrays, sample_coordinates
from .errors import InvalidPool
from .trace import SelectionTrace

# Largest pool whose difference rows `NaiveOracle` holds for a run (|C| d
# 8 bytes); a larger pool gathers each sweep block's rows anew.
_CHUNK = 65536

# Entries (8 bytes each) of one block of the quadratic-form sweep: 256 KiB of
# difference rows, so that a block and its product share a core's L2.
_BLOCK = 32768

# The whole pool, as an index that `refresh` can take: a view, not a gather.
_ALL = slice(None)

# `ndarray.min` through its ufunc, without numpy's Python-level wrapper: a
# lazy refresh round asks it once per block of a few dozen entries.
_min = np.minimum.reduce


def resolve_pool(n: int, pool, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (I, J) of a candidate pool, lexicographic order.

    `pool` None is every pair over `n` samples; any other pool is a list of
    pairs or an (m, 2) array, in any order, of distinct pairs (i, j) with
    0 <= i < j < n. Raises `InvalidPool` for any other pool and for `k`
    above the pool's size or below 0.
    """
    if k < 0:
        raise InvalidPool(f"k={k} is below 0")
    if pool is None:
        i, j = pair_arrays(n)
    else:
        try:
            arr = np.asarray(pool)
        except ValueError:
            raise InvalidPool("ragged pool is not a list of integer pairs") from None
        if arr.size and (arr.shape[1:] != (2,) or arr.dtype.kind not in "iu"):
            raise InvalidPool(f"pool of shape {arr.shape} and dtype {arr.dtype} is not a list of integer pairs")
        arr = arr.astype(np.intp, copy=False).reshape(-1, 2)
        arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
        i, j = arr[:, 0], arr[:, 1]
        bad = (i < 0) | (i >= j) | (j >= n)
        if bad.any():
            raise InvalidPool(f"pool pair {tuple(arr[bad.argmax()].tolist())} is not (i, j) with 0 <= i < j < {n}")
        repeated = (arr[1:] == arr[:-1]).all(axis=1)
        if repeated.any():
            raise InvalidPool(f"pool lists pair {tuple(arr[repeated.argmax()].tolist())} more than once")
    if k > len(i):
        raise InvalidPool(f"k={k} exceeds candidate pool of {len(i)} pairs")
    return i, j


def _blocks(n: int, d: int) -> list[tuple[int, int]]:
    """Bounds (s, e) of the sweep blocks over `n` rows of width `d`.

    Each block takes at most `_BLOCK // d` rows, and the blocks are balanced
    so that none is a single row when `n` > 1: numpy multiplies a one-row
    block by the matrix-vector path, which rounds differently from the same
    row inside a larger product. A bound of 3 or more rows keeps every
    balanced block at 2 or more.
    """
    count = -(-n // max(3, _BLOCK // d)) or 1
    edges = [n * b // count for b in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _gather_rows(x: np.ndarray, pi: np.ndarray, pj: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = x[pi] - x[pj], through the scratch `tmp` of the same shape.

    The indices are valid (see `resolve_pool`), so `take` runs unchecked
    and writes straight into `out` rather than through a copy of it.
    """
    np.take(x, pi, axis=0, out=out, mode="clip")
    np.take(x, pj, axis=0, out=tmp, mode="clip")
    np.subtract(out, tmp, out=out)


def difference_rows(x: np.ndarray, pi: np.ndarray, pj: np.ndarray) -> np.ndarray:
    """x[pi] - x[pj] (|C| d entries), gathered block by block into one array."""
    rows = np.empty((len(pi), x.shape[1]), dtype=x.dtype)
    blocks = _blocks(len(pi), x.shape[1])
    tmp = np.empty((max(e - s for s, e in blocks), x.shape[1]), dtype=x.dtype)
    for s, e in blocks:
        _gather_rows(x, pi[s:e], pj[s:e], rows[s:e], tmp[:e - s])
    return rows


def quadratic_gains(x: np.ndarray, pi: np.ndarray, pj: np.ndarray, ainv: np.ndarray,
                    rows: np.ndarray | None = None) -> np.ndarray:
    """d_e = (x_i - x_j)^T ainv (x_i - x_j) for every candidate.

    Sweeps the pool in blocks of about 256 KiB of difference rows (see
    `_blocks`). Each block's product goes into one scratch array reused
    across blocks and its gains straight into the result, so the sweep
    allocates a few blocks' worth of scratch whatever the pool's size.
    A block's rows are gathered into reused scratch as well, unless `rows`
    gives them, held: x[pi] - x[pj], as `ng` keeps them for a run. Held and
    gathered sweeps give the same bits at every width. The blocks need not
    round as one product over the whole pool would: a block small enough
    for the BLAS's small-matrix path can round a gain differently from a
    whole product that is not (OpenBLAS SkylakeX at d=50: 18 of 656 gains).

    A pool of one block, such as a lazy refresh's, is one product with no
    scratch to reuse: it skips the blocking's few microseconds of set-up.
    """
    if len(pi) * x.shape[1] <= _BLOCK:
        # `take` gathers the same rows as x[pi], at half the call's cost
        diff = x.take(pi, axis=0) - x.take(pj, axis=0) if rows is None else rows
        return np.einsum("ed,ed->e", diff @ ainv, diff)
    out = np.empty(len(pi))
    blocks = _blocks(len(pi), x.shape[1])
    shape = (max(e - s for s, e in blocks), x.shape[1])
    prod = np.empty(shape)
    if rows is None:
        diff, tmp = np.empty(shape, dtype=x.dtype), np.empty(shape, dtype=x.dtype)
    for s, e in blocks:
        if rows is None:
            block = diff[:e - s]
            _gather_rows(x, pi[s:e], pj[s:e], block, tmp[:e - s])
        else:
            block = rows[s:e]
        p = np.matmul(block, ainv, out=prod[:e - s])
        np.einsum("ed,ed->e", p, block, out=out[s:e])
    return out


def factorization_gains(x: np.ndarray, z: np.ndarray, q: np.ndarray, pi: np.ndarray,
                        pj: np.ndarray) -> np.ndarray:
    """d_e = q_i + q_j - 2 x_i.z_j for every candidate, via the Gram matrix X Z^T.

    With z_i = M x_i and q_i = x_i.z_i for a symmetric M, that is
    (x_i - x_j)^T M (x_i - x_j): M = A^-1 gives the gain. So does x = z =
    X U^T with U^T U = A^-1, where d_e = ||z_i - z_j||^2.
    """
    gram = x @ z.T
    # gram[pi, pj] through flat indices: the same values, a cheaper gather
    return q[pi] + q[pj] - 2.0 * np.take(gram, pi * len(z) + pj)


def _distinct(samples: np.ndarray, n: int) -> np.ndarray:
    """np.unique(samples) for sample indices below `n`: the sorted distinct
    samples, read off a length-`n` mask instead of a sort."""
    mask = np.zeros(n, dtype=bool)
    mask[samples] = True
    return mask.nonzero()[0]


class GainOracle:
    """Gains d_e of a pool (pi, pj) under the evolving A^-1; the shared part.

    `initial()` gives every pool entry's gain for the empty selection;
    `refresh(b, it)` gives the gains of pool entries `b` at iteration `it`:
    an index array, or `_ALL`, which an oracle may serve by a whole-pool
    formula; `update(pair, it)` applies the selection of iteration `it`.
    Every oracle takes the same arguments; `k` sizes the scalar history and
    `memo` is the memo policy: None, "precompute" or "memoize". `computed`
    counts the scratch entries a memoized oracle has filled, and is None
    for the others.
    """

    def __init__(self, x, absolute_set, lam, pi, pj, k, memo=None):
        self.x, self.pi, self.pj, self.memo = x, pi, pj, memo
        self.ainv = init_design(x, absolute_set, lam)
        self.computed = 0 if memo == "memoize" else None

    def initial(self) -> np.ndarray:
        """Every gain in Gram form, through a factor of the base A^-1."""
        z = self.x @ linalg.gram_factor(self.ainv).T
        return factorization_gains(z, z, np.einsum("nd,nd->n", z, z), self.pi, self.pj)

    def update(self, pair: Pair, it: int) -> None:
        xe = comparison_feature(self.x, pair)
        self.ainv = linalg.sherman_morrison_downdate(self.ainv, xe)


class NaiveOracle(GainOracle):
    """Gains as fresh quadratic forms x_e^T A^-1 x_e, swept in blocks.

    The first whole-pool refresh of a pool of at most `_CHUNK` pairs builds
    the difference rows x_i - x_j block by block into one array, and later
    ones reuse it. Block refreshes and larger pools gather the rows of each
    sweep block into reused scratch on each call.
    """

    rows = None  # the held difference rows, once built

    def refresh(self, b, it: int) -> np.ndarray:
        if b is _ALL and len(self.pi) <= _CHUNK:
            if self.rows is None:
                self.rows = difference_rows(self.x, self.pi, self.pj)
            return quadratic_gains(self.x, self.pi, self.pj, self.ainv, rows=self.rows)
        return quadratic_gains(self.x, self.pi[b], self.pj[b], self.ainv)


class FactorizationOracle(GainOracle):
    """Gains through the samples mapped by the A^-1 that the downdates keep.

    With z_i = A^-1 x_i and q_i = x_i.z_i, d_e = q_i + q_j - 2 x_i.z_j.
    A refresh of the whole pool (`_ALL`, as `fg` asks for) takes the gains
    in Gram form, from X Z^T; a refresh of a block, entry by entry from the
    rows x_i and z_j of the block. Z = X A^-1 and q are formed for every
    sample at the first refresh of an iteration ("precompute"), or each
    sample's z_i and q_i on its first use within the iteration ("memoize").
    """

    mapped = -1  # iteration of the current Z, unless memoized

    def __init__(self, x, absolute_set, lam, pi, pj, k, memo=None):
        super().__init__(x, absolute_set, lam, pi, pj, k, memo)
        if memo == "memoize":
            self.z, self.q = np.empty(x.shape), np.empty(x.shape[0])
            # iteration of each row's z_i and q_i; -1 until first mapped
            self._mapped = np.full(x.shape[0], -1, dtype=np.intp)

    def refresh(self, b, it: int) -> np.ndarray:
        if self.memo != "memoize" and self.mapped != it:
            self.z = self.x @ self.ainv
            self.q = np.einsum("nd,nd->n", self.x, self.z)
            self.mapped = it
        i, j = self.pi[b], self.pj[b]
        if self.memo == "memoize":
            self._map(np.concatenate((i, j)), it)
        if b is _ALL:
            return factorization_gains(self.x, self.z, self.q, i, j)
        cross = np.einsum("ed,ed->e", self.x.take(i, axis=0), self.z.take(j, axis=0))
        return self.q.take(i) + self.q.take(j) - 2.0 * cross

    def _map(self, samples: np.ndarray, it: int) -> None:
        """Map the rows of `samples` not yet mapped through this iteration's A^-1.

        Each row is its own matrix-vector product: one matrix product over
        the batch rounds a row differently depending on the other rows, and a
        row's value must not depend on which samples were missing with it.
        Only the missing samples are deduplicated, through a length-N mask,
        not a sort.
        """
        missing = samples[self._mapped[samples] != it]
        if missing.size:
            missing = _distinct(missing, len(self._mapped))
            rows = self.x[missing]
            z = np.matmul(self.ainv, rows[:, :, None])[:, :, 0]
            self.z[missing] = z
            self.q[missing] = np.einsum("ed,ed->e", rows, z)
            self._mapped[missing] = it
            self.computed += missing.size


class ScalarOracle(GainOracle):
    """Gains computed once, then brought current by scalar downdates.

    A^-1 is held in product form: `ainv` stays the base inverse
    A_0^-1 and row l of `v` is the vector of selection l, with
    A^-1 = A_0^-1 - sum_{l < it} v_l v_l^T. Each selection forms its v from
    those (`linalg.update_vector`) and writes no d x d matrix. With `memo`
    None (`sg`) every gain is then downdated in place by (rho_i - rho_j)^2,
    where rho = X v. Otherwise a gain is brought current from its initial
    value by subtracting sum_{l < it} (rho_{l,i} - rho_{l,j})^2, accumulated
    oldest row first, from a history of rho rows computed in full per
    selection ("precompute") or entry by entry from the saved v on demand
    ("memoize"). That result depends only on the pair and `it`, not on when
    the entry was last refreshed or which entries share its block, and
    never exceeds an earlier result, so a stale bound stays an exact upper
    bound in floating point.

    A block's (it x m) terms are C-contiguous, and numpy sums pairwise only
    along the fast axis in memory (`np.sum`, Notes): reduced over axis 0 at
    m >= 2, they are added row after row, oldest first, for every entry,
    in one pass that reads each term once. At m = 1 the length-1 axis
    drops out, axis 0 becomes the fast axis, and the reduction would go
    pairwise from it = 8 on; a one-entry block takes the prefix sum, which
    adds strictly in order.
    """

    def __init__(self, x, absolute_set, lam, pi, pj, k, memo=None):
        super().__init__(x, absolute_set, lam, pi, pj, k, memo)
        self.gains = super().initial()
        self.v = np.zeros((k, x.shape[1]))
        if memo is not None:
            self.rho = np.zeros((k, x.shape[0]))
        if memo == "memoize":
            # rho rows filled per sample; `fill` fills each sample's rows
            # oldest first, so they are always the first `_filled[s]`
            self._filled = np.zeros(x.shape[0], dtype=np.intp)

    def initial(self) -> np.ndarray:
        return self.gains

    def refresh(self, b, it: int) -> np.ndarray:
        if self.memo is None:
            return self.gains[b]
        i, j = self.pi[b], self.pj[b]
        if self.memo == "memoize":
            self.fill(np.concatenate((i, j)), it)
        rows = self.rho[:it]
        diff = rows.take(i, axis=1) - rows.take(j, axis=1)
        diff *= diff
        # oldest row first for every entry: see the class docstring for why
        # one entry cannot take the reduction
        total = np.add.reduce(diff, axis=0) if diff.shape[1] > 1 else diff.cumsum(axis=0)[-1]
        return self.gains[b] - total

    def update(self, pair: Pair, it: int) -> None:
        v = linalg.update_vector(self.ainv, comparison_feature(self.x, pair), self.v[:it])
        self.v[it] = v
        if self.memo == "precompute":
            self.rho[it] = self.x @ v
        elif self.memo is None:
            # (rho_i - rho_j)^2 formed in place in one pool-sized array, one
            # subtraction and one product per entry: two pool-sized arrays
            # a pick, at any pool size
            rho = self.x @ v
            t = rho.take(self.pi)
            t -= rho.take(self.pj)
            t *= t
            self.gains -= t

    def fill(self, samples: np.ndarray, stop: int) -> None:
        """Fill rho_{l,s} for l < stop and every s in `samples`, computing
        only the entries not filled yet; v_l is fixed once iteration l ends.
        Unless every entry is filled already, the entries are read off a
        mask over the unfilled rows and all N samples, not a sort: once
        each, oldest row first, in sample order within a row."""
        filled = self._filled[samples]
        start = int(_min(filled, initial=stop))
        if start == stop:
            return
        first = np.full(len(self._filled), stop)
        first[samples] = filled
        rows, cols = (np.arange(start, stop)[:, None] >= first).nonzero()
        rows += start
        self.rho[rows, cols] = np.einsum("ed,ed->e", self.v.take(rows, axis=0), self.x.take(cols, axis=0))
        self._filled[samples] = np.maximum(filled, stop)
        self.computed += rows.size


class EagerSearch:
    """Refresh every pair each iteration and take the first maximum."""

    touch_counts = None

    def start(self, oracle) -> None:
        # pool indices of the pairs picked so far: masking them costs O(K)
        # per pick, where a pool-sized boolean mask would cost O(|C|)
        self.picked: list[int] = []

    def pick(self, oracle, it: int) -> tuple[int, float]:
        d = oracle.refresh(_ALL, it)
        d[self.picked] = -np.inf
        best = int(d.argmax())
        self.picked.append(best)
        return best, float(d[best])


@dataclass(frozen=True)
class Engine:
    """A search class driving a gain oracle class under a memo policy.

    Calling the engine selects `k` pairs of `pool` (see `resolve_pool`)
    greedily. The preprocessing phase covers the samples' coordinates
    (`design.sample_coordinates`), the oracle's construction and the
    search's setup; each iteration then times the search's pick (find-max)
    and the oracle's update.
    """

    tag: str
    search: type
    oracle: type
    memo: str | None = None

    def __call__(self, x, absolute_set, k, lam, pool=None) -> SelectionTrace:
        search = self.search()
        pi, pj = resolve_pool(x.shape[0], pool, k)
        clock = time.perf_counter

        t0 = clock()
        oracle = self.oracle(sample_coordinates(x, lam), absolute_set, lam, pi, pj, k, self.memo)
        search.start(oracle)
        trace = SelectionTrace(self.tag, preprocessing_seconds=clock() - t0, touch_counts=search.touch_counts,
                               memo_counts=None if oracle.computed is None else [])
        # the trace's lists, bound to locals once: appending through `trace`
        # on every pick timed a few percent slower on `sg`
        selected, gains, memo_counts = trace.selected, trace.gains, trace.memo_counts
        find_max_seconds, update_seconds = trace.find_max_seconds, trace.update_seconds
        computed = 0

        for it in range(k):
            t1 = clock()
            best, gain = search.pick(oracle, it)
            find_max_seconds.append(clock() - t1)

            pair = (int(pi[best]), int(pj[best]))
            selected.append(pair)
            gains.append(gain)

            t2 = clock()
            oracle.update(pair, it)
            update_seconds.append(clock() - t2)
            # a memoized pick computes entries in its refresh and its update
            if memo_counts is not None:
                memo_counts.append(oracle.computed - computed)
                computed = oracle.computed
        return trace
