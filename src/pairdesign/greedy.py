"""The engine core: gain oracles driven by a search, plus the eager engines.

Every engine runs the same greedy rule through `run`; the eight differ only
in the gain oracle that yields d_e = x_e^T A^-1 x_e and in the search that
decides which gains to ask for:

* `NaiveOracle`: a fresh quadratic form per pair, O(|C| d^2) for all pairs;
* `FactorizationOracle`: factor A^-1 = U^T U once per iteration, on first
  use, map samples through U, then d_e = ||z_i - z_j||^2, O(N d^2 + |C| d)
  for all pairs;
* `ScalarOracle`: compute all d_e once, then downdate them by
  (v.x_i - v.x_j)^2 per iteration, O(N d + |C|) after an O(N^2 d)
  preprocessing, plus the O(d^2) in-place downdate A^-1 -= v v^T that
  yields v.

The eager search here (`ng`, `fg`, `sg`) asks for every pair's gain each
iteration; the lazy block search in `lazy.py` (`nl`, `flp`, `flm`, `slp`,
`slm`) asks only for the stale gains that could still win.

A^-1 is advanced by rank-one downdates only and never rebuilt mid-run;
`design.refresh_state` rebuilds it from scratch outside the engines.

Ties in d_e resolve to the lexicographically smallest pair: gains are laid
out in lexicographic pair order and argmax returns the first maximum.
"""

from __future__ import annotations

import time

import numpy as np

from . import linalg
from .design import Pair, comparison_feature, init_design, pair_arrays
from .trace import SelectionTrace

# Pairs processed per block in the chunked quadratic-form sweep; bounds the
# (chunk x d) scratch arrays.
_CHUNK = 65536

# The whole pool, as an index that `refresh` can take: a view, not a gather.
_ALL = slice(None)


def _resolve_pool(n: int, pool: list[Pair] | None):
    """Index arrays (I, J) for the candidate universe, lexicographic order.

    A caller's pool must list distinct pairs (i, j) with 0 <= i < j < n.
    """
    if pool is None:
        return pair_arrays(n)
    pairs = sorted(pool)
    arr = np.asarray(pairs, dtype=np.intp).reshape(len(pairs), 2)
    i, j = arr[:, 0], arr[:, 1]
    bad = (i < 0) | (i >= j) | (j >= n)
    if bad.any():
        raise ValueError(f"pool pair {tuple(arr[bad.argmax()].tolist())} is not (i, j) with 0 <= i < j < {n}")
    repeated = (arr[1:] == arr[:-1]).all(axis=1)
    if repeated.any():
        raise ValueError(f"pool lists pair {tuple(arr[repeated.argmax()].tolist())} more than once")
    return i, j


def quadratic_gains(x: np.ndarray, pi: np.ndarray, pj: np.ndarray, ainv: np.ndarray) -> np.ndarray:
    """d_e = (x_i - x_j)^T ainv (x_i - x_j) for every candidate, chunked."""
    out = np.empty(len(pi))
    for s in range(0, len(pi), _CHUNK):
        e = s + _CHUNK
        diff = x[pi[s:e]] - x[pj[s:e]]
        out[s:e] = np.einsum("ed,ed->e", diff @ ainv, diff)
    return out


def factorization_gains(z: np.ndarray, pi: np.ndarray, pj: np.ndarray) -> np.ndarray:
    """d_e = ||z_i - z_j||^2 via the Gram matrix of the mapped samples."""
    gram = z @ z.T
    sq = np.einsum("nd,nd->n", z, z)
    return sq[pi] + sq[pj] - 2.0 * gram[pi, pj]


class GainOracle:
    """Gains d_e of a pool (pi, pj) under the evolving A^-1; the shared part.

    `initial()` gives every pool entry's gain for the empty selection;
    `refresh(b, it)` gives the gains of pool entries `b` (an index array, or
    `_ALL`) at iteration `it`; `update(pair, it)` applies the selection of
    iteration `it`. `computed` counts the scratch entries a memoized oracle
    has filled, and is None for the others.
    """

    computed = None

    def __init__(self, x, absolute_set, lam, pi, pj):
        self.x, self.pi, self.pj = x, pi, pj
        self.state = init_design(x, absolute_set, lam)

    def initial(self) -> np.ndarray:
        """Every gain in Gram form, through a factor of the base A^-1."""
        self.u = linalg.gram_factor(self.state.ainv)
        self.z = self.x @ self.u.T
        return factorization_gains(self.z, self.pi, self.pj)

    def update(self, pair: Pair, it: int) -> None:
        xe = comparison_feature(self.x, pair)
        self.state.ainv = linalg.sherman_morrison_downdate(self.state.ainv, xe)
        self.state.selected.append(pair)


class NaiveOracle(GainOracle):
    """Gains as fresh quadratic forms x_e^T A^-1 x_e."""

    def refresh(self, b, it: int) -> np.ndarray:
        return quadratic_gains(self.x, self.pi[b], self.pj[b], self.state.ainv)


class FactorizationOracle(GainOracle):
    """Gains as squared distances between samples mapped through U.

    U with U^T U = A^-1 is factored at the first refresh of an iteration.
    With `mode` None (`fg`) the gains come in Gram form over every mapped
    sample; otherwise as row differences, with every sample mapped on
    factoring ("precompute") or each sample on its first use within the
    iteration ("memoize").
    """

    def __init__(self, x, absolute_set, lam, pi, pj, mode=None):
        super().__init__(x, absolute_set, lam, pi, pj)
        self.mode = mode
        self.factored = -1  # iteration of the current U
        if mode == "memoize":
            self.computed = 0
            # iteration of each row's U; initial() maps every row at iteration 0
            self._mapped = np.zeros(x.shape[0], dtype=np.intp)

    def initial(self) -> np.ndarray:
        self.factored = 0
        return super().initial()

    def refresh(self, b, it: int) -> np.ndarray:
        if self.factored != it:
            self.u = linalg.gram_factor(self.state.ainv)
            self.factored = it
            if self.mode != "memoize":
                self.z = self.x @ self.u.T
        i, j = self.pi[b], self.pj[b]
        if self.mode is None:
            return factorization_gains(self.z, i, j)
        if self.mode == "memoize":
            self._map(np.concatenate((i, j)), it)
        diff = self.z[i] - self.z[j]
        return np.einsum("ed,ed->e", diff, diff)

    def _map(self, samples: np.ndarray, it: int) -> None:
        """Map the rows of `samples` not yet mapped through this iteration's U.

        Each row is its own matrix-vector product: one matrix product over
        the batch rounds a row differently depending on the other rows, and a
        row's value must not depend on which samples were missing with it.
        """
        missing = np.unique(samples[self._mapped[samples] != it])
        if missing.size:
            self.z[missing] = np.matmul(self.u, self.x[missing, :, None])[:, :, 0]
            self._mapped[missing] = it
            self.computed += missing.size


class ScalarOracle(GainOracle):
    """Gains computed once, then brought current by scalar downdates.

    Each selection downdates A^-1 in place to A^-1 - v v^T. With `mode`
    None (`sg`) every gain is then downdated in place by (rho_i - rho_j)^2,
    where rho = X v. Otherwise a gain is brought current from its initial
    value by subtracting sum_{l < it} (rho_{l,i} - rho_{l,j})^2, accumulated
    oldest row first, from a history of rho rows computed in full per
    selection ("precompute") or entry by entry from the saved v on demand
    ("memoize"). That result depends only on the pair and `it`, not on when
    the entry was last refreshed, and never exceeds an earlier result, so a
    stale bound stays an exact upper bound in floating point.
    """

    def __init__(self, x, absolute_set, lam, pi, pj, k, mode=None):
        super().__init__(x, absolute_set, lam, pi, pj)
        self.mode = mode
        self.gains = super().initial()
        self.rho = np.zeros((k, x.shape[0]))
        self.v = np.zeros((k, x.shape[1]))
        if mode == "memoize":
            self.computed = 0
            self._filled = np.zeros(self.rho.shape, dtype=bool)

    def initial(self) -> np.ndarray:
        return self.gains

    def refresh(self, b, it: int) -> np.ndarray:
        if self.mode is None:
            return self.gains[b]
        i, j = self.pi[b], self.pj[b]
        if self.mode == "memoize":
            self.fill(np.concatenate((i, j)), it)
        rows = self.rho[:it]
        diff = rows[:, i] - rows[:, j]
        diff *= diff
        # cumsum adds the rows strictly in order, whatever the block's width
        return self.gains[b] - np.cumsum(diff, axis=0)[-1]

    def update(self, pair: Pair, it: int) -> None:
        v = linalg.scalar_downdate(self.state.ainv, comparison_feature(self.x, pair))
        self.state.selected.append(pair)
        if self.mode == "memoize":
            self.v[it] = v
        elif self.mode == "precompute":
            self.rho[it] = self.x @ v
        else:
            rho = self.x @ v
            self.gains -= (rho[self.pi] - rho[self.pj]) ** 2

    def fill(self, samples: np.ndarray, stop: int) -> None:
        """Fill rho_{l,s} for l < stop and every s in `samples`, computing
        only the entries not filled yet; v_l is fixed once iteration l ends."""
        samples = np.unique(samples)
        rows, cols = np.nonzero(~self._filled[:stop, samples])
        if rows.size == 0:
            return
        cols = samples[cols]
        self.rho[rows, cols] = np.einsum("ed,ed->e", self.v[rows], self.x[cols])
        self._filled[rows, cols] = True
        self.computed += rows.size


class EagerSearch:
    """Refresh every pair each iteration and take the first maximum.

    With `record_gain_arrays`, keeps each iteration's gains, -inf at the
    pairs already selected.
    """

    touch_counts = None

    def __init__(self, record_gain_arrays: bool = False):
        self.gain_arrays = [] if record_gain_arrays else None

    def start(self, oracle) -> None:
        self.picked = np.zeros(len(oracle.pi), dtype=bool)

    def pick(self, oracle, it: int) -> tuple[int, float]:
        d = oracle.refresh(_ALL, it)
        d[self.picked] = -np.inf
        best = int(np.argmax(d))
        if self.gain_arrays is not None:
            self.gain_arrays.append(d.copy())
        self.picked[best] = True
        return best, float(d[best])


def run(variant: str, search, x: np.ndarray, k: int, pool: list[Pair] | None, make_oracle) -> SelectionTrace:
    """Select `k` pairs of `pool` (None: every pair) greedily.

    `make_oracle(pi, pj)` builds the gain oracle over the resolved pool. The
    preprocessing phase covers the oracle's construction and the search's
    setup; each iteration then times the search's pick (find-max) and the
    oracle's update.
    """
    pi, pj = _resolve_pool(x.shape[0], pool)
    if k > len(pi):
        raise ValueError(f"k={k} exceeds candidate pool of {len(pi)} pairs")
    clock = time.perf_counter

    t0 = clock()
    oracle = make_oracle(pi, pj)
    search.start(oracle)
    pre_seconds = clock() - t0

    selected: list[Pair] = []
    gains: list[float] = []
    find_max_seconds: list[float] = []
    update_seconds: list[float] = []
    memo_counts = None if oracle.computed is None else []

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
        if memo_counts is not None:
            memo_counts.append(oracle.computed - sum(memo_counts))

    return SelectionTrace(
        variant=variant,
        selected=selected,
        gains=gains,
        preprocessing_seconds=pre_seconds,
        find_max_seconds=find_max_seconds,
        update_seconds=update_seconds,
        touch_counts=search.touch_counts,
        memo_counts=memo_counts,
        gain_arrays=search.gain_arrays,
    )


def naive_greedy(x, absolute_set, k, lam, pool=None, record_gain_arrays=False) -> SelectionTrace:
    """Fresh quadratic form for every remaining pair, every iteration."""
    return run("ng", EagerSearch(record_gain_arrays), x, k, pool,
               lambda pi, pj: NaiveOracle(x, absolute_set, lam, pi, pj))


def factorization_greedy(x, absolute_set, k, lam, pool=None, record_gain_arrays=False) -> SelectionTrace:
    """Per-iteration Cholesky factor of A^-1; gains as squared z-distances."""
    return run("fg", EagerSearch(record_gain_arrays), x, k, pool,
               lambda pi, pj: FactorizationOracle(x, absolute_set, lam, pi, pj))


def scalar_greedy(x, absolute_set, k, lam, pool=None, record_gain_arrays=False) -> SelectionTrace:
    """Gains computed once, then downdated by scalar differences per iteration."""
    return run("sg", EagerSearch(record_gain_arrays), x, k, pool,
               lambda pi, pj: ScalarOracle(x, absolute_set, lam, pi, pj, k))
