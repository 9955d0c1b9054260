"""Lazy greedy engines: block refresh of stale upper bounds held in arrays.

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

The engines differ only in how a block of stale entries is refreshed:

* naive lazy: recompute the quadratic forms x_e^T A^-1 x_e;
* factorization lazy: refactorize A^-1 = U^T U after each selection and
  refresh as ||z_i - z_j||^2, with the z vectors either precomputed for all
  samples or mapped for the block's samples on first use within the iteration;
* scalar lazy: an entry is brought current from its initial gain by
  subtracting (rho_{l,i} - rho_{l,j})^2 for every iteration l so far, from a
  stored history of rho rows filled in full or on demand.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .design import Pair, comparison_feature, init_design
from .errors import StaleStampCorruption
from .greedy import _resolve_pool, factorization_gains, quadratic_gains
# Not used by the search; per-layer tracing (perfbench/spans.py) patches
# `lazy.LazyHeap` by name, so the name must stay resolvable here.
from .heap import LazyHeap  # noqa: F401
from .trace import SelectionTrace

# Fewest entries a refresh block takes.
_MIN_BLOCK = 16


class RhoHistory:
    """Dense per-iteration record of rho_{l,i} = v_l . x_i.

    Rows are appended as selections happen. In memoize mode individual
    entries are filled on demand from the saved v vectors; a fill mask
    tracks which entries have been computed. Entries never invalidate: v_l is
    fixed once iteration l completes.
    """

    def __init__(self, x: np.ndarray, k_max: int):
        self._x = x
        n = x.shape[0]
        self.rho = np.zeros((k_max, n))
        self.v = np.zeros((k_max, x.shape[1]))
        self._filled = np.zeros((k_max, n), dtype=bool)
        self.filled_rows = 0
        self.computed = 0

    def append_precomputed(self, v: np.ndarray) -> None:
        k = self.filled_rows
        self.v[k] = v
        self.rho[k] = self._x @ v
        self._filled[k] = True
        self.computed += self._x.shape[0]
        self.filled_rows += 1

    def append_lazy(self, v: np.ndarray) -> None:
        k = self.filled_rows
        self.v[k] = v
        self.filled_rows += 1

    def fill(self, samples: np.ndarray, stop: int) -> None:
        """Fill rho_{l,s} for l < stop and every s in `samples`, computing
        only the entries not filled yet."""
        samples = np.unique(samples)
        rows, cols = np.nonzero(~self._filled[:stop, samples])
        if rows.size == 0:
            return
        cols = samples[cols]
        self.rho[rows, cols] = np.einsum("ed,ed->e", self.v[rows], self._x[cols])
        self._filled[rows, cols] = True
        self.computed += rows.size


class _ZCache:
    """z_i = U x_i for the current factor U, mapped in full or row by row.

    A generation counter marks which rows belong to the current factor.
    """

    def __init__(self, x: np.ndarray):
        self._x = x
        self.z = np.zeros_like(x)
        self._gen = np.full(x.shape[0], -1)
        self.generation = 0
        self.u: np.ndarray | None = None
        self.computed = 0

    def reset(self, u: np.ndarray, z: np.ndarray | None = None) -> None:
        """Switch to factor `u`; with `z` given, every row is current."""
        self.u = u
        self.generation += 1
        if z is not None:
            self.z = z
            self._gen[:] = self.generation

    def map(self, samples: np.ndarray) -> np.ndarray:
        """The z rows, after mapping those of `samples` not current yet.

        Each row is its own matrix-vector product: one matrix product over
        the batch rounds a row differently depending on the other rows, and a
        row's value must not depend on which samples were missing with it.
        """
        missing = np.unique(samples[self._gen[samples] != self.generation])
        if missing.size:
            self.z[missing] = np.matmul(self.u, self._x[missing, :, None])[:, :, 0]
            self._gen[missing] = self.generation
            self.computed += missing.size
        return self.z


class _Hooks(NamedTuple):
    """Per-engine gain oracle over a pool (pi, pj), driven by the lazy search.

    `initial()` gives every pool entry's gain for the empty selection;
    `refresh(b, it)` gives the current gains of pool entries `b` at
    iteration `it`; `update(pair, it)` applies a selection; `memo_counter()`,
    when present, returns the scratch entries computed since its last call.
    """

    initial: Callable
    refresh: Callable
    update: Callable
    memo_counter: Callable | None = None


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


def _run_lazy(variant, x, k, pool, make_hooks) -> SelectionTrace:
    """Shared skeleton: initial bounds, block find-max, per-selection update.

    `make_hooks(pi, pj)` builds the engine's gain oracle for the resolved pool.
    """
    pi, pj = _resolve_pool(x.shape[0], pool)
    n_pairs = len(pi)
    if k > n_pairs:
        raise ValueError(f"k={k} exceeds candidate pool of {n_pairs} pairs")
    hooks = make_hooks(pi, pj)
    clock = time.perf_counter

    t0 = clock()
    bound = np.array(hooks.initial(), dtype=np.float64)
    stamp = np.zeros(n_pairs, dtype=np.intp)
    pre_seconds = clock() - t0

    selected: list[Pair] = []
    gains: list[float] = []
    find_max_seconds: list[float] = []
    update_seconds: list[float] = []
    touch_counts: list[int] = []
    memo_counts: list[int] = []
    block = _MIN_BLOCK

    for it in range(k):
        t1 = clock()
        live = n_pairs - it
        if block < live:
            b = np.argpartition(bound, n_pairs - block)[n_pairs - block:]
        else:
            b = np.flatnonzero(bound != -np.inf)
        touches = 0
        gain = -np.inf
        old_bounds = []
        while b.size:
            stale = b[_checked_stamps(stamp, b, it) < it]
            if stale.size:
                old = bound[stale]
                bound[stale] = hooks.refresh(stale, it)
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
        block = max(_MIN_BLOCK, needed // 2)
        find_max_seconds.append(clock() - t1)

        pair = (int(pi[best]), int(pj[best]))
        selected.append(pair)
        gains.append(float(gain))
        touch_counts.append(touches)
        bound[best] = -np.inf

        t2 = clock()
        hooks.update(pair, it)
        update_seconds.append(clock() - t2)
        if hooks.memo_counter is not None:
            memo_counts.append(hooks.memo_counter())

    return SelectionTrace(
        variant=variant,
        selected=selected,
        gains=gains,
        preprocessing_seconds=pre_seconds,
        find_max_seconds=find_max_seconds,
        update_seconds=update_seconds,
        touch_counts=touch_counts,
        memo_counts=memo_counts if hooks.memo_counter is not None else None,
    )


def _counter(source):
    """memo_counter over `source.computed`: the entries added since the last call."""
    before = [source.computed]

    def memo_counter():
        delta = source.computed - before[0]
        before[0] = source.computed
        return delta

    return memo_counter


def _naive_hooks(x, absolute_set, lam, pi, pj) -> _Hooks:
    state = init_design(x, absolute_set, lam)

    def initial():
        u = linalg.gram_factor(state.ainv)
        return factorization_gains(x @ u.T, pi, pj)

    def refresh(b, it):
        return quadratic_gains(x, pi[b], pj[b], state.ainv)

    def update(pair, it):
        xe = comparison_feature(x, pair)
        state.ainv = linalg.sherman_morrison_downdate(state.ainv, xe)
        state.selected.append(pair)

    return _Hooks(initial, refresh, update)


def _factorization_hooks(x, absolute_set, lam, pi, pj, mode) -> _Hooks:
    state = init_design(x, absolute_set, lam)
    cache = _ZCache(x)

    def initial():
        u = linalg.gram_factor(state.ainv)
        # initial gains need every z, in either mode
        cache.reset(u, x @ u.T)
        return factorization_gains(cache.z, pi, pj)

    def refresh(b, it):
        i, j = pi[b], pj[b]
        z = cache.z if mode == "precompute" else cache.map(np.concatenate((i, j)))
        diff = z[i] - z[j]
        return np.einsum("ed,ed->e", diff, diff)

    def update(pair, it):
        xe = comparison_feature(x, pair)
        state.ainv = linalg.sherman_morrison_downdate(state.ainv, xe)
        state.selected.append(pair)
        u = linalg.gram_factor(state.ainv)
        cache.reset(u, x @ u.T if mode == "precompute" else None)

    return _Hooks(initial, refresh, update, _counter(cache) if mode == "memoize" else None)


def _scalar_hooks(x, absolute_set, lam, pi, pj, k, mode) -> _Hooks:
    state = init_design(x, absolute_set, lam)
    history = RhoHistory(x, k)
    gains0 = None

    def initial():
        nonlocal gains0
        u = linalg.gram_factor(state.ainv)
        gains0 = factorization_gains(x @ u.T, pi, pj)
        return gains0

    def refresh(b, it):
        i, j = pi[b], pj[b]
        if mode == "memoize":
            history.fill(np.concatenate((i, j)), it)
        rows = history.rho[:it]
        diff = rows[:, i] - rows[:, j]
        diff *= diff
        # cumsum adds the rows strictly in order, whatever the block's width
        return gains0[b] - np.cumsum(diff, axis=0)[-1]

    def update(pair, it):
        xe = comparison_feature(x, pair)
        v = linalg.update_vector(state.ainv, xe)
        if mode == "precompute":
            history.append_precomputed(v)
        else:
            history.append_lazy(v)
        state.ainv = linalg.symmetrize(state.ainv - np.outer(v, v))
        state.selected.append(pair)

    return _Hooks(initial, refresh, update, _counter(history) if mode == "memoize" else None)


def _check_mode(mode: str) -> None:
    if mode not in ("precompute", "memoize"):
        raise ValueError(f"unknown mode {mode!r}")


def naive_lazy(x, absolute_set, k, lam, pool=None) -> SelectionTrace:
    """Lazy greedy refreshing entries with fresh quadratic forms."""
    return _run_lazy("nl", x, k, pool, lambda pi, pj: _naive_hooks(x, absolute_set, lam, pi, pj))


def factorization_lazy(x, absolute_set, k, lam, pool=None, mode="precompute") -> SelectionTrace:
    """Lazy greedy with per-iteration refactorization of A^-1.

    precompute maps every sample through U after each selection; memoize maps
    a sample on its first refresh within the iteration and reuses it until
    the next selection invalidates the factor.
    """
    _check_mode(mode)
    return _run_lazy(
        "flp" if mode == "precompute" else "flm", x, k, pool,
        lambda pi, pj: _factorization_hooks(x, absolute_set, lam, pi, pj, mode),
    )


def scalar_lazy(x, absolute_set, k, lam, pool=None, mode="precompute") -> SelectionTrace:
    """Lazy greedy adapting stale gains from the rho history.

    An entry is brought current at iteration k by subtracting
    sum_{l < k} (rho_{l,i} - rho_{l,j})^2 from its initial gain, accumulated
    oldest row first. The result depends only on the pair and k, not on when
    the entry was last refreshed, and never exceeds an earlier result, so a
    stale bound stays an exact upper bound in floating point.
    """
    _check_mode(mode)
    return _run_lazy(
        "slp" if mode == "precompute" else "slm", x, k, pool,
        lambda pi, pj: _scalar_hooks(x, absolute_set, lam, pi, pj, k, mode),
    )
