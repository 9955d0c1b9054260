"""Eager greedy engines: naive, factorization, and scalar variants.

All three provably select the same set; they differ only in how the proxy
gains d_e = x_e^T A^-1 x_e are obtained each iteration:

* naive: a fresh quadratic form per remaining pair, O(N^2 d^2) per iteration;
* factorization: factor A^-1 = U^T U once per iteration, map samples through
  U, then d_e = ||z_i - z_j||^2, O(N d^2 + N^2 d) per iteration;
* scalar: compute all d_e once, then downdate each by (v.x_i - v.x_j)^2 per
  iteration, O(N d + N^2) per iteration after an O(N^2 d) preprocessing,
  plus the O(d^2) in-place downdate A^-1 -= v v^T that yields v.

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


def _resolve_pool(n: int, pool: list[Pair] | None):
    """Index arrays (I, J) for the candidate universe, lexicographic order."""
    if pool is None:
        return pair_arrays(n)
    pool = sorted(pool)
    arr = np.asarray(pool, dtype=np.intp)
    if arr.size == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    return arr[:, 0], arr[:, 1]


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


def _run_eager(
    variant: str,
    x: np.ndarray,
    absolute_set,
    k: int,
    lam: float,
    pool: list[Pair] | None,
    record_gain_arrays: bool,
) -> SelectionTrace:
    n = x.shape[0]
    pi, pj = _resolve_pool(n, pool)
    if k > len(pi):
        raise ValueError(f"k={k} exceeds candidate pool of {len(pi)} pairs")

    clock = time.perf_counter
    t0 = clock()
    state = init_design(x, absolute_set, lam)
    cached = None
    if variant == "sg":
        u = linalg.gram_factor(state.ainv)
        cached = factorization_gains(x @ u.T, pi, pj)
    pre_seconds = clock() - t0

    selected: list[Pair] = []
    gains: list[float] = []
    find_max_seconds: list[float] = []
    update_seconds: list[float] = []
    gain_arrays: list[np.ndarray] = []
    picked = np.zeros(len(pi), dtype=bool)

    for _ in range(k):
        t1 = clock()
        if variant == "ng":
            d = quadratic_gains(x, pi, pj, state.ainv)
        elif variant == "fg":
            u = linalg.gram_factor(state.ainv)
            d = factorization_gains(x @ u.T, pi, pj)
        else:
            d = cached
        d[picked] = -np.inf
        best = int(np.argmax(d))
        find_max_seconds.append(clock() - t1)

        if record_gain_arrays:
            gain_arrays.append(np.where(picked, -np.inf, d).copy())
        pair = (int(pi[best]), int(pj[best]))
        gains.append(float(d[best]))
        selected.append(pair)
        picked[best] = True

        t2 = clock()
        xe = comparison_feature(x, pair)
        if variant == "sg":
            z = x @ linalg.scalar_downdate(state.ainv, xe)
            cached = cached - (z[pi] - z[pj]) ** 2
        else:
            state.ainv = linalg.sherman_morrison_downdate(state.ainv, xe)
        state.selected.append(pair)
        update_seconds.append(clock() - t2)

    return SelectionTrace(
        variant=variant,
        selected=selected,
        gains=gains,
        preprocessing_seconds=pre_seconds,
        find_max_seconds=find_max_seconds,
        update_seconds=update_seconds,
        gain_arrays=gain_arrays if record_gain_arrays else None,
    )


def naive_greedy(
    x, absolute_set, k, lam, pool=None, record_gain_arrays=False
) -> SelectionTrace:
    """Fresh quadratic form for every remaining pair, every iteration."""
    return _run_eager("ng", x, absolute_set, k, lam, pool, record_gain_arrays)


def factorization_greedy(
    x, absolute_set, k, lam, pool=None, record_gain_arrays=False
) -> SelectionTrace:
    """Per-iteration Cholesky factor of A^-1; gains as squared z-distances."""
    return _run_eager("fg", x, absolute_set, k, lam, pool, record_gain_arrays)


def scalar_greedy(
    x, absolute_set, k, lam, pool=None, record_gain_arrays=False
) -> SelectionTrace:
    """Gains computed once, then downdated by scalar differences per iteration."""
    return _run_eager("sg", x, absolute_set, k, lam, pool, record_gain_arrays)
