"""Log-determinant design objective, marginal gains, and selection state.

The candidate universe is the set of ordered pairs (i, j) with i < j over the
N samples of a feature matrix. The objective of a selected set S is

    logdet(lambda * I + sum_{i in A} x_i x_i^T + sum_{(i,j) in S} x_ij x_ij^T)

with x_ij = x_i - x_j. `objective_value` computes this from scratch and is
the slow oracle; the engines only ever touch the proxy gain x_e^T A^-1 x_e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import linalg
from .errors import AlreadySelected, InstanceTooLarge

Pair = tuple[int, int]

# Guard for brute-force enumeration: C(|pool|, K) at most this many subsets.
_BRUTE_FORCE_LIMIT = 1_000_000


def pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (I, J) for the full pair universe, lexicographic order."""
    return np.triu_indices(n, k=1)


def comparison_feature(x: np.ndarray, e: Pair) -> np.ndarray:
    """Difference feature x_i - x_j of a comparison pair."""
    i, j = e
    n = x.shape[0]
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"pair {e} out of range for {n} samples")
    return x[i] - x[j]


@dataclass
class DesignState:
    """Evolving inverse design matrix plus selection bookkeeping.

    `ainv` tracks the inverse of the design matrix for the current selected
    set and is advanced by rank-one downdates; a scalar gain oracle keeps
    it as the base inverse and holds its updates apart (`greedy.ScalarOracle`).
    """

    ainv: np.ndarray
    lam: float
    absolute_set: list[int]
    selected: list[Pair] = field(default_factory=list)


def design_matrix(x: np.ndarray, absolute_set, selected, lam: float) -> np.ndarray:
    """Assemble lambda*I + sum of absolute and comparison outer products."""
    d = x.shape[1]
    m = lam * np.eye(d)
    if len(absolute_set) > 0:
        xa = x[np.asarray(list(absolute_set), dtype=np.intp)]
        m += xa.T @ xa
    if len(selected) > 0:
        diffs = np.array([comparison_feature(x, e) for e in selected])
        m += diffs.T @ diffs
    return linalg.symmetrize(m)


def init_design(x: np.ndarray, absolute_set, lam: float) -> DesignState:
    """Fresh state with S empty; inverts the base matrix directly."""
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    if not np.isfinite(x).all():
        row = int(np.isfinite(x).all(axis=1).argmin())
        raise ValueError(f"feature row {row} is not finite")
    m = design_matrix(x, absolute_set, [], lam)
    return DesignState(ainv=linalg.invert_spd(m), lam=lam, absolute_set=list(absolute_set))


def objective_value(x: np.ndarray, absolute_set, selected, lam: float) -> float:
    """logdet of the design matrix, computed from scratch via Cholesky."""
    m = design_matrix(x, absolute_set, selected, lam)
    f = linalg.cholesky_factor(m)
    return 2.0 * float(np.sum(np.log(np.diag(f))))


def proxy_gain(state: DesignState, x: np.ndarray, e: Pair) -> float:
    """Quadratic form x_e^T A^-1 x_e; shares its argmax with the exact gain."""
    if e in state.selected:
        raise AlreadySelected(f"pair {e} already selected")
    xe = comparison_feature(x, e)
    return float(xe @ state.ainv @ xe)


def marginal_gain_exact(state: DesignState, x: np.ndarray, e: Pair) -> float:
    """Objective increase from adding e, via the matrix determinant lemma."""
    return math.log1p(proxy_gain(state, x, e))


def add_pair(state: DesignState, x: np.ndarray, e: Pair) -> None:
    """Select e and downdate the inverse in place."""
    if e in state.selected:
        raise AlreadySelected(f"pair {e} already selected")
    xe = comparison_feature(x, e)
    state.ainv = linalg.sherman_morrison_downdate(state.ainv, xe)
    state.selected.append(e)


def refresh_state(state: DesignState, x: np.ndarray) -> None:
    """Recompute ainv from scratch; clears rank-one update drift."""
    m = design_matrix(x, state.absolute_set, state.selected, state.lam)
    state.ainv = linalg.invert_spd(m)


def brute_force_select(x: np.ndarray, absolute_set, k: int, lam: float, pool=None) -> list[Pair]:
    """Exhaustive optimum over all size-k subsets of `pool` (see `greedy.resolve_pool`).

    Ties are broken toward the lexicographically smallest sorted pair list;
    enumerating `combinations` of a sorted pool with strict improvement gives
    exactly that rule.
    """
    from .greedy import resolve_pool  # greedy imports this module

    i, j = resolve_pool(x.shape[0], pool, k)
    if math.comb(len(i), k) > _BRUTE_FORCE_LIMIT:
        raise InstanceTooLarge(
            f"C({len(i)}, {k}) subsets exceed the {_BRUTE_FORCE_LIMIT} guard"
        )
    best_value = -math.inf
    best: tuple[Pair, ...] = ()
    for subset in combinations(zip(i.tolist(), j.tolist()), k):
        value = objective_value(x, absolute_set, subset, lam)
        if value > best_value:
            best_value = value
            best = subset
    return list(best)
