"""Log-determinant design objective and the base inverse A_0^-1.

The candidate universe is the set of ordered pairs (i, j) with i < j over the
N samples of a feature matrix. The objective of a selected set S is

    logdet(lambda * I + sum_{i in A} x_i x_i^T + sum_{(i,j) in S} x_ij x_ij^T)

with x_ij = x_i - x_j. `objective_value` computes this from scratch and is
the slow oracle; the engines only ever touch the proxy gain x_e^T A^-1 x_e,
starting from the inverse that `init_design` forms for the empty selection.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg

Pair = tuple[int, int]


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


def init_design(x: np.ndarray, absolute_set, lam: float) -> np.ndarray:
    """A_0^-1, the inverse design matrix with S empty, inverted directly."""
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    if not np.isfinite(x).all():
        row = int(np.isfinite(x).all(axis=1).argmin())
        raise ValueError(f"feature row {row} is not finite")
    return linalg.invert_spd(design_matrix(x, absolute_set, [], lam))


def objective_value(x: np.ndarray, absolute_set, selected, lam: float) -> float:
    """logdet of the design matrix, computed from scratch via Cholesky."""
    m = design_matrix(x, absolute_set, selected, lam)
    f = linalg.cholesky_factor(m)
    return 2.0 * float(np.sum(np.log(np.diag(f))))
