"""Log-determinant design objective and the base inverse A_0^-1.

The candidate universe is the set of ordered pairs (i, j) with i < j over the
N samples of a feature matrix. The objective of a selected set S is

    logdet(lambda * I + sum_{i in A} x_i x_i^T + sum_{(i,j) in S} x_ij x_ij^T)

with x_ij = x_i - x_j. `objective_value` computes this from scratch and is
the slow oracle; the engines only ever touch the proxy gain x_e^T A^-1 x_e,
starting from the inverse that `init_design` forms for the empty selection.

Every row x_i - x_j and x_i lies in the row space of X. With a thin QR
X^T = Q R of r = min(N, d) columns and y_i row i of R^T, A = lambda I + Q B Q^T,
B built from the y's, so x_e^T A^-1 x_e = y_e^T (lambda I_r + B)^-1 y_e and
logdet A = logdet(lambda I_r + B) + (d - r) log lambda, for any rank of X.
When d is well above N, the engines and `objective_value` work on the y's
(`sample_coordinates`): every d x d matrix becomes r x r.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg

Pair = tuple[int, int]
_INTEGER = (int, np.integer)


def pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (I, J) for the full pair universe, lexicographic order.

    The values and dtype of `np.triu_indices(n, 1)`, built from the row
    offsets without its N x N mask: row i holds the n-1-i pairs from flat
    position start_i on, so the pair at flat position p has
    J = p + 1 - (start_i - i).
    """
    rows = np.arange(n)
    counts = n - 1 - rows
    starts = np.cumsum(counts) - counts
    i = np.repeat(rows, counts)
    j = np.arange(1, len(i) + 1)
    j -= np.repeat(starts - rows, counts)
    return i, j


def comparison_feature(x: np.ndarray, e: Pair) -> np.ndarray:
    """Difference feature x_i - x_j of a comparison pair (i, j): integers with
    0 <= i < j < N, the rule `greedy.resolve_pool` applies to a pool.
    Raises IndexError naming any other pair."""
    i, j = e
    if not (isinstance(i, _INTEGER) and isinstance(j, _INTEGER) and 0 <= i < j < x.shape[0]):
        raise IndexError(f"pair ({i}, {j}) is not (i, j) with 0 <= i < j < {x.shape[0]}")
    # int(): a bool is an integer, but x[True] adds an axis instead of taking row 1
    return x[int(i)] - x[int(j)]


def design_matrix(x: np.ndarray, absolute_set, selected, lam: float) -> np.ndarray:
    """Assemble lambda*I + sum of absolute and comparison outer products.
    Raises ValueError naming the first absolute index not an integer in 0..N-1."""
    n, d = x.shape
    for i in absolute_set:
        if not (isinstance(i, _INTEGER) and 0 <= i < n):
            raise ValueError(f"absolute index {i} is not an integer in 0..{n - 1}")
    m = lam * np.eye(d)
    if len(absolute_set) > 0:
        xa = x[np.asarray(list(absolute_set), dtype=np.intp)]
        m += xa.T @ xa
    if len(selected) > 0:
        diffs = np.array([comparison_feature(x, e) for e in selected])
        m += diffs.T @ diffs
    return linalg.symmetrize(m)


def _check_inputs(x: np.ndarray, lam: float) -> None:
    """Raise ValueError for a lambda that is not positive and finite, or
    for a feature row with a NaN or infinite entry, naming the first."""
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    if not np.isfinite(x).all():
        row = int(np.isfinite(x).all(axis=1).argmin())
        raise ValueError(f"feature row {row} is not finite")


def sample_coordinates(x: np.ndarray, lam: float) -> np.ndarray:
    """The sample rows the engines work on: X, or its coordinates R^T in
    its row space when 2 d >= 3 N, above the measured crossover where the
    QR costs less than the d-wide work it saves. The inputs are checked
    first, so that an error names the caller's row."""
    _check_inputs(x, lam)
    n, d = x.shape
    if 2 * d < 3 * n:
        return x
    return np.linalg.qr(x.T, mode="r").T


def init_design(x: np.ndarray, absolute_set, lam: float) -> np.ndarray:
    """A_0^-1, the inverse design matrix with S empty, inverted directly."""
    _check_inputs(x, lam)
    return linalg.invert_spd(design_matrix(x, absolute_set, [], lam))


def objective_value(x: np.ndarray, absolute_set, selected, lam: float) -> float:
    """logdet of the design matrix, computed from scratch via Cholesky, on
    the engines' `sample_coordinates`: no d x d matrix is formed when
    d is well above N."""
    y = sample_coordinates(x, lam)
    m = design_matrix(y, absolute_set, selected, lam)
    f = linalg.cholesky_factor(m)
    return 2.0 * float(np.sum(np.log(np.diag(f)))) + (x.shape[1] - y.shape[1]) * math.log(lam)
