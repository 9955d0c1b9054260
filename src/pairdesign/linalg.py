"""Dense SPD linear algebra kernels shared by every selection engine.

All routines operate on plain numpy arrays and need nothing beyond numpy.
Every inverse the engines carry is exactly symmetric, bit for bit.
`invert_spd` makes it so: it forms F^-T F^-1 from the inverse of the
Cholesky factor F, whose product need not be exactly symmetric, so it is
symmetrized. The rank-one downdates keep it so without help: entries (i, j)
and (j, i) of v v^T are the same IEEE product v_i * v_j, and every further
step is elementwise. Symmetrizing a downdate would change no bit, so the
downdates skip it. `design.design_matrix` also symmetrizes, because the exact
symmetry of `xa.T @ xa` depends on which BLAS routine numpy picks for it.

The scalar-update engines keep the same chain in product form,
A^-1 = A_0^-1 - V^T V, and write no d x d matrix after preprocessing:
`update_vector` forms each new vector from A_0^-1 and the earlier rows of V.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateUpdate, NotPositiveDefinite

# Largest order `_lower_inverse` hands to one LAPACK call instead of halving.
_TRIANGULAR_BLOCK = 32

# Denominator 1 + x^T A^-1 x is positive for SPD state; anything at or below
# this threshold signals corrupted state rather than a legitimate update.
_DEGENERATE_TOL = 1e-14


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Average a matrix with its transpose."""
    return (m + m.T) * 0.5


def cholesky_factor(m: np.ndarray) -> np.ndarray:
    """Lower-triangular F with F @ F.T = m.

    Raises NotPositiveDefinite when a pivot is non-positive or the factor is
    not finite, as LAPACK takes an infinite pivot from an overflowed m.
    """
    try:
        f = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    if not np.isfinite(f).all():
        raise NotPositiveDefinite("Matrix is not positive definite: its factor is not finite")
    return f


def gram_factor(m: np.ndarray) -> np.ndarray:
    """Upper-triangular U with U.T @ U = m.

    Applied to the inverse design matrix: with U in hand, the quadratic form
    x^T m x equals ||U x||^2.
    """
    return cholesky_factor(m).T.copy()


def invert_spd(m: np.ndarray) -> np.ndarray:
    """Invert an SPD matrix as F^-T F^-1, where F is its Cholesky factor.

    Raises NotPositiveDefinite when the factorization fails or its factor
    cannot be inverted.
    """
    f = cholesky_factor(m)
    try:
        f_inv = _lower_inverse(f)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    return symmetrize(f_inv.T @ f_inv)


def _lower_inverse(f: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, by halves.

    With f = [[a, 0], [c, e]], the inverse is [[a^-1, 0], [-e^-1 c a^-1, e^-1]].
    numpy has no triangular inverse, and its general one ignores the zeros:
    by halves, most of the work runs as matrix products instead.
    """
    d = f.shape[0]
    if d <= _TRIANGULAR_BLOCK:
        return np.linalg.inv(f)
    h = d // 2
    a_inv = _lower_inverse(f[:h, :h])
    e_inv = _lower_inverse(f[h:, h:])
    out = np.zeros_like(f)
    out[:h, :h] = a_inv
    out[h:, h:] = e_inv
    out[h:, :h] = -(e_inv @ f[h:, :h]) @ a_inv
    return out


def _update_denominator(ainv: np.ndarray, x: np.ndarray,
                        earlier: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """a = A^-1 x and the denominator 1 + x^T a of the update by x, which
    must be positive and finite.

    With `earlier`, A^-1 is in product form: `ainv` is A_0^-1 and `earlier`
    the (t, d) block V of the update vectors since, so a = A_0^-1 x - V^T (V x).
    """
    ax = ainv @ x
    if earlier is not None:
        # np.dot skips matmul's per-call set-up, most of the cost at small d
        ax -= np.dot(earlier.dot(x), earlier)
    denom = 1.0 + float(x @ ax)
    # NaN fails both comparisons, so a non-finite denominator raises as well
    if not _DEGENERATE_TOL < denom < math.inf:
        raise DegenerateUpdate(f"1 + x^T A^-1 x = {denom!r}; inverse state is corrupted or x is too large")
    return ax, denom


def sherman_morrison_downdate(ainv: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Return (A + x x^T)^-1 given A^-1, via the Sherman-Morrison formula.

    `ainv` is left unchanged. The result is ainv - (ax ax^T) / denom, rounded
    step for step as that expression but built in one scratch buffer.
    """
    ax, denom = _update_denominator(ainv, x)
    out = np.multiply.outer(ax, ax)
    out /= denom
    return np.subtract(ainv, out, out=out)


def update_vector(ainv: np.ndarray, x: np.ndarray, earlier: np.ndarray | None = None) -> np.ndarray:
    """Vector v with A^-1 - v v^T = (A + x x^T)^-1, with A^-1 given as for
    `_update_denominator`.

    The scalar-update engines reuse v: its inner products with the sample
    features drive the O(1)-per-pair gain downdates.
    """
    ax, denom = _update_denominator(ainv, x, earlier)
    return ax / math.sqrt(denom)
