"""Pairwise-comparison generative model, MAP fitting, AUC, and baselines.

Labels follow a logistic model on linear scores: an absolute label for
sample i is positive with probability sigmoid(beta . x_i / c_a), and a
comparison (i, j) favors i with probability sigmoid(beta . (x_i - x_j));
`SyntheticLabels` draws every synthetic label. MAP estimation of beta is
L2-regularized logistic regression over the stacked absolute and
difference covariates.

Pair margins are taken in score space: with s = X beta computed once over
the N samples, (x_i - x_j) . beta is s_i - s_j, so label draws and entropy
selection cost O(N d + |C|) time and memory over a pool C, never |C| x d
difference rows. So does the Fisher baseline, whose quadratic forms are
taken over the N samples in Gram form, as `fg` takes its gains.

Everything here runs on numpy alone. `expit` is the sigmoid of the label
draws and the baselines; the MAP loss takes its sigmoid from the softplus
that it already sums. numpy's exp and log may round the last bit otherwise
than the C library's, so `expit` may differ from scipy.special.expit by a
few ulp, each being within 2 ulp of the exact sigmoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .design import Pair, sample_coordinates
from .errors import DegenerateLabelSet, DivergentFit
from .greedy import factorization_gains, resolve_pool

_FISHER_RIDGE = 1e-6


def expit(x) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-x)), formed in place in one new array.

    Below x = -709.78, exp(-x) overflows to inf and the result is exactly 0,
    as scipy.special.expit gives; that overflow is expected, so it is silenced.
    """
    out = np.negative(x, out=np.empty(np.shape(x)))
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _xlogx(p: np.ndarray) -> np.ndarray:
    """p log p, with its limit 0 at p = 0."""
    out = np.zeros_like(p)
    np.log(p, out=out, where=p > 0)
    out *= p
    return out


@dataclass
class LabeledData:
    """Observed labels: (index, label) for absolute, (pair, label) for comparisons."""

    absolute: list[tuple[int, int]] = field(default_factory=list)
    comparisons: list[tuple[Pair, int]] = field(default_factory=list)


@dataclass
class FitResult:
    beta: np.ndarray
    final_loss: float
    grad_norm: float
    iterations: int
    converged: bool


def sample_synthetic(
    n: int,
    d: int,
    sigma_x: float = 1.0,
    sigma_beta: float = 1.0,
    c_a: float = 1.2,
    seed: int | tuple = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian features and the true parameter vector."""
    if not all(0 < v < math.inf for v in (sigma_x, sigma_beta, c_a)):
        raise ValueError("scale parameters must be positive and finite")
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, sigma_x, size=(n, d))
    beta_true = rng.normal(0.0, sigma_beta, size=d)
    return x, beta_true


class SyntheticLabels:
    """Label table: each label is a pure function of its index, never of query order.

    A label is positive where its uniform falls below the model probability.
    The generator draws one uniform per sample at construction, then one per
    pair of the lexicographic pair universe at the first `comparisons()` call.
    """

    def __init__(self, x: np.ndarray, beta_true: np.ndarray, c_a: float, seed: int | tuple):
        self._x = x
        self._beta = beta_true
        self._c_a = c_a
        self._scores = x @ beta_true
        self._rng = np.random.default_rng(seed)
        self._u_abs = self._rng.random(x.shape[0])
        self._u_cmp = None

    def absolute(self, indices) -> list[tuple[int, int]]:
        idx = np.asarray(list(indices), dtype=np.intp)
        p = expit(self._x[idx] @ (self._beta / self._c_a))
        return [(int(i), 1 if self._u_abs[i] < pi else -1) for i, pi in zip(idx, p)]

    def comparisons(self, i: np.ndarray, j: np.ndarray) -> list[tuple[Pair, int]]:
        """Labels of the pairs (i[e], j[e]), each with i[e] < j[e]."""
        n = self._x.shape[0]
        if self._u_cmp is None:
            self._u_cmp = self._rng.random(n * (n - 1) // 2)
        p = expit(self._scores[i] - self._scores[j])
        # position of (i, j) in the lexicographic pair universe
        lin = i * (2 * n - i - 1) // 2 + (j - i - 1)
        y = np.where(self._u_cmp[lin] < p, 1, -1)
        return list(zip(zip(i.tolist(), j.tolist()), y.tolist()))


def _signed_covariates(x: np.ndarray, data: LabeledData) -> np.ndarray:
    """Rows y * x_i and y * (x_i - x_j); the loss only sees these."""
    ia, ya = np.asarray(data.absolute, dtype=np.intp).reshape(-1, 2).T
    ci, cj, yc = np.asarray([(i, j, y) for (i, j), y in data.comparisons], dtype=np.intp).reshape(-1, 3).T
    return np.concatenate([ya[:, None] * x[ia], yc[:, None] * (x[ci] - x[cj])])


def _loss_and_grad(beta: np.ndarray, signed: np.ndarray, lam: float):
    neg_margins = -(signed @ beta)
    softplus = np.logaddexp(0.0, neg_margins)
    loss = lam * float(beta @ beta) + float(softplus.sum())
    # sigmoid(-m) = exp(-m - softplus(-m)), from the softplus the loss sums
    sigmoid = np.exp(np.subtract(neg_margins, softplus, out=neg_margins), out=neg_margins)
    grad = 2.0 * lam * beta - signed.T @ sigmoid
    return loss, grad


def map_fit(
    x: np.ndarray,
    data: LabeledData,
    lam: float,
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> FitResult:
    """Deterministic gradient descent with backtracking line search.

    The loss is strictly convex for a positive, finite lam, so the minimizer is unique;
    convergence is declared on the gradient norm. A step that leaves the loss
    non-finite, as features of overflowing scale do, raises `DivergentFit`.
    """
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    signed = _signed_covariates(x, data)
    beta = np.zeros(x.shape[1])
    loss, grad = _loss_and_grad(beta, signed, lam)
    step = 1.0
    iterations = 0
    # np.linalg.norm's own formula for a vector, without its call overhead
    grad_norm = math.sqrt(grad.dot(grad))
    while iterations < max_iter and grad_norm > tol:
        # Armijo backtracking; the step carries over and is allowed to grow.
        while True:
            cand = beta - step * grad
            cand_loss, cand_grad = _loss_and_grad(cand, signed, lam)
            if cand_loss <= loss - 1e-4 * step * grad_norm**2 or step < 1e-20:
                break
            step *= 0.5
        if not math.isfinite(cand_loss):
            raise DivergentFit(f"MAP fit loss reached {cand_loss} at iteration {iterations + 1}")
        beta, loss, grad = cand, cand_loss, cand_grad
        grad_norm = math.sqrt(grad.dot(grad))
        step *= 2.0
        iterations += 1
    return FitResult(
        beta=beta,
        final_loss=loss,
        grad_norm=grad_norm,
        iterations=iterations,
        converged=grad_norm <= tol,
    )


def auc(scores, labels) -> float:
    """Mann-Whitney AUC with half credit for tied scores."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = labels == 1
    neg = labels == -1
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelSet("need at least one positive and one negative label")
    # twice the U statistic: each negative below a positive counts 2, a tie 1
    negatives = np.sort(scores[neg])
    twice_u = int(np.searchsorted(negatives, scores[pos], "left").sum()
                  + np.searchsorted(negatives, scores[pos], "right").sum())
    return float(twice_u / 2.0 / (n_pos * n_neg))


def _pairs(i: np.ndarray, j: np.ndarray, picks) -> list[Pair]:
    return list(zip(i[picks].tolist(), j[picks].tolist()))


def entropy_select(x: np.ndarray, beta_hat: np.ndarray, k: int, pool) -> list[Pair]:
    """Top-k pairs of `pool` by Bernoulli label entropy under the fitted model.

    The pool is read by `greedy.resolve_pool`. The entropy objective is modular, so the greedy optimum is an exact
    top-k sort; ties resolve to lexicographically smaller pairs.
    """
    i, j = resolve_pool(x.shape[0], pool, k)
    scores = x @ beta_hat
    p = expit(scores[i] - scores[j])
    entropy = -(_xlogx(p) + _xlogx(1.0 - p))
    # the pool is in lexicographic order, so a stable sort breaks ties by pair
    order = np.argsort(-entropy, kind="stable")
    return _pairs(i, j, order[:k])


def fisher_select(x: np.ndarray, beta_hat: np.ndarray, k: int, pool) -> list[Pair]:
    """Greedy maximization of the Fisher trace objective -trace(I_q^-1 I_p).

    I_p and I_q average w_e u_e u_e^T over the pool and the selection, plus a
    ridge, with u_e = x_i - x_j and w_e = p_e (1 - p_e) = sigmoid(m_e) sigmoid(-m_e)
    at margin m_e. At pick t, pair e makes I_q = B + c u_e u_e^T, c = w_e / (t + 1),
    so by Sherman-Morrison a pick ranks the pool by w_e g_e / (t + 1 + w_e h_e),
    where h_e and g_e are u_e's quadratic forms under B^-1 and B^-1 I_p B^-1.
    Off the row space of X, B and I_p are both the ridge, so the forms run on
    the engines' `design.sample_coordinates`, with the same values.
    """
    i, j = resolve_pool(len(x), pool, k)
    s = x @ beta_hat
    w = expit(s[i] - s[j]) * expit(s[j] - s[i])
    x = sample_coordinates(x, _FISHER_RIDGE)
    # I_p = X^T L X over the pool's graph Laplacian L, with edge weights w
    lap = np.zeros((len(x), len(x)))
    lap[i, j] = lap[j, i] = -w
    np.fill_diagonal(lap, -lap.sum(axis=1))
    ridge = _FISHER_RIDGE * np.eye(x.shape[1])
    i_p = x.T @ (lap @ x) / len(i) + ridge
    accum = np.zeros_like(ridge)
    picks = np.zeros(k, dtype=np.intp)
    for t in range(k):
        b_inv = linalg.invert_spd(accum / (t + 1) + ridge)
        h, g = (factorization_gains(x, z, np.einsum("nd,nd->n", x, z), i, j)
                for z in (x @ b_inv, x @ (b_inv @ i_p @ b_inv)))
        score = w * g / (t + 1 + w * h)
        score[picks[:t]] = -np.inf
        picks[t] = best = int(np.argmax(score))
        u = x[i[best]] - x[j[best]]
        accum += w[best] * np.outer(u, u)
    return _pairs(i, j, picks)


def random_select(n: int, k: int, pool, seed: int | tuple) -> list[Pair]:
    """Uniform sample without replacement from `pool` over `n` samples, deterministic per seed."""
    i, j = resolve_pool(n, pool, k)
    rng = np.random.default_rng(seed)
    return _pairs(i, j, np.sort(rng.choice(len(i), size=k, replace=False)))
