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
difference rows. The Fisher baseline keeps its difference rows, which its
information matrices need.

scipy.special (`expit`, `xlogy`) is imported by the functions that use it,
at their first call, so importing pairdesign or running a design engine
loads no scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .design import Pair
from .errors import DegenerateLabelSet, InstanceTooLarge
from .greedy import resolve_pool

_FISHER_POOL_LIMIT = 10_000


@dataclass
class ModelParams:
    beta: np.ndarray
    lam: float


@dataclass
class LabeledData:
    """Observed labels: (index, label) for absolute, (pair, label) for comparisons."""

    absolute: list[tuple[int, int]] = field(default_factory=list)
    comparisons: list[tuple[Pair, int]] = field(default_factory=list)


@dataclass
class FitResult:
    params: ModelParams
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
    if min(sigma_x, sigma_beta, c_a) <= 0:
        raise ValueError("scale parameters must be positive")
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
        from scipy.special import expit

        idx = np.asarray(list(indices), dtype=np.intp)
        p = expit(self._x[idx] @ (self._beta / self._c_a))
        return [(int(i), 1 if self._u_abs[i] < pi else -1) for i, pi in zip(idx, p)]

    def comparisons(self, i: np.ndarray, j: np.ndarray) -> list[tuple[Pair, int]]:
        """Labels of the pairs (i[e], j[e]), each with i[e] < j[e]."""
        from scipy.special import expit

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


def _loss_and_grad(beta: np.ndarray, signed: np.ndarray, lam: float, expit):
    margins = signed @ beta
    loss = lam * float(beta @ beta) + float(np.sum(np.logaddexp(0.0, -margins)))
    grad = 2.0 * lam * beta - signed.T @ expit(-margins)
    return loss, grad


def nll_loss(params: ModelParams, x: np.ndarray, data: LabeledData) -> float:
    """Regularized negative log-likelihood of the observed labels."""
    from scipy.special import expit

    signed = _signed_covariates(x, data)
    loss, _ = _loss_and_grad(params.beta, signed, params.lam, expit)
    return loss


def nll_gradient(params: ModelParams, x: np.ndarray, data: LabeledData) -> np.ndarray:
    """Analytic gradient of nll_loss with respect to beta."""
    from scipy.special import expit

    signed = _signed_covariates(x, data)
    _, grad = _loss_and_grad(params.beta, signed, params.lam, expit)
    return grad


def map_fit(
    x: np.ndarray,
    data: LabeledData,
    lam: float,
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> FitResult:
    """Deterministic gradient descent with backtracking line search.

    The loss is strictly convex for lam > 0, so the minimizer is unique;
    convergence is declared on the gradient norm.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    from scipy.special import expit

    signed = _signed_covariates(x, data)
    beta = np.zeros(x.shape[1])
    loss, grad = _loss_and_grad(beta, signed, lam, expit)
    step = 1.0
    iterations = 0
    grad_norm = float(np.linalg.norm(grad))
    while iterations < max_iter and grad_norm > tol:
        # Armijo backtracking; the step carries over and is allowed to grow.
        while True:
            cand = beta - step * grad
            cand_loss, cand_grad = _loss_and_grad(cand, signed, lam, expit)
            if cand_loss <= loss - 1e-4 * step * grad_norm**2 or step < 1e-20:
                break
            step *= 0.5
        beta, loss, grad = cand, cand_loss, cand_grad
        grad_norm = float(np.linalg.norm(grad))
        step *= 2.0
        iterations += 1
    return FitResult(
        params=ModelParams(beta=beta, lam=lam),
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
    from scipy.special import expit, xlogy

    i, j = resolve_pool(x.shape[0], pool, k)
    scores = x @ beta_hat
    p = expit(scores[i] - scores[j])
    entropy = -(xlogy(p, p) + xlogy(1.0 - p, 1.0 - p))
    # the pool is in lexicographic order, so a stable sort breaks ties by pair
    order = np.argsort(-entropy, kind="stable")
    return _pairs(i, j, order[:k])


def fisher_information_objective(
    x: np.ndarray,
    beta_hat: np.ndarray,
    selected: list[Pair],
    pool: list[Pair],
    ridge: float = 1e-6,
) -> float:
    """-trace(I_q(S)^-1 I_p) for the pool-wide and selected Fisher matrices."""
    d = x.shape[1]
    i_p = _fisher_matrix(x, beta_hat, pool, ridge)
    if selected:
        i_q = _fisher_matrix(x, beta_hat, selected, ridge)
    else:
        i_q = ridge * np.eye(d)
    return -float(np.trace(np.linalg.solve(i_q, i_p)))


def _fisher_matrix(x, beta_hat, pairs, ridge):
    from scipy.special import expit

    arr = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    diffs = x[arr[:, 0]] - x[arr[:, 1]]
    p = expit(diffs @ beta_hat)
    w = p * (1.0 - p)
    return (diffs * w[:, None]).T @ diffs / len(arr) + ridge * np.eye(x.shape[1])


def fisher_select(
    x: np.ndarray,
    beta_hat: np.ndarray,
    k: int,
    pool,
    ridge: float = 1e-6,
) -> list[Pair]:
    """Greedy maximization of the Fisher information trace objective."""
    from scipy.special import expit

    i, j = resolve_pool(x.shape[0], pool, k)
    if len(i) > _FISHER_POOL_LIMIT:
        raise InstanceTooLarge(f"fisher pool {len(i)} exceeds {_FISHER_POOL_LIMIT}")
    d = x.shape[1]
    diffs = x[i] - x[j]
    p = expit(diffs @ beta_hat)
    w = p * (1.0 - p)
    eye = ridge * np.eye(d)
    i_p = (diffs * w[:, None]).T @ diffs / len(i) + eye
    accum = np.zeros((d, d))
    chosen: list[int] = []
    for _ in range(k):
        best_idx = -1
        best_val = -np.inf
        for idx in range(len(i)):
            if idx in chosen:
                continue
            m = (accum + w[idx] * np.outer(diffs[idx], diffs[idx])) / (len(chosen) + 1) + eye
            val = -float(np.trace(np.linalg.solve(m, i_p)))
            if val > best_val:
                best_val = val
                best_idx = idx
        chosen.append(best_idx)
        accum += w[best_idx] * np.outer(diffs[best_idx], diffs[best_idx])
    return _pairs(i, j, chosen)


def random_select(n: int, k: int, pool, seed: int | tuple) -> list[Pair]:
    """Uniform sample without replacement from `pool` over `n` samples, deterministic per seed."""
    i, j = resolve_pool(n, pool, k)
    rng = np.random.default_rng(seed)
    return _pairs(i, j, np.sort(rng.choice(len(i), size=k, replace=False)))
