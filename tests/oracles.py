"""Reference implementations that the tests hold the package to.

Slow, direct routes to what the engines and the model compute fast: an
explicit inverse design matrix advanced one pair at a time, exhaustive
selection, the objective in exact rational arithmetic, the MAP loss and its
gradient, the Fisher trace objective and its greedy selection by one solve
per candidate, and an eager search that keeps every iteration's gains. The
package never calls them.
"""

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.special import expit

from pairdesign import bench, design, greedy, linalg, model
from pairdesign.design import Pair
from pairdesign.errors import PairDesignError

# Guard for brute-force enumeration: C(|pool|, K) at most this many subsets.
_BRUTE_FORCE_LIMIT = 1_000_000


class AlreadySelected(PairDesignError):
    """A candidate pair is already part of the selected set."""


class InstanceTooLarge(PairDesignError):
    """Problem size exceeds a guard meant for exhaustive computation."""


@dataclass
class DesignState:
    """Inverse design matrix of the selected set, and what it is built from.

    `ainv` is advanced by rank-one downdates (`add_pair`) and rebuilt from
    scratch by `refresh_state`.
    """

    ainv: np.ndarray
    lam: float
    absolute_set: list[int]
    selected: list[Pair] = field(default_factory=list)


def init_state(x: np.ndarray, absolute_set, lam: float) -> DesignState:
    """State with S empty, from the engines' A_0^-1 (`design.init_design`)."""
    return DesignState(design.init_design(x, absolute_set, lam), lam, list(absolute_set))


def proxy_gain(state: DesignState, x: np.ndarray, e: Pair) -> float:
    """Quadratic form x_e^T A^-1 x_e; shares its argmax with the exact gain."""
    if e in state.selected:
        raise AlreadySelected(f"pair {e} already selected")
    xe = design.comparison_feature(x, e)
    return float(xe @ state.ainv @ xe)


def marginal_gain_exact(state: DesignState, x: np.ndarray, e: Pair) -> float:
    """Objective increase from adding e, via the matrix determinant lemma."""
    return math.log1p(proxy_gain(state, x, e))


def add_pair(state: DesignState, x: np.ndarray, e: Pair) -> None:
    """Select e and downdate the inverse in place."""
    if e in state.selected:
        raise AlreadySelected(f"pair {e} already selected")
    xe = design.comparison_feature(x, e)
    state.ainv = linalg.sherman_morrison_downdate(state.ainv, xe)
    state.selected.append(e)


def refresh_state(state: DesignState, x: np.ndarray) -> None:
    """Recompute ainv from scratch; clears rank-one update drift."""
    m = design.design_matrix(x, state.absolute_set, state.selected, state.lam)
    state.ainv = linalg.invert_spd(m)


def brute_force_select(x: np.ndarray, absolute_set, k: int, lam: float, pool=None) -> list[Pair]:
    """Exhaustive optimum over all size-k subsets of `pool` (see `greedy.resolve_pool`).

    Ties are broken toward the lexicographically smallest sorted pair list;
    enumerating `combinations` of a sorted pool with strict improvement gives
    exactly that rule.
    """
    i, j = greedy.resolve_pool(x.shape[0], pool, k)
    if math.comb(len(i), k) > _BRUTE_FORCE_LIMIT:
        raise InstanceTooLarge(
            f"C({len(i)}, {k}) subsets exceed the {_BRUTE_FORCE_LIMIT} guard"
        )
    best_value = -math.inf
    best: tuple[Pair, ...] = ()
    for subset in combinations(zip(i.tolist(), j.tolist()), k):
        value = design.objective_value(x, absolute_set, subset, lam)
        if value > best_value:
            best_value = value
            best = subset
    return list(best)


def objective_exact(x: np.ndarray, absolute_set, selected, lam: float) -> float:
    """The objective of `selected`, exact in rationals on the float64 rows
    up to the final logarithms.

    With R the m design rows, logdet(lambda I_d + R^T R) equals
    (d - m) log lambda + logdet(lambda I_m + R R^T), whose determinant is
    taken by exact elimination on m x m rationals.
    """
    features = [[Fraction(v) for v in row] for row in x.tolist()]
    rows = [features[i] for i in absolute_set]
    rows += [[a - b for a, b in zip(features[i], features[j])] for i, j in selected]
    lam_q = Fraction(lam)
    m = len(rows)
    gram = [[(lam_q if p == q else 0) + sum(a * b for a, b in zip(rows[p], rows[q])) for q in range(m)]
            for p in range(m)]
    det = Fraction(1)
    for c in range(m):
        det *= gram[c][c]
        for r in range(c + 1, m):
            f = gram[r][c] / gram[c][c]
            gram[r] = [a - f * b for a, b in zip(gram[r], gram[c])]

    def log(q: Fraction) -> float:
        return math.log(q.numerator) - math.log(q.denominator)

    return log(det) + (x.shape[1] - m) * log(lam_q)


class RecordingSearch(greedy.EagerSearch):
    """The eager search, keeping a copy of each iteration's gains in
    `gain_arrays`, -inf at the pairs already selected."""

    def start(self, oracle) -> None:
        super().start(oracle)
        self.gain_arrays = []
        refresh = oracle.refresh

        def kept(b, it):
            self._gains = refresh(b, it)
            return self._gains

        oracle.refresh = kept

    def pick(self, oracle, it: int) -> tuple[int, float]:
        best, gain = super().pick(oracle, it)
        self.gain_arrays.append(self._gains.copy())
        return best, gain


def eager_gain_arrays(tag: str, x: np.ndarray, absolute_set, k: int, lam: float, pool=None):
    """Run the eager engine `tag` through a `RecordingSearch`: its trace, and
    every iteration's gains."""
    search = RecordingSearch()
    trace = replace(bench.ENGINES[tag], search=lambda: search)(x, absolute_set, k, lam, pool)
    return trace, search.gain_arrays


def nll_loss(beta: np.ndarray, lam: float, x: np.ndarray, data: model.LabeledData) -> float:
    """Regularized negative log-likelihood of the observed labels, through
    the loss that `model.map_fit` minimises."""
    signed = model._signed_covariates(x, data)
    loss, _ = model._loss_and_grad(beta, signed, lam)
    return loss


def nll_gradient(beta: np.ndarray, lam: float, x: np.ndarray, data: model.LabeledData) -> np.ndarray:
    """Analytic gradient of nll_loss with respect to beta, the one that
    `model.map_fit` descends."""
    signed = model._signed_covariates(x, data)
    _, grad = model._loss_and_grad(beta, signed, lam)
    return grad


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


def fisher_prefix_objectives_exact(x: np.ndarray, beta_hat: np.ndarray, selected: list[Pair],
                                   pool: list[Pair]) -> list[float]:
    """fisher_information_objective of each non-empty prefix of `selected`,
    in exact rational arithmetic on the same float64 rows and weights.

    It is free of the rounding of the float solve, whose error grows with
    the condition of I_q: at a prefix of fewer than d pairs, I_q is close
    to the ridge, and two selections whose exact objectives agree to 1e-16
    can differ there by 1e-10 in float64.
    """
    d = x.shape[1]

    def weighted_sum(pairs):
        arr = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        diffs = x[arr[:, 0]] - x[arr[:, 1]]
        p = expit(diffs @ beta_hat)
        total = [[Fraction(0)] * d for _ in range(d)]
        for u, w in zip(diffs.tolist(), (p * (1.0 - p)).tolist()):
            wu = [Fraction(w) * Fraction(v) for v in u]
            for a in range(d):
                for b in range(d):
                    total[a][b] += wu[a] * Fraction(u[b])
        return total

    def averaged(total, count):
        ridge = Fraction(model._FISHER_RIDGE)
        return [[total[a][b] / count + (ridge if a == b else 0) for b in range(d)] for a in range(d)]

    i_p = averaged(weighted_sum(pool), len(pool))
    values = []
    for t in range(1, len(selected) + 1):
        # Gauss-Jordan on [I_q | I_p] leaves I_q^-1 I_p on the right
        rows = [q + p for q, p in zip(averaged(weighted_sum(selected[:t]), t), i_p)]
        for c in range(d):
            pivot = next(r for r in range(c, d) if rows[r][c] != 0)
            rows[c], rows[pivot] = rows[pivot], rows[c]
            for r in range(d):
                if r != c and rows[r][c] != 0:
                    f = rows[r][c] / rows[c][c]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
        values.append(float(-sum(rows[r][d + r] / rows[r][r] for r in range(d))))
    return values


def _fisher_matrix(x, beta_hat, pairs, ridge):
    arr = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    diffs = x[arr[:, 0]] - x[arr[:, 1]]
    p = expit(diffs @ beta_hat)
    w = p * (1.0 - p)
    return (diffs * w[:, None]).T @ diffs / len(arr) + ridge * np.eye(x.shape[1])


def fisher_select_loop(x: np.ndarray, beta_hat: np.ndarray, k: int, pool) -> list[Pair]:
    """Greedy maximization of the Fisher information trace objective, the
    direct way: one d x d solve per candidate per pick, over |C| x d
    difference rows."""
    ridge = model._FISHER_RIDGE
    i, j = greedy.resolve_pool(x.shape[0], pool, k)
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
    return model._pairs(i, j, chosen)
