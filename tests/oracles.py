"""Reference implementations that the tests hold the package to.

Slow, direct routes to what the engines and the model compute fast: an
explicit inverse design matrix advanced one pair at a time, exhaustive
selection, the MAP loss and its gradient, the Fisher trace objective, and
an eager search that keeps every iteration's gains. The package never
calls them.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np
from scipy.special import expit

from pairdesign import bench, design, greedy, linalg, model
from pairdesign.design import Pair
from pairdesign.errors import InstanceTooLarge, PairDesignError

# Guard for brute-force enumeration: C(|pool|, K) at most this many subsets.
_BRUTE_FORCE_LIMIT = 1_000_000


class AlreadySelected(PairDesignError):
    """A candidate pair is already part of the selected set."""


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


def nll_loss(params: model.ModelParams, x: np.ndarray, data: model.LabeledData) -> float:
    """Regularized negative log-likelihood of the observed labels, through
    the loss that `model.map_fit` minimises."""
    signed = model._signed_covariates(x, data)
    loss, _ = model._loss_and_grad(params.beta, signed, params.lam, expit)
    return loss


def nll_gradient(params: model.ModelParams, x: np.ndarray, data: model.LabeledData) -> np.ndarray:
    """Analytic gradient of nll_loss with respect to beta, the one that
    `model.map_fit` descends."""
    signed = model._signed_covariates(x, data)
    _, grad = model._loss_and_grad(params.beta, signed, params.lam, expit)
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


def _fisher_matrix(x, beta_hat, pairs, ridge):
    arr = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    diffs = x[arr[:, 0]] - x[arr[:, 1]]
    p = expit(diffs @ beta_hat)
    w = p * (1.0 - p)
    return (diffs * w[:, None]).T @ diffs / len(arr) + ridge * np.eye(x.shape[1])
