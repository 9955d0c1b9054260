import math
import re
from itertools import combinations

import numpy as np
import pytest

from pairdesign import design

import oracles
from conftest import pair_list, random_instance

# 4x2 instance with A = {0}, S = [(0,1), (2,3)], lambda = 0.1; logdet
# computed independently via slogdet of the assembled matrix.
ORACLE_X = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.0], [-1.0, 1.0]])
ORACLE_LOGDET = 4.9814467566315805


def slogdet_objective(x, absolute_set, selected, lam):
    """Independent objective route: assemble and call slogdet."""
    d = x.shape[1]
    m = lam * np.eye(d)
    for i in absolute_set:
        m += np.outer(x[i], x[i])
    for i, j in selected:
        diff = x[i] - x[j]
        m += np.outer(diff, diff)
    sign, val = np.linalg.slogdet(m)
    assert sign > 0
    return val


def test_pair_arrays():
    assert pair_list(1) == []
    assert pair_list(3) == [(0, 1), (0, 2), (1, 2)]
    pairs = pair_list(9)
    assert len(pairs) == 36
    assert pairs == sorted(pairs)
    # built from row offsets, with the values and dtype of triu_indices
    for n in (0, 1, 2, 3, 50, 80):
        for mine, theirs in zip(design.pair_arrays(n), np.triu_indices(n, 1)):
            assert mine.dtype == theirs.dtype, n
            assert np.array_equal(mine, theirs), n


def test_pair_arrays_match_nested_loops():
    assert pair_list(7) == [(i, j) for i in range(7) for j in range(i + 1, 7)]


def test_comparison_feature():
    assert np.array_equal(design.comparison_feature(ORACLE_X, (0, 1)), [0.5, 3.0])
    with pytest.raises(IndexError):
        design.comparison_feature(ORACLE_X, (0, 4))


@pytest.mark.parametrize("pair", [(2, 2), (1.5, 2), (-1, 2), (0, 4), (3, 1)])
def test_a_selected_pair_outside_the_pool_rule_is_named(pair):
    # the rule of `greedy.resolve_pool`: integers with 0 <= i < j < N (N = 4)
    message = re.escape(f"pair {pair} is not (i, j) with 0 <= i < j < 4")
    with pytest.raises(IndexError, match=message):
        design.objective_value(ORACLE_X, [0], [(0, 1), pair], 0.1)
    with pytest.raises(IndexError, match=message):
        design.design_matrix(ORACLE_X, [0], [pair], 0.1)


def test_an_integer_array_selection_gives_the_pair_list_objective():
    listed = design.objective_value(ORACLE_X, [0], [(0, 1), (2, 3)], 0.1)
    for dtype in (np.int64, np.int32, np.intp):
        selected = np.array([[0, 1], [2, 3]], dtype=dtype)
        assert design.objective_value(ORACLE_X, [0], selected, 0.1).hex() == listed.hex(), dtype
    assert abs(listed - ORACLE_LOGDET) <= 1e-12


def test_objective_value_oracle():
    value = design.objective_value(ORACLE_X, [0], [(0, 1), (2, 3)], 0.1)
    assert abs(value - ORACLE_LOGDET) <= 1e-12


def test_objective_value_matches_slogdet():
    x, absolute_set = random_instance(7, n=20, d=6)
    selected = [(0, 3), (1, 8), (2, 19)]
    mine = design.objective_value(x, absolute_set, selected, 1e-4)
    theirs = slogdet_objective(x, absolute_set, selected, 1e-4)
    assert abs(mine - theirs) <= 1e-10


@pytest.mark.parametrize("lam", [1e-8, 1e-4, 1.0, 1e4])
@pytest.mark.parametrize("n,d", [(2, 5), (6, 9), (12, 30)])
def test_objective_value_at_d_above_n_matches_an_exact_logdet(n, d, lam):
    # at 2 d >= 3 N the objective is logdet(lambda I_N + B) on the samples'
    # row-space coordinates plus (d - N) log lambda: within 1e-12 relative
    # of the exact value at every lambda. The d x d Cholesky logdet it
    # replaces is not: at lambda 1e-8 its d - N eigenvalues at lambda carry
    # errors of about 1e-9 relative into the sum
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, d))
    # every sample labelled: the design spans the row space at every lambda
    absolute_set = list(range(n))
    pairs = pair_list(n)
    selected = [pairs[t] for t in rng.choice(len(pairs), size=min(4, len(pairs)), replace=False)]
    exact = oracles.objective_exact(x, absolute_set, selected, lam)
    value = design.objective_value(x, absolute_set, selected, lam)
    assert abs(value - exact) <= 1e-12 * abs(exact)


def test_marginal_gain_matches_logdet_difference():
    x, absolute_set = random_instance(11, n=15, d=5)
    lam = 1e-4
    state = oracles.init_state(x, absolute_set, lam)
    selected = []
    for e in [(0, 4), (2, 9), (7, 12)]:
        before = slogdet_objective(x, absolute_set, selected, lam)
        gain = oracles.marginal_gain_exact(state, x, e)
        after = slogdet_objective(x, absolute_set, selected + [e], lam)
        assert abs(gain - (after - before)) <= 1e-8
        oracles.add_pair(state, x, e)
        selected.append(e)


def test_proxy_and_exact_share_argmax():
    x, absolute_set = random_instance(3, n=12, d=4)
    state = oracles.init_state(x, absolute_set, 1e-4)
    pool = pair_list(12)
    proxy = [oracles.proxy_gain(state, x, e) for e in pool]
    exact = [oracles.marginal_gain_exact(state, x, e) for e in pool]
    assert int(np.argmax(proxy)) == int(np.argmax(exact))
    for p, g in zip(proxy, exact):
        assert abs(g - math.log1p(p)) <= 1e-12


def test_add_pair_tracks_direct_inverse():
    x, absolute_set = random_instance(5, n=10, d=4)
    lam = 1e-2
    state = oracles.init_state(x, absolute_set, lam)
    for e in [(0, 1), (3, 7), (2, 9)]:
        oracles.add_pair(state, x, e)
    direct = np.linalg.inv(design.design_matrix(x, absolute_set, state.selected, lam))
    assert np.max(np.abs(state.ainv - direct)) <= 1e-10
    oracles.refresh_state(state, x)
    assert np.max(np.abs(state.ainv - direct)) <= 1e-12


def test_add_pair_rejects_duplicates():
    x, absolute_set = random_instance(5, n=6, d=3)
    state = oracles.init_state(x, absolute_set, 1e-4)
    oracles.add_pair(state, x, (1, 2))
    with pytest.raises(oracles.AlreadySelected):
        oracles.add_pair(state, x, (1, 2))
    with pytest.raises(oracles.AlreadySelected):
        oracles.proxy_gain(state, x, (1, 2))


def test_init_design_rejects_nonpositive_lambda():
    x, absolute_set = random_instance(5, n=6, d=3)
    with pytest.raises(ValueError):
        design.init_design(x, absolute_set, 0.0)


def test_init_design_rejects_nonfinite_lambda():
    x, absolute_set = random_instance(5, n=6, d=3)
    for lam in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            design.init_design(x, absolute_set, lam)


@pytest.mark.parametrize("bad", [-1, 6, 1.5, np.int64(-2)])
def test_absolute_indices_must_be_samples(bad):
    x, absolute_set = random_instance(5, n=6, d=3)
    message = f"absolute index {bad} is not an integer in 0..5"
    with pytest.raises(ValueError, match=message):
        design.init_design(x, [*absolute_set, bad], 1e-4)
    with pytest.raises(ValueError, match=message):
        design.objective_value(x, [bad, *absolute_set], [(0, 1)], 1e-4)
    # numpy integers are sample indices too
    design.init_design(x, np.asarray(absolute_set), 1e-4)


def test_brute_force_matches_independent_enumeration():
    x, absolute_set = random_instance(13, n=6, d=3)
    lam = 1e-4
    k = 2
    pool = pair_list(6)
    best_val = -np.inf
    best = None
    for subset in combinations(pool, k):
        val = slogdet_objective(x, absolute_set, subset, lam)
        if val > best_val:
            best_val = val
            best = list(subset)
    assert oracles.brute_force_select(x, absolute_set, k, lam) == best


def test_brute_force_guard():
    x, absolute_set = random_instance(17, n=60, d=3)
    with pytest.raises(oracles.InstanceTooLarge):
        oracles.brute_force_select(x, absolute_set, 10, 1e-4)
