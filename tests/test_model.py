import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, xlogy
from scipy.stats import rankdata

from pairdesign import model
from pairdesign.errors import DegenerateLabelSet, InstanceTooLarge

from conftest import random_instance


def finite_difference_gradient(params, x, data, eps=1e-6):
    beta = params.beta
    grad = np.zeros_like(beta)
    for idx in range(beta.size):
        hi = beta.copy()
        lo = beta.copy()
        hi[idx] += eps
        lo[idx] -= eps
        f_hi = model.nll_loss(model.ModelParams(hi, params.lam), x, data)
        f_lo = model.nll_loss(model.ModelParams(lo, params.lam), x, data)
        grad[idx] = (f_hi - f_lo) / (2.0 * eps)
    return grad


def make_labeled(seed, n, d, n_abs=8, n_cmp=12):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    absolute = [(int(i), int(rng.choice([-1, 1]))) for i in rng.choice(n, n_abs, replace=False)]
    comparisons = []
    while len(comparisons) < n_cmp:
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        comparisons.append(((int(i), int(j)), int(rng.choice([-1, 1]))))
    return x, model.LabeledData(absolute, comparisons)


def test_gradient_matches_finite_differences():
    for seed in range(10):
        x, data = make_labeled(seed, n=25, d=6)
        rng = np.random.default_rng(seed + 100)
        params = model.ModelParams(rng.normal(size=6), lam=1e-2)
        analytic = model.nll_gradient(params, x, data)
        numeric = finite_difference_gradient(params, x, data)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert rel <= 1e-5


def test_loss_decomposition():
    # loss = penalty + sum of log(1 + exp(-y * margin)) per observation
    x, data = make_labeled(3, n=10, d=4, n_abs=2, n_cmp=2)
    beta = np.full(4, 0.3)
    expected = 1e-2 * float(beta @ beta)
    for i, y in data.absolute:
        expected += float(np.logaddexp(0.0, -y * (beta @ x[i])))
    for (i, j), y in data.comparisons:
        expected += float(np.logaddexp(0.0, -y * (beta @ (x[i] - x[j]))))
    got = model.nll_loss(model.ModelParams(beta, 1e-2), x, data)
    assert abs(got - expected) <= 1e-12


def test_map_fit_converges_and_minimizes():
    x, data = make_labeled(5, n=40, d=5)
    fit = model.map_fit(x, data, lam=1e-2)
    assert fit.converged
    assert fit.grad_norm <= 1e-8
    # convexity: random perturbations never beat the reported minimizer
    rng = np.random.default_rng(0)
    for _ in range(20):
        other = model.ModelParams(fit.params.beta + rng.normal(scale=0.1, size=5), 1e-2)
        assert model.nll_loss(other, x, data) >= fit.final_loss - 1e-12


def test_map_fit_no_data_returns_zero():
    x = np.zeros((4, 3))
    fit = model.map_fit(x, model.LabeledData(), lam=1.0)
    assert np.array_equal(fit.params.beta, np.zeros(3))
    assert fit.converged


def test_map_fit_rejects_nonpositive_lambda():
    x, data = make_labeled(1, n=10, d=3)
    with pytest.raises(ValueError):
        model.map_fit(x, data, lam=0.0)


def test_map_fit_recovers_direction():
    x, beta_true = model.sample_synthetic(300, 6, seed=42)
    labels = model.SyntheticLabels(x, beta_true, 1.2, seed=(42, 1))
    data = model.LabeledData(
        absolute=labels.absolute(range(50)),
        comparisons=labels.comparisons(np.arange(150), np.arange(150, 300)),
    )
    fit = model.map_fit(x, data, lam=1e-2)
    cosine = float(fit.params.beta @ beta_true) / (
        np.linalg.norm(fit.params.beta) * np.linalg.norm(beta_true)
    )
    assert cosine > 0.7


def test_sampler_deterministic():
    x, beta_true = model.sample_synthetic(30, 4, seed=9)
    x2, beta2 = model.sample_synthetic(30, 4, seed=9)
    assert np.array_equal(x, x2) and np.array_equal(beta_true, beta2)
    s1 = model.SyntheticLabels(x, beta_true, 1.2, seed=9)
    s2 = model.SyntheticLabels(x2, beta2, 1.2, seed=9)
    i, j = np.array([0, 2, 10]), np.array([1, 5, 20])
    assert s1.absolute(range(10)) == s2.absolute(range(10))
    assert s1.comparisons(i, j) == s2.comparisons(i, j)


def test_synthetic_labels_threshold_their_uniforms():
    # sample uniforms first, then one per pair of the lexicographic universe;
    # comparisons() scores pairs as s_i - s_j, the per-pair formula is the reference
    c_a, seed = 2.0, (4, 1)
    for n, d in ((20, 3), (120, 16)):
        x, beta_true = model.sample_synthetic(n, d, c_a=c_a, seed=4)
        labels = model.SyntheticLabels(x, beta_true, c_a, seed=seed)
        rng = np.random.default_rng(seed)
        u_abs = rng.random(n)
        u_cmp = rng.random(n * (n - 1) // 2)
        expected_abs = np.where(u_abs < expit(x @ (beta_true / c_a)), 1, -1)
        assert labels.absolute(range(n)) == list(enumerate(expected_abs.tolist()))
        i, j = np.triu_indices(n, k=1)
        expected_cmp = np.where(u_cmp < expit((x[i] - x[j]) @ beta_true), 1, -1)
        assert [y for _, y in labels.comparisons(i, j)] == expected_cmp.tolist()


def test_synthetic_labels_do_not_depend_on_query_order():
    # the pair uniforms are drawn at the first comparisons() call, after the
    # sample uniforms, so asking for comparisons first changes no label
    x, beta_true = model.sample_synthetic(15, 3, seed=2)
    i, j = np.triu_indices(15, k=1)
    first = model.SyntheticLabels(x, beta_true, 1.2, seed=(2, 1))
    absolute_first = (first.absolute(range(15)), first.comparisons(i, j))
    second = model.SyntheticLabels(x, beta_true, 1.2, seed=(2, 1))
    comparisons_first = second.comparisons(i, j)
    assert (second.absolute(range(15)), comparisons_first) == absolute_first


def test_auc_oracle_values():
    # hand-counted Mann-Whitney values, including a tie at 0.4
    assert model.auc([0.9, 0.8, 0.1, 0.4, 0.4], [1, -1, -1, 1, -1]) == 0.75
    assert model.auc([0.1, 0.9], [-1, 1]) == 1.0
    assert model.auc([0.9, 0.1], [-1, 1]) == 0.0
    assert model.auc([0.5, 0.5], [1, -1]) == 0.5


def test_auc_matches_the_rank_formula_on_tied_scores():
    # the Mann-Whitney U statistic through average ranks, ties sharing a rank
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        scores = rng.integers(0, 6, n) / 4.0
        labels = np.where(rng.random(n) < 0.5, 1, -1)
        labels[:2] = (1, -1)
        pos = labels == 1
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        ranks = rankdata(scores)
        expected = float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
        assert model.auc(scores, labels) == expected


def test_import_leaves_scipy_stats_out():
    code = "import sys, pairdesign; sys.exit('scipy.stats' in sys.modules)"
    src = str(Path(model.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


_NUMPY_ONLY_RUNS = {
    "import": "",
    "engines": (
        "x, absolute_set, _ = bench.make_instance(0, 12, 4, n_absolute=3)\n"
        "for engine in bench.ENGINES.values():\n"
        "    engine(x, absolute_set, 3, 1e-4)"
    ),
    "select": "assert cli.main(['select', '--synthetic', 'n=12,d=4', '--algorithm', 'sg', '--k', '3', '--out', os.devnull]) == 0",
    "bench": "assert cli.main(['bench', '--algorithms', 'sg,slm', '--synthetic', 'n=12,d=4', '--k', '3', '--out', os.devnull]) == 0",
    "verify": "assert cli.main(['verify', '--single', '--n', '12', '--d', '4', '--k', '3', '--out', os.devnull]) == 0",
}


@pytest.mark.parametrize("run", sorted(_NUMPY_ONLY_RUNS))
def test_engine_path_loads_no_scipy(run):
    # scipy is kept for label draws and model fits; designing pairs needs numpy alone
    code = (
        "import os, sys\n"
        "from pairdesign import bench, cli\n"
        f"{_NUMPY_ONLY_RUNS[run]}\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'concurrent.futures.process'))))"
    )
    src = str(Path(model.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("PAIRDESIGN_WORKERS", None)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_auc_degenerate_labels():
    with pytest.raises(DegenerateLabelSet):
        model.auc([0.1, 0.2], [1, 1])


@settings(max_examples=25, deadline=None)
@given(
    scores=st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=12),
    flip=st.integers(1, 3),
)
def test_auc_complement_symmetry(scores, flip):
    labels = [1 if i < flip else -1 for i in range(len(scores))]
    a = model.auc(scores, labels)
    b = model.auc([-s for s in scores], [-y for y in labels])
    assert 0.0 <= a <= 1.0
    assert abs(a - b) <= 1e-12


def test_entropy_select_matches_direct_sort():
    x, _ = random_instance(6, n=15, d=4)
    rng = np.random.default_rng(6)
    beta = rng.normal(size=4)
    pool = [(i, j) for i in range(15) for j in range(i + 1, 15)]
    selected = model.entropy_select(x, beta, 5, pool)

    def pair_entropy(e):
        p = float(expit((x[e[0]] - x[e[1]]) @ beta))
        return -(xlogy(p, p) + xlogy(1 - p, 1 - p))

    expected = sorted(pool, key=lambda e: (-pair_entropy(e), e))[:5]
    assert selected == expected


def test_entropy_select_tie_rule():
    # beta = 0 makes every pair maximally entropic; ties go lexicographic
    x, _ = random_instance(2, n=8, d=3)
    pool = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    assert model.entropy_select(x, np.zeros(3), 3, pool) == [(0, 1), (0, 2), (0, 3)]


def test_entropy_select_memory_is_linear_in_the_pool():
    # margins are s_i - s_j from one score per sample, never |C| x d difference rows
    x, _ = random_instance(3, n=400, d=64)
    beta = np.random.default_rng(3).normal(size=64)
    model.entropy_select(x, beta, 5, None)  # first call imports scipy.special
    tracemalloc.start()
    try:
        model.entropy_select(x, beta, 5, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * (400 * 399 // 2)


def test_fisher_select_improves_objective():
    x, _ = random_instance(11, n=12, d=3)
    rng = np.random.default_rng(11)
    beta = rng.normal(size=3)
    pool = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    values = []
    selected = model.fisher_select(x, beta, 4, pool)
    assert len(set(selected)) == 4
    for t in range(1, 5):
        values.append(model.fisher_information_objective(x, beta, selected[:t], pool))
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_fisher_pool_guard():
    x, _ = random_instance(1, n=200, d=3)
    pool = [(i, j) for i in range(200) for j in range(i + 1, 200)]
    with pytest.raises(InstanceTooLarge):
        model.fisher_select(x, np.zeros(3), 2, pool)


def test_random_select_deterministic():
    pool = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    a = model.random_select(10, 5, pool, seed=3)
    b = model.random_select(10, 5, pool, seed=3)
    c = model.random_select(10, 5, pool, seed=4)
    assert a == b
    assert len(set(a)) == 5 and set(a) <= set(pool)
    assert a != c
    # no pool is the pair universe, listed in the same order
    assert model.random_select(10, 5, None, seed=3) == a
    with pytest.raises(ValueError):
        model.random_select(10, 5, pool[:3], seed=0)
