import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pairdesign import design, linalg
from pairdesign.errors import DegenerateUpdate, NotPositiveDefinite

from conftest import random_spd

# Hand-checked 3x3 SPD instance; factor and inverse verified independently.
ORACLE_M = np.array([[4.0, 2.0, 0.6], [2.0, 5.0, 1.0], [0.6, 1.0, 3.0]])
ORACLE_CHOL = np.array(
    [[2.0, 0.0, 0.0], [1.0, 2.0, 0.0], [0.3, 0.35, math.sqrt(2.7875)]]
)
ORACLE_INV = np.array(
    [
        [0.31390134529147984, -0.1210762331838565, -0.02242152466367713],
        [-0.1210762331838565, 0.2609865470852018, -0.06278026905829595],
        [-0.02242152466367713, -0.06278026905829595, 0.35874439461883406],
    ]
)
ORACLE_LOGDET = 3.7977338590260183


def test_symmetrize():
    m = np.array([[1.0, 2.0], [4.0, 3.0]])
    s = linalg.symmetrize(m)
    assert np.array_equal(s, s.T)
    assert np.array_equal(s, np.array([[1.0, 3.0], [3.0, 3.0]]))


def test_cholesky_factor_oracle():
    f = linalg.cholesky_factor(ORACLE_M)
    assert np.allclose(f, ORACLE_CHOL, rtol=0, atol=1e-14)


def test_cholesky_factor_reconstructs(rng):
    for d in (1, 2, 5, 17, 40):
        m = random_spd(rng, d)
        f = linalg.cholesky_factor(m)
        assert np.allclose(f, np.tril(f))
        rel = np.linalg.norm(f @ f.T - m) / np.linalg.norm(m)
        assert rel <= 1e-10


def test_cholesky_factor_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        linalg.cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_factor_rejects_an_overflowed_matrix():
    # LAPACK takes the infinite pivot without an error and returns a non-finite factor
    with np.errstate(all="ignore"), pytest.raises(NotPositiveDefinite):
        linalg.cholesky_factor(np.array([[np.inf, 1.0], [1.0, 2.0]]))


def test_gram_factor(rng):
    m = random_spd(rng, 7)
    u = linalg.gram_factor(m)
    assert np.allclose(u, np.triu(u))
    assert np.allclose(u.T @ u, m, rtol=1e-10)
    x = rng.normal(size=7)
    assert np.isclose(float(x @ m @ x), float(np.sum((u @ x) ** 2)), rtol=1e-12)


def test_invert_spd_oracle():
    inv = linalg.invert_spd(ORACLE_M)
    assert np.allclose(inv, ORACLE_INV, rtol=0, atol=1e-14)


def test_invert_spd_identity_residual(rng):
    for d in (1, 3, 20, 64):
        m = random_spd(rng, d)
        inv = linalg.invert_spd(m)
        assert np.array_equal(inv, inv.T)
        assert np.max(np.abs(m @ inv - np.eye(d))) <= 1e-9


@pytest.mark.parametrize("n, d", [(30, 8), (40, 48), (10, 40), (3, 24), (20, 130)])
def test_invert_spd_tracks_cho_solve_on_adversarial_designs(n, d):
    # scipy's Cholesky solve is the reference: the library inverts in numpy alone
    eps = np.finfo(float).eps
    for scale in (1e-6, 1.0, 1e6):
        x = np.random.default_rng(n * d).normal(size=(n, d)) * scale
        for lam in (1e-12, 1e-8, 1e-4, 1.0, 1e4):
            m = design.design_matrix(x, range(n), [], lam)
            try:
                factor = scipy.linalg.cholesky(m, lower=True)
            except np.linalg.LinAlgError:
                with pytest.raises(NotPositiveDefinite):
                    linalg.invert_spd(m)
                continue
            reference = scipy.linalg.cho_solve((factor, True), np.eye(d))
            inv = linalg.invert_spd(m)
            assert np.array_equal(inv, inv.T), (scale, lam)
            residual = np.max(np.abs(m @ inv - np.eye(d)))
            reference_residual = np.max(np.abs(m @ reference - np.eye(d)))
            assert residual <= 10 * reference_residual + 64 * eps, (scale, lam)


def test_sherman_morrison_matches_direct_inverse(rng):
    for d in (2, 8, 32):
        m = random_spd(rng, d)
        ainv = linalg.invert_spd(m)
        x = rng.normal(size=d)
        down = linalg.sherman_morrison_downdate(ainv, x)
        direct = linalg.invert_spd(m + np.outer(x, x))
        rel = np.max(np.abs(down - direct)) / np.max(np.abs(direct))
        assert rel <= 1e-10
        assert np.array_equal(down, down.T)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 12))
def test_sherman_morrison_property(seed, d):
    rng = np.random.default_rng(seed)
    m = random_spd(rng, d)
    ainv = linalg.invert_spd(m)
    x = rng.normal(size=d)
    down = linalg.sherman_morrison_downdate(ainv, x)
    assert np.max(np.abs((m + np.outer(x, x)) @ down - np.eye(d))) <= 1e-8


def test_update_vector_cross_check(rng):
    for d in (2, 10, 25):
        m = random_spd(rng, d)
        ainv = linalg.invert_spd(m)
        x = rng.normal(size=d)
        v = linalg.update_vector(ainv, x)
        down = linalg.sherman_morrison_downdate(ainv, x)
        assert np.max(np.abs((ainv - np.outer(v, v)) - down)) <= 1e-12


def test_degenerate_update_raises():
    # a non-positive denominator 1 + x^T A^-1 x, and a non-finite one: a
    # finite but huge x overflows it to inf, or to NaN through inf - inf
    cases = [(-np.eye(3), np.ones(3) * 2.0)] + [
        (np.eye(3), np.array(x)) for x in ([1e308, 0.0, 0.0], [1e200, -1e200, 1.0], [np.nan, 0.0, 0.0])
    ]
    for ainv, x in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateUpdate):
                linalg.sherman_morrison_downdate(ainv, x)
            with pytest.raises(DegenerateUpdate):
                linalg.update_vector(ainv, x)
            with pytest.raises(DegenerateUpdate):
                linalg.update_vector(ainv, x, np.zeros((2, 3)))


def _downdate_chain(d, steps=300):
    """A start inverse from `invert_spd` and the vectors of a downdate chain."""
    rng = np.random.default_rng(d)
    return linalg.invert_spd(random_spd(rng, d)), rng.normal(size=(steps, d))


@pytest.mark.parametrize("d", [1, 7, 48, 96])
def test_sherman_morrison_chain_is_exactly_symmetric_and_matches_symmetrized_formula(d):
    ainv, xs = _downdate_chain(d)
    for x in xs:
        before = ainv.copy()
        ax = ainv @ x
        expected = linalg.symmetrize(ainv - np.outer(ax, ax) / (1.0 + float(x @ ax)))
        down = linalg.sherman_morrison_downdate(ainv, x)
        assert np.array_equal(ainv, before)
        assert np.array_equal(down, expected)
        assert np.array_equal(down, down.T)
        ainv = down


def scalar_downdate(ainv, x):
    """Advance `ainv` in place to (A + x x^T)^-1 = A^-1 - v v^T; return v.

    The explicit form of the scalar engines' product-form chain.
    """
    v = linalg.update_vector(ainv, x)
    ainv -= np.multiply.outer(v, v)
    return v


@pytest.mark.parametrize("d", [1, 7, 48, 96])
def test_scalar_downdate_chain_is_exactly_symmetric_and_matches_symmetrized_formula(d):
    ainv, xs = _downdate_chain(d)
    for x in xs:
        v_expected = linalg.update_vector(ainv, x)
        expected = linalg.symmetrize(ainv - np.outer(v_expected, v_expected))
        v = scalar_downdate(ainv, x)
        assert np.array_equal(v, v_expected)
        assert np.array_equal(ainv, expected)
        assert np.array_equal(ainv, ainv.T)


def test_product_form_update_vector_matches_explicit_chain():
    # update_vector from the base inverse and the earlier vectors forms
    # a = A_0^-1 x - V^T (V x), bit for bit, and stays within 1e-8 relative
    # of the vector formed from the explicitly downdated inverse
    for d in (1, 7, 48, 96):
        ainv0, xs = _downdate_chain(d, steps=60)
        ainv, vs = ainv0.copy(), np.zeros((len(xs), d))
        for t, x in enumerate(xs):
            v = linalg.update_vector(ainv0, x, vs[:t])
            a = ainv0 @ x - np.dot(vs[:t].dot(x), vs[:t])
            assert np.array_equal(v, a / math.sqrt(1.0 + float(x @ a)))
            explicit = linalg.update_vector(ainv, x)
            assert np.max(np.abs(v - explicit)) <= 1e-8 * np.max(np.abs(explicit))
            vs[t] = v
            scalar_downdate(ainv, x)
