import numpy as np
import pytest

from pairdesign.design import pair_arrays


def pair_list(n: int) -> list[tuple[int, int]]:
    """Every pair (i, j) with 0 <= i < j < n as tuples, lexicographic order."""
    pi, pj = pair_arrays(n)
    return list(zip(pi.tolist(), pj.tolist()))


def random_spd(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    """Well-conditioned random SPD matrix."""
    g = rng.normal(size=(d, d))
    return g @ g.T * scale + (0.5 + d) * np.eye(d)


def random_instance(seed: int, n: int, d: int, n_absolute: int = 5):
    """Gaussian features plus a deterministic absolute-label subset."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    absolute_set = sorted(rng.choice(n, size=min(n_absolute, n), replace=False).tolist())
    return x, absolute_set


def duplicate_row_instance(seed):
    """Small-integer features with several exact copies of rows 3 and 7."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=(30, 4)).astype(float)
    x[[5, 12, 21]] = x[3]
    x[[8, 26]] = x[7]
    return x, sorted(rng.choice(30, size=5, replace=False).tolist())


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
