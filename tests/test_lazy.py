import numpy as np
import pytest

from pairdesign import bench, design, greedy, lazy, linalg
from pairdesign.errors import StaleStampCorruption
from pairdesign.heap import HeapEntry, LazyHeap, beats

from conftest import duplicate_row_instance, random_instance

LAM = 1e-4

ENGINES = {
    "nl": lambda x, a, k: lazy.naive_lazy(x, a, k, LAM),
    "flp": lambda x, a, k: lazy.factorization_lazy(x, a, k, LAM, mode="precompute"),
    "flm": lambda x, a, k: lazy.factorization_lazy(x, a, k, LAM, mode="memoize"),
    "slp": lambda x, a, k: lazy.scalar_lazy(x, a, k, LAM, mode="precompute"),
    "slm": lambda x, a, k: lazy.scalar_lazy(x, a, k, LAM, mode="memoize"),
}

# The same gain oracles, for driving by the reference heap search below.
ORACLES = {
    "nl": lambda x, a, k, pi, pj: greedy.NaiveOracle(x, a, LAM, pi, pj),
    "flp": lambda x, a, k, pi, pj: greedy.FactorizationOracle(x, a, LAM, pi, pj, "precompute"),
    "flm": lambda x, a, k, pi, pj: greedy.FactorizationOracle(x, a, LAM, pi, pj, "memoize"),
    "slp": lambda x, a, k, pi, pj: greedy.ScalarOracle(x, a, LAM, pi, pj, k, "precompute"),
    "slm": lambda x, a, k, pi, pj: greedy.ScalarOracle(x, a, LAM, pi, pj, k, "memoize"),
}


def heap_search(tag, x, absolute_set, k, pool=None):
    """Reference lazy search: refresh one stale entry at a time off a max-heap.

    Entries are (bound, stamp, pair); the top entry is refreshed and kept when
    it still beats the next one (pair order on equal gains), else pushed back.
    Returns the selected pairs and the refresh count per pick.
    """
    pi, pj = greedy._resolve_pool(x.shape[0], pool)
    oracle = ORACLES[tag](x, absolute_set, k, pi, pj)
    index = {(int(i), int(j)): e for e, (i, j) in enumerate(zip(pi, pj))}
    heap = LazyHeap(HeapEntry(float(g), 0, pair) for g, pair in zip(oracle.initial(), index))
    selected, touches = [], []
    for it in range(k):
        count = 0
        entry = heap.extract_max()
        while entry.stamp < it:
            gain = oracle.refresh(np.array([index[entry.pair]]), it)
            fresh = HeapEntry(float(gain[0]), it, entry.pair)
            count += 1
            if heap.size == 0 or beats(fresh, heap.peek()):
                entry = fresh
                break
            entry = heap.replace_top(fresh)
        selected.append(entry.pair)
        touches.append(count)
        oracle.update(entry.pair, it)
    return selected, touches


def assert_matches_heap_oracle(x, absolute_set, k, pool=None):
    for tag in ENGINES:
        trace = bench.ENGINES[tag](x, absolute_set, k, LAM, pool=pool)
        selected, touches = heap_search(tag, x, absolute_set, k, pool)
        assert trace.selected == selected, tag
        assert trace.touch_counts[0] == touches[0] == 0, tag


def test_lazy_engines_match_eager():
    for seed in range(5):
        x, absolute_set = random_instance(seed, n=30, d=6)
        reference = greedy.naive_greedy(x, absolute_set, 8, LAM)
        for tag, run in ENGINES.items():
            trace = run(x, absolute_set, 8)
            assert trace.selected == reference.selected, tag
            assert np.allclose(trace.gains, reference.gains, rtol=1e-8, atol=1e-9), tag


def test_touch_counts_bounded():
    x, absolute_set = random_instance(7, n=40, d=8)
    n_pairs = len(design.pair_universe(40))
    k = 10
    for tag, run in ENGINES.items():
        trace = run(x, absolute_set, k)
        assert len(trace.touch_counts) == k
        assert trace.touch_counts[0] == 0, tag  # first pick needs no refresh
        assert all(0 <= t <= n_pairs for t in trace.touch_counts), tag
        # laziness must be realized: far fewer touches than full recomputes
        assert sum(trace.touch_counts) < k * n_pairs


def test_memo_counts_never_exceed_precompute_work():
    x, absolute_set = random_instance(9, n=50, d=6)
    k = 8
    flm = lazy.factorization_lazy(x, absolute_set, k, LAM, mode="memoize")
    assert flm.memo_counts is not None and len(flm.memo_counts) == k
    assert all(0 <= m <= 50 for m in flm.memo_counts)
    slm = lazy.scalar_lazy(x, absolute_set, k, LAM, mode="memoize")
    assert slm.memo_counts is not None
    # each iteration can fill at most one new history row per sample
    assert all(0 <= m <= 50 * k for m in slm.memo_counts)


def test_scalar_stale_adaptation_matches_fresh_gain():
    # a gain frozen at iteration 0 and adapted through the rho history must
    # agree with a from-scratch quadratic form after many updates
    x, absolute_set = random_instance(17, n=60, d=10)
    state = design.init_design(x, absolute_set, LAM)
    pi, pj = design.pair_arrays(60)
    history = greedy.ScalarOracle(x, absolute_set, LAM, pi, pj, 50, "precompute")
    probes = [(0, 1), (5, 30), (12, 44), (2, 59)]
    stale = {e: design.proxy_gain(state, x, e) for e in probes}
    rng = np.random.default_rng(17)
    for it in range(50):
        i, j = sorted(rng.choice(60, size=2, replace=False).tolist())
        xe = design.comparison_feature(x, (int(i), int(j)))
        v = linalg.update_vector(state.ainv, xe)
        history.update((int(i), int(j)), it)
        assert np.array_equal(history.rho[it], x @ v)
        state.ainv = linalg.symmetrize(state.ainv - np.outer(v, v))
    for e in probes:
        i, j = e
        diff = history.rho[:50, i] - history.rho[:50, j]
        adapted = stale[e] - float(np.sum(diff * diff))
        fresh = float(design.comparison_feature(x, e) @ state.ainv @ design.comparison_feature(x, e))
        assert abs(adapted - fresh) <= 1e-7


def test_rho_history_lazy_fill_matches_precomputed():
    x, absolute_set = random_instance(23, n=20, d=5)
    pi, pj = design.pair_arrays(20)
    pre = greedy.ScalarOracle(x, absolute_set, LAM, pi, pj, 4, "precompute")
    lzy = greedy.ScalarOracle(x, absolute_set, LAM, pi, pj, 4, "memoize")
    for it, pair in enumerate([(0, 7), (3, 19), (5, 11), (2, 9)]):
        pre.update(pair, it)
        lzy.update(pair, it)
    assert lzy.computed == 0
    samples = np.array([0, 7, 19, 7])
    lzy.fill(samples, 4)
    assert np.allclose(lzy.rho[:4, samples], pre.rho[:4, samples], rtol=1e-14)
    assert lzy.computed == 3 * 4
    # refilling is free, and rows past `stop` stay empty
    lzy.fill(np.array([7, 5]), 2)
    assert lzy.computed == 3 * 4 + 2
    assert np.all(lzy.rho[2:, 5] == 0.0)


def test_accepts_tie_rule():
    # a fresh gain at pool index `at` against a stale bound of 2.0 at index 3
    def pending(gain, at):
        bound = np.array([0.5, 0.5, 0.5, 2.0, 0.5, 0.5, 0.5, 0.5])
        stamp = np.ones(8, dtype=np.intp)
        stamp[3] = 0
        bound[at] = gain
        return lazy._pending(np.arange(8), bound, stamp, 1, gain)

    assert pending(2.5, 6)[0].size == 0 and pending(2.5, 6)[1] == 6
    assert pending(2.0, 1)[0].size == 0 and pending(2.0, 1)[1] == 1
    assert pending(2.0, 4)[0].tolist() == [3]
    assert pending(1.9, 0)[0].tolist() == [3]


def test_pending_rejects_future_stamps():
    bound = np.array([1.0, 2.0, 3.0])
    stamp = np.array([2, 2, 5])
    with pytest.raises(StaleStampCorruption):
        lazy._pending(np.arange(3), bound, stamp, 2, 1.0)


def test_array_search_matches_heap_oracle_on_gaussian_instances():
    for seed in range(4):
        x, absolute_set = random_instance(seed, n=30, d=6)
        assert_matches_heap_oracle(x, absolute_set, 10)
    x, absolute_set = random_instance(11, n=24, d=5)
    pool = [(i, j) for i in range(24) for j in range(i + 1, 24) if (i + j) % 3]
    assert_matches_heap_oracle(x, absolute_set, 12, pool=pool)


def test_array_search_matches_heap_oracle_on_duplicate_rows():
    for seed in range(6):
        x, absolute_set = duplicate_row_instance(seed)
        # copies of a row give bitwise-equal gains against every other sample
        pi, pj = np.array([3, 5, 12]), np.array([9, 9, 9])
        assert len(set(ORACLES["flp"](x, absolute_set, 1, pi, pj).initial().tolist())) == 1
        ainv = design.init_design(x, absolute_set, LAM).ainv
        assert len(set(greedy.quadratic_gains(x, pi, pj, ainv).tolist())) == 1
        assert_matches_heap_oracle(x, absolute_set, 12)


def test_array_search_matches_heap_oracle_when_ties_straddle_the_block():
    # rows 1-20 coincide and row 0 lies far from them, so the 20 pairs (0, m)
    # share the largest initial gain: the first block takes only some of them
    rng = np.random.default_rng(5)
    x = np.zeros((30, 5))
    x[0] = 10.0
    x[21:] = 0.1 * rng.uniform(-1.0, 1.0, size=(9, 5)) + 0.5
    pi, pj = design.pair_arrays(30)
    gains0 = ORACLES["flp"](x, [], 1, pi, pj).initial()
    assert np.count_nonzero(gains0 == gains0.max()) > lazy._MIN_BLOCK
    assert_matches_heap_oracle(x, [], 12)
    assert_matches_heap_oracle(x, [21, 25], 12)


def test_array_search_matches_heap_oracle_when_tied_stale_bounds_straddle_the_block():
    # rows 0-9 sit at the origin, rows 10-19 at 3 e1 and rows 20-29 at 2 e2;
    # the pool pairs the origin rows with each group, 100 pairs per axis.
    # The first pick lies along e1, which leaves the 100 gains along e2
    # unchanged: their stale bounds tie with every refreshed gain, and only
    # the smallest pair may win though the first block holds 16 of them.
    x = np.zeros((30, 3))
    x[10:20, 0] = 3.0
    x[20:, 1] = 2.0
    pool = [(p, q) for p in range(10) for q in range(10, 30)]
    assert_matches_heap_oracle(x, [], 4, pool=pool)
    assert lazy.scalar_lazy(x, [], 2, LAM, pool=pool).selected == [(0, 10), (0, 20)]


def test_mode_validation():
    x, absolute_set = random_instance(3, n=10, d=3)
    with pytest.raises(ValueError):
        lazy.factorization_lazy(x, absolute_set, 2, LAM, mode="bogus")
    with pytest.raises(ValueError):
        lazy.scalar_lazy(x, absolute_set, 2, LAM, mode="bogus")


def test_pool_restriction_and_k_guard():
    x, absolute_set = random_instance(5, n=15, d=4)
    pool = [(0, 1), (2, 3), (4, 5), (6, 7)]
    trace = lazy.scalar_lazy(x, absolute_set, 3, LAM, pool=pool)
    eager = greedy.scalar_greedy(x, absolute_set, 3, LAM, pool=pool)
    assert trace.selected == eager.selected
    with pytest.raises(ValueError):
        lazy.naive_lazy(x, absolute_set, 5, LAM, pool=pool)
