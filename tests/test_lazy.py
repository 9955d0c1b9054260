import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairdesign import bench, design, greedy, lazy, linalg
from pairdesign.errors import StaleStampCorruption
from pairdesign.heap import HeapEntry, LazyHeap, beats

import oracles
from conftest import duplicate_row_instance, pair_list, random_instance

LAM = 1e-4

LAZY = {tag: engine for tag, engine in bench.ENGINES.items() if engine.search is lazy.BlockSearch}


def heap_search(tag, x, absolute_set, k, pool=None):
    """Reference lazy search: refresh one stale entry at a time off a max-heap.

    It drives the gain oracle of `bench.ENGINES[tag]` under its memo policy.
    Entries are (bound, stamp, pair); the top entry is refreshed and kept when
    it still beats the next one (pair order on equal gains), else pushed back.
    Returns the selected pairs and the refresh count per pick.
    """
    pi, pj = greedy.resolve_pool(x.shape[0], pool, k)
    engine = bench.ENGINES[tag]
    oracle = engine.oracle(x, absolute_set, LAM, pi, pj, k, engine.memo)
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
            if len(heap) == 0 or beats(fresh, heap.peek()):
                entry = fresh
                break
            entry = heap.replace_top(fresh)
        selected.append(entry.pair)
        touches.append(count)
        oracle.update(entry.pair, it)
    return selected, touches


class ReferenceBlockSearch(lazy.BlockSearch):
    """Reference block search, the long way round.

    Each round refreshes the stale entries of the block, then re-reads every
    live bound that reaches the best gain, with its stamp, to find the stale
    entries that could still beat it. `lazy.BlockSearch` reads the next block
    off the bounds alone, and must refresh exactly the same entries in the
    same blocks.
    """

    @staticmethod
    def pending(b, bound, stamp, it, gain):
        values = bound[b]
        stamps = stamp[b]
        if stamps.size and stamps.max() > it:
            raise StaleStampCorruption(f"entry {int(b[stamps.argmax()])} stamped in the future")
        stale = stamps < it
        first = b[~stale & (values == gain)].min()
        return b[stale & ((values > gain) | ((values == gain) & (b < first)))], int(first)

    def pick(self, oracle, it):
        bound, stamp = self.bound, self.stamp
        n_pairs = len(bound)
        if self.block < n_pairs - it:
            b = np.argpartition(bound, n_pairs - self.block)[n_pairs - self.block:]
        else:
            b = np.flatnonzero(bound != -np.inf)
        touches = 0
        gain = -np.inf
        old_bounds = []
        while b.size:
            stale = b[stamp[b] < it]
            if stale.size:
                old_bounds.append(bound[stale])
                bound[stale] = oracle.refresh(stale, it)
                stamp[stale] = it
                touches += stale.size
            gain = max(gain, bound[b].max())
            b, best = self.pending(np.flatnonzero(bound >= gain), bound, stamp, it, gain)
            cap = max(lazy._MIN_BLOCK, touches)
            if b.size > cap:
                b = b[np.argpartition(bound[b], b.size - cap)[b.size - cap:]]
        needed = sum(int(np.count_nonzero(old >= gain)) for old in old_bounds)
        self.block = max(lazy._MIN_BLOCK, needed // 2)
        self.touch_counts.append(touches)
        bound[best] = -np.inf
        return best, float(gain)


def straddling_ties():
    """Rows 1-20 coincide and row 0 lies far from them, so the 20 pairs
    (0, m) share the largest initial gain: the first block takes only some."""
    rng = np.random.default_rng(5)
    x = np.zeros((30, 5))
    x[0] = 10.0
    x[21:] = 0.1 * rng.uniform(-1.0, 1.0, size=(9, 5)) + 0.5
    return x


def straddling_stale_ties():
    """Rows 0-9 sit at the origin, rows 10-19 at 3 e1 and rows 20-29 at 2 e2;
    the pool pairs the origin rows with each group, 100 pairs per axis.

    The first pick lies along e1, which leaves the 100 gains along e2
    unchanged: their stale bounds tie with every refreshed gain, and only
    the smallest pair may win though the first block holds 16 of them.
    """
    x = np.zeros((30, 3))
    x[10:20, 0] = 3.0
    x[20:, 1] = 2.0
    pool = [(p, q) for p in range(10) for q in range(10, 30)]
    return x, pool


def assert_matches_reference_blocks(x, absolute_set, k, pool=None):
    for tag, engine in LAZY.items():
        trace = engine(x, absolute_set, k, LAM, pool=pool)
        ref = dataclasses.replace(engine, search=ReferenceBlockSearch)(x, absolute_set, k, LAM, pool=pool)
        assert trace.selected == ref.selected, tag
        assert np.asarray(trace.gains).tobytes() == np.asarray(ref.gains).tobytes(), tag
        assert trace.touch_counts == ref.touch_counts, tag
        assert trace.memo_counts == ref.memo_counts, tag


def assert_matches_heap_oracle(x, absolute_set, k, pool=None):
    for tag, engine in LAZY.items():
        trace = engine(x, absolute_set, k, LAM, pool=pool)
        selected, touches = heap_search(tag, x, absolute_set, k, pool)
        assert trace.selected == selected, tag
        assert trace.touch_counts[0] == touches[0] == 0, tag


def test_lazy_engines_match_eager():
    for seed in range(5):
        x, absolute_set = random_instance(seed, n=30, d=6)
        reference = bench.ENGINES["ng"](x, absolute_set, 8, LAM)
        for tag, engine in LAZY.items():
            trace = engine(x, absolute_set, 8, LAM)
            assert trace.selected == reference.selected, tag
            assert np.allclose(trace.gains, reference.gains, rtol=1e-8, atol=1e-9), tag


def test_touch_counts_bounded():
    x, absolute_set = random_instance(7, n=40, d=8)
    n_pairs = len(pair_list(40))
    k = 10
    for tag, engine in LAZY.items():
        trace = engine(x, absolute_set, k, LAM)
        assert len(trace.touch_counts) == k
        assert trace.touch_counts[0] == 0, tag  # first pick needs no refresh
        assert all(0 <= t <= n_pairs for t in trace.touch_counts), tag
        # laziness must be realized: far fewer touches than full recomputes
        assert sum(trace.touch_counts) < k * n_pairs


def test_memo_counts_never_exceed_precompute_work():
    x, absolute_set = random_instance(9, n=50, d=6)
    k = 8
    flm = bench.ENGINES["flm"](x, absolute_set, k, LAM)
    assert flm.memo_counts is not None and len(flm.memo_counts) == k
    assert all(0 <= m <= 50 for m in flm.memo_counts)
    slm = bench.ENGINES["slm"](x, absolute_set, k, LAM)
    assert slm.memo_counts is not None
    # each iteration can fill at most one new history row per sample
    assert all(0 <= m <= 50 * k for m in slm.memo_counts)


def test_scalar_stale_adaptation_matches_fresh_gain():
    # a gain frozen at iteration 0 and adapted through the rho history must
    # agree with a from-scratch quadratic form after many updates
    x, absolute_set = random_instance(17, n=60, d=10)
    state = oracles.init_state(x, absolute_set, LAM)
    pi, pj = design.pair_arrays(60)
    history = greedy.ScalarOracle(x, absolute_set, LAM, pi, pj, 50, "precompute")
    probes = [(0, 1), (5, 30), (12, 44), (2, 59)]
    stale = {e: oracles.proxy_gain(state, x, e) for e in probes}
    rng = np.random.default_rng(17)
    # the oracle forms v in product form, from the base inverse and the
    # earlier vectors; it stays within 1e-8 of the explicitly downdated v
    ainv0, vs = state.ainv.copy(), np.zeros((50, 10))
    for it in range(50):
        i, j = sorted(rng.choice(60, size=2, replace=False).tolist())
        xe = design.comparison_feature(x, (int(i), int(j)))
        v = linalg.update_vector(state.ainv, xe)
        a = ainv0 @ xe - np.dot(vs[:it].dot(xe), vs[:it])
        vs[it] = a / math.sqrt(1.0 + float(xe @ a))
        history.update((int(i), int(j)), it)
        assert np.array_equal(history.rho[it], x @ vs[it])
        assert np.max(np.abs(vs[it] - v)) <= 1e-8 * np.max(np.abs(v))
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


def refreshed_oldest_first(oracle, b, it):
    """The scalar refresh of entries `b` at iteration `it`, term by term:
    each gain less its history, added oldest row first."""
    values = []
    for e in b:
        i, j = oracle.pi[e], oracle.pj[e]
        total = 0.0
        for row in oracle.rho[:it]:
            delta = row[i] - row[j]
            total += delta * delta
        values.append(oracle.gains[e] - total)
    return np.array(values)


def test_scalar_refresh_sums_each_history_oldest_first():
    # t spans numpy's 8-way unrolled and 128-entry pairwise summation
    # blocks, which a sum along the fast axis in memory would use; widths
    # include 1, where the rows of the history are that axis
    x, absolute_set = random_instance(31, n=30, d=4)
    pi, pj = design.pair_arrays(30)
    ts = (1, 2, 7, 8, 9, 127, 128, 129, 300)
    oracle = greedy.ScalarOracle(x, absolute_set, LAM, pi, pj, max(ts) + 1, "precompute")
    rng = np.random.default_rng(31)
    # terms over ten decades, so that a change of order changes the bits;
    # zero gains return each history's sum itself, with no rounding after it
    oracle.rho[:] = rng.normal(size=oracle.rho.shape) * 10.0 ** rng.uniform(-5, 5, size=(len(oracle.rho), 1))
    oracle.gains = np.zeros(len(pi))
    for width in (1, 2, 3, 9, 300):
        b = rng.choice(len(pi), size=width, replace=False)
        for t in ts:
            values = oracle.refresh(b, t)
            assert values.tobytes() == refreshed_oldest_first(oracle, b, t).tobytes(), (width, t)
            one_at_a_time = np.concatenate([oracle.refresh(b[e:e + 1], t) for e in range(width)])
            assert values.tobytes() == one_at_a_time.tobytes(), (width, t)
            assert np.all(oracle.refresh(b, t + 1) <= values), (width, t)


def test_scalar_lazy_engines_match_eager_past_k_128():
    # 780 pairs, 200 picks: each refresh sums up to 199 history rows
    x, absolute_set = random_instance(37, n=40, d=6)
    reference = bench.ENGINES["ng"](x, absolute_set, 200, LAM)
    traces = {tag: engine(x, absolute_set, 200, LAM) for tag, engine in LAZY.items()}
    for tag in ("slp", "slm"):
        assert traces[tag].selected == reference.selected, tag
    for tag in ("nl", "flp", "flm", "slm"):
        assert traces[tag].touch_counts == traces["slp"].touch_counts, tag


def test_accepts_tie_rule():
    # a fresh gain at pool index `at` against a stale bound of 2.0 at index 3
    def pending(gain, at):
        bound = np.array([0.5, 0.5, 0.5, 2.0, 0.5, 0.5, 0.5, 0.5])
        bound[at] = gain
        fresh = np.flatnonzero(np.arange(8) != 3)
        gain, best, b = lazy._accept(bound, fresh, bound[fresh], -np.inf, 8)
        return b, best

    assert pending(2.5, 6)[0].size == 0 and pending(2.5, 6)[1] == 6
    assert pending(2.0, 1)[0].size == 0 and pending(2.0, 1)[1] == 1
    assert pending(2.0, 4)[0].tolist() == [3]
    assert pending(1.9, 0)[0].tolist() == [3]


def accept_by_brute_force(bound, b, gain, best):
    """The acceptance rule entry by entry: the best gain after the block `b`
    is refreshed, the smallest index holding it, and every entry that could
    still beat it (a bound above it, or equal to it at a smaller index)."""
    gain = max([gain] + [bound[e] for e in b])
    best = min([e for e in b if bound[e] == gain] + ([best] if best < len(bound) and bound[best] == gain else [len(bound)]))
    pending = [e for e in range(len(bound)) if bound[e] > gain or (bound[e] == gain and e < best)]
    return gain, best, pending


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_accept_matches_the_rule_by_brute_force(data):
    # few distinct values, -inf among them, so that ties fall before, at
    # and after the best entry
    n = data.draw(st.integers(1, 24))
    bound = np.array(data.draw(st.lists(st.sampled_from([-np.inf, 0.5, 1.0, 1.5, 2.0]), min_size=n, max_size=n)))
    b = np.array(data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))], dtype=np.intp)
    if data.draw(st.booleans()):
        gain, best = -np.inf, n  # the first block of a pick
    else:
        best = data.draw(st.sampled_from(sorted(set(range(n)) - set(b.tolist())) or [n]))
        gain = bound[best] if best < n else -np.inf
    expected = accept_by_brute_force(bound, b.tolist(), gain, best)
    got = lazy._accept(bound, b, bound[b], gain, best)
    assert (got[0], got[1], got[2].tolist()) == expected
    # the same entries read off any index-ordered list that holds them
    extra = data.draw(st.sets(st.integers(0, n - 1)))
    pending = np.array(sorted(set(expected[2]) | extra), dtype=np.intp)
    got = lazy._accept(bound, b, bound[b], gain, best, pending)
    assert (got[0], got[1], got[2].tolist()) == expected


def test_memo_maps_and_fills_each_new_entry_once():
    x, absolute_set = random_instance(29, n=20, d=5)
    pi, pj = design.pair_arrays(20)
    flm = greedy.FactorizationOracle(x, absolute_set, LAM, pi, pj, 3, "memoize")
    flm.initial()
    flm.update((0, 7), 0)
    flm.refresh(np.flatnonzero((pi == 0) & (pj == 7)), 1)  # maps rows 0 and 7
    assert flm.computed == 2
    held = flm.z.copy()
    flm._map(np.array([7, 3, 3, 0, 9, 7, 9, 3]), 1)
    assert flm.computed == 4  # rows 3 and 9, once each
    assert flm.z[[0, 7]].tobytes() == held[[0, 7]].tobytes()
    # each mapped row is its own product A^-1 x_i, bit for bit, with q_i = x_i.z_i
    for s in (0, 3, 7, 9):
        assert flm.z[s].tobytes() == (flm.ainv @ x[s]).tobytes()
        assert flm.q[s] == np.einsum("d,d->", x[s], flm.z[s])
    held = flm.z.copy()
    flm._map(np.array([9, 0, 9, 3]), 1)
    assert flm.computed == 4 and flm.z.tobytes() == held.tobytes()

    slm = greedy.ScalarOracle(x, absolute_set, LAM, pi, pj, 4, "memoize")
    pre = greedy.ScalarOracle(x, absolute_set, LAM, pi, pj, 4, "precompute")
    for it, pair in enumerate([(0, 7), (3, 19), (5, 11)]):
        slm.update(pair, it)
        pre.update(pair, it)
    slm.fill(np.array([2, 2]), 1)
    assert slm.computed == 1
    held = slm.rho.copy()
    # rows 1-2 of sample 2 and rows 0-2 of sample 4, each once
    slm.fill(np.array([2, 4, 2, 4, 2]), 3)
    assert slm.computed == 6
    assert slm.rho[0, 2].tobytes() == held[0, 2].tobytes()
    assert np.allclose(slm.rho[:3, [2, 4]], pre.rho[:3, [2, 4]], rtol=1e-14)
    held = slm.rho.copy()
    slm.fill(np.array([4, 2, 4]), 2)
    slm.fill(np.array([2, 4]), 3)
    assert slm.computed == 6 and slm.rho.tobytes() == held.tobytes()
    assert not slm.rho[:, [0, 1, 3]].any() and not slm.rho[3:].any()


class _ConstantOracle:
    def refresh(self, b, it):
        return np.full(len(b), 0.5)


def test_pending_rejects_future_stamps():
    # in the first block of a pick
    search = lazy.BlockSearch()
    search.bound, search.stamp = np.array([1.0, 2.0, 3.0]), np.array([1, 1, 5])
    search.block, search.touch_counts = lazy._MIN_BLOCK, []
    with pytest.raises(StaleStampCorruption):
        search.pick(_ConstantOracle(), 2)
    # in a block queued after it: entries 0-3 lie outside the first block of
    # 16, and their bounds still beat the refreshed gain of 0.5
    search.bound, search.stamp = np.arange(20) + 1.0, np.ones(20, dtype=np.intp)
    search.stamp[2] = 5
    with pytest.raises(StaleStampCorruption):
        search.pick(_ConstantOracle(), 2)
    assert np.all(search.stamp[4:] == 2) and np.all(search.stamp[[0, 1, 3]] == 1)


def test_block_rounds_match_the_reference_search():
    for seed in range(4):
        x, absolute_set = random_instance(seed, n=30, d=6)
        assert_matches_reference_blocks(x, absolute_set, 10)
    for seed in range(3):
        assert_matches_reference_blocks(*duplicate_row_instance(seed), 12)
    x = straddling_ties()
    assert_matches_reference_blocks(x, [], 12)
    assert_matches_reference_blocks(x, [21, 25], 12)
    x, pool = straddling_stale_ties()
    assert_matches_reference_blocks(x, [], 4, pool=pool)
    x, absolute_set = random_instance(11, n=24, d=5)
    pool = [(i, j) for i in range(24) for j in range(i + 1, 24) if (i + j) % 3]
    assert_matches_reference_blocks(x, absolute_set, 12, pool=pool)


def test_block_rounds_match_the_reference_search_at_benchmark_scale():
    # perfbench's `many-pairs` shape: 3,160 pairs, a few dozen rounds per run
    x, absolute_set, _ = bench.make_instance(0, 80, 48, n_absolute=10)
    assert_matches_reference_blocks(x, absolute_set, 20)


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
        assert len(set(greedy.FactorizationOracle(x, absolute_set, LAM, pi, pj, 1, "precompute").initial().tolist())) == 1
        ainv = design.init_design(x, absolute_set, LAM)
        assert len(set(greedy.quadratic_gains(x, pi, pj, ainv).tolist())) == 1
        assert_matches_heap_oracle(x, absolute_set, 12)


def test_array_search_matches_heap_oracle_when_ties_straddle_the_block():
    x = straddling_ties()
    pi, pj = design.pair_arrays(30)
    gains0 = greedy.FactorizationOracle(x, [], LAM, pi, pj, 1, "precompute").initial()
    assert np.count_nonzero(gains0 == gains0.max()) > lazy._MIN_BLOCK
    assert_matches_heap_oracle(x, [], 12)
    assert_matches_heap_oracle(x, [21, 25], 12)


def test_array_search_matches_heap_oracle_when_tied_stale_bounds_straddle_the_block():
    x, pool = straddling_stale_ties()
    assert_matches_heap_oracle(x, [], 4, pool=pool)
    assert bench.ENGINES["slp"](x, [], 2, LAM, pool=pool).selected == [(0, 10), (0, 20)]


def test_pool_restriction_and_k_guard():
    x, absolute_set = random_instance(5, n=15, d=4)
    pool = [(0, 1), (2, 3), (4, 5), (6, 7)]
    trace = bench.ENGINES["slp"](x, absolute_set, 3, LAM, pool=pool)
    eager = bench.ENGINES["sg"](x, absolute_set, 3, LAM, pool=pool)
    assert trace.selected == eager.selected
    with pytest.raises(ValueError):
        bench.ENGINES["nl"](x, absolute_set, 5, LAM, pool=pool)
