import tracemalloc

import numpy as np
import pytest

from pairdesign import bench, design, greedy, lazy, linalg
from pairdesign.errors import PairDesignError

import oracles
from conftest import pair_list, random_instance, random_spd

LAM = 1e-4


def test_variants_agree_on_random_instances():
    for seed in range(6):
        x, absolute_set = random_instance(seed, n=30, d=6)
        ng = bench.ENGINES["ng"](x, absolute_set, 8, LAM)
        fg = bench.ENGINES["fg"](x, absolute_set, 8, LAM)
        sg = bench.ENGINES["sg"](x, absolute_set, 8, LAM)
        assert fg.selected == ng.selected
        assert sg.selected == ng.selected
        assert np.allclose(fg.gains, ng.gains, rtol=1e-9)
        assert np.allclose(sg.gains, ng.gains, rtol=1e-9, atol=1e-9)


def test_gains_match_proxy_oracle():
    x, absolute_set = random_instance(3, n=12, d=4)
    trace, gain_arrays = oracles.eager_gain_arrays("ng", x, absolute_set, 4, LAM)
    state = oracles.init_state(x, absolute_set, LAM)
    pool = pair_list(12)
    for it, arr in enumerate(gain_arrays):
        for idx, e in enumerate(pool):
            if e in trace.selected[:it]:
                assert arr[idx] == -np.inf
            else:
                assert abs(arr[idx] - oracles.proxy_gain(state, x, e)) <= 1e-10
        oracles.add_pair(state, x, trace.selected[it])


def test_gain_arrays_identical_across_variants():
    x, absolute_set = random_instance(9, n=25, d=5)
    _, ng = oracles.eager_gain_arrays("ng", x, absolute_set, 6, LAM)
    _, fg = oracles.eager_gain_arrays("fg", x, absolute_set, 6, LAM)
    _, sg = oracles.eager_gain_arrays("sg", x, absolute_set, 6, LAM)
    assert len(ng) == len(fg) == len(sg) == 6
    for a, b, c in zip(ng, fg, sg):
        mask = np.isfinite(a)
        assert np.array_equal(mask, np.isfinite(b)) and np.array_equal(mask, np.isfinite(c))
        assert np.allclose(a[mask], b[mask], rtol=1e-9)
        assert np.allclose(a[mask], c[mask], rtol=1e-9, atol=1e-9)


def test_gains_nonincreasing():
    # submodularity: the greedy gain sequence never increases (up to slack)
    x, absolute_set = random_instance(21, n=40, d=8)
    trace = bench.ENGINES["sg"](x, absolute_set, 12, LAM)
    deltas = np.log1p(trace.gains)
    for earlier, later in zip(deltas, deltas[1:]):
        assert later <= earlier + 1e-9


def test_scalar_drift_bounded():
    # after many downdates the cached gains still match fresh recomputes
    x, absolute_set = random_instance(17, n=80, d=10)
    k = 30
    trace, gain_arrays = oracles.eager_gain_arrays("sg", x, absolute_set, k, LAM)
    state = oracles.init_state(x, absolute_set, LAM)
    for e in trace.selected[:-1]:
        oracles.add_pair(state, x, e)
    oracles.refresh_state(state, x)
    pi, pj = design.pair_arrays(80)
    fresh = greedy.quadratic_gains(x, pi, pj, state.ainv)
    cached = gain_arrays[-1]
    mask = np.isfinite(cached)
    assert np.max(np.abs(cached[mask] - fresh[mask])) <= 1e-7


@pytest.mark.parametrize("lam", [1e-4, 1e4])
@pytest.mark.parametrize("scale", [1e-6, 1.0])
@pytest.mark.parametrize("n,d", [(50, 20), (40, 60), (80, 48)])
def test_scalar_engine_gains_match_a_rebuilt_inverse(n, d, scale, lam):
    # every pick's gain of the scalar engines, which hold A^-1 in product
    # form, is within 1e-9 relative of a fresh quadratic form under A^-1
    # rebuilt from scratch at that pick; the picks are ng's
    k = 20
    for seed in range(3):
        x, absolute_set = random_instance(seed, n=n, d=d)
        x = x * scale
        ng = bench.ENGINES["ng"](x, absolute_set, k, lam)
        fresh = []
        for it, e in enumerate(ng.selected):
            ainv = linalg.invert_spd(design.design_matrix(x, absolute_set, ng.selected[:it], lam))
            xe = design.comparison_feature(x, e)
            fresh.append(float(xe @ ainv @ xe))
        for tag in ("sg", "slp", "slm"):
            trace = bench.ENGINES[tag](x, absolute_set, k, lam)
            assert trace.selected == ng.selected
            drift = np.abs(np.array(trace.gains) - fresh) / np.array(fresh)
            assert drift.max() <= 1e-9, (tag, seed)


@pytest.mark.parametrize("lam", [1e-8, 1e-4, 1e4])
@pytest.mark.parametrize("scale", [1e-6, 1.0])
@pytest.mark.parametrize("n,d", [(30, 8), (40, 64), (60, 20)])
def test_factor_engine_gains_match_naive(n, d, scale, lam):
    # the factorization engines score q_i + q_j - 2 x_i.z_j with z = A^-1 x:
    # every pick's gain is within 1e-12 relative of ng's fresh quadratic
    # form, and the picks are the same, also for d > N and extreme lambda
    k = 20
    for seed in range(3):
        x, absolute_set = random_instance(seed, n=n, d=d)
        x = x * scale
        ng = bench.ENGINES["ng"](x, absolute_set, k, lam)
        for tag in ("fg", "flp", "flm"):
            trace = bench.ENGINES[tag](x, absolute_set, k, lam)
            assert trace.selected == ng.selected, (tag, seed)
            gap = np.abs(np.array(trace.gains) - ng.gains) / np.abs(ng.gains)
            assert gap.max() <= 1e-12, (tag, seed)


def _reduction_case(case):
    """(x, absolute_set, k, lam, pool) of a d > N instance for the row-space tests."""
    rng = np.random.default_rng(0)
    n, d, k, lam, pool = 20, 40, 8, LAM, None
    if case == "n2":
        n, d, k = 2, 5, 1
    elif case == "below-rule":
        d = 29  # 2 d < 3 N: the engines keep X
    elif case == "at-rule":
        d = 30
    elif case.startswith("lambda"):
        lam = float(case.partition("=")[2])
    x = rng.normal(size=(n, d))
    if case == "duplicate-rows":
        x[[5, 12]] = x[3]
        x[17] = x[7]
    elif case == "rank-below-n":
        x = rng.normal(size=(n, 6)) @ rng.normal(size=(6, d))
    elif case == "scaled":
        x *= 1e-6
    elif case == "list-pool":
        pool = [e for e in pair_list(n) if rng.random() < 0.3]
    absolute_set = sorted(rng.choice(n, size=min(5, n), replace=False).tolist())
    return x, absolute_set, k, lam, pool


@pytest.mark.parametrize("case", ["at-rule", "below-rule", "duplicate-rows", "rank-below-n", "n2", "list-pool",
                                  "scaled", "lambda=1e-08", "lambda=10000.0"])
def test_engines_on_sample_coordinates_match_their_raw_runs(case, monkeypatch):
    # above the rule every engine runs on the coordinates R^T of X^T = Q R;
    # each selects the pairs it selects on X itself, gains within 1e-9.
    # Below lambda 1e-4 the bound grows as 1/lambda, as A's condition does:
    # at 1e-8 a gain along a direction that no design row covers is about
    # |x_e|^2 / lambda, and both paths lose about 7 digits of it (each is
    # about 1e-7 from a gain computed in exact rationals)
    x, absolute_set, k, lam, pool = _reduction_case(case)
    rtol = 1e-9 * max(1.0, 1e-4 / lam)
    reduced = design.sample_coordinates(x, lam)
    assert reduced.shape == (len(x), x.shape[1] if case == "below-rule" else min(x.shape))
    traces = {tag: engine(x, absolute_set, k, lam, pool=pool) for tag, engine in bench.ENGINES.items()}
    monkeypatch.setattr(greedy, "sample_coordinates", lambda x, lam: x)
    for tag, engine in bench.ENGINES.items():
        raw = engine(x, absolute_set, k, lam, pool=pool)
        assert traces[tag].selected == raw.selected, tag
        gap = np.abs(np.array(traces[tag].gains) - raw.gains) / np.abs(raw.gains)
        assert gap.max() <= rtol, (tag, gap.max())


@pytest.mark.parametrize("tag", ["fg", "flp", "flm"])
def test_factor_engines_factor_only_in_preprocessing(tag, monkeypatch):
    # preprocessing factors A once; the picks map samples through the A^-1
    # kept by Sherman-Morrison and take no Cholesky factor of their own
    calls = []
    factor = linalg.cholesky_factor
    monkeypatch.setattr(linalg, "cholesky_factor", lambda m: calls.append(1) or factor(m))
    x, absolute_set = random_instance(5, n=30, d=12)
    counts = []
    for k in (1, 10):
        calls.clear()
        bench.ENGINES[tag](x, absolute_set, k, LAM)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_pool_restriction():
    x, absolute_set = random_instance(8, n=20, d=5)
    pool = [(0, 5), (2, 9), (1, 3), (4, 17), (10, 11)]
    trace = bench.ENGINES["fg"](x, absolute_set, 3, LAM, pool=pool)
    assert set(trace.selected) <= set(pool)
    assert len(trace.selected) == 3
    # at k equal to the pool's size the eager search masks every earlier
    # pick up to the last: each pair is selected exactly once
    small_x, small_absolute = random_instance(9, n=6, d=5)
    for tag in ("ng", "fg", "sg"):
        for xs, a, candidates, given in ((small_x, small_absolute, pair_list(6), None), (x, absolute_set, pool, pool)):
            trace = bench.ENGINES[tag](xs, a, len(candidates), LAM, pool=given)
            assert sorted(trace.selected) == sorted(candidates), tag


def test_k_exceeding_pool_raises():
    x, absolute_set = random_instance(8, n=5, d=3)
    with pytest.raises(ValueError):
        bench.ENGINES["ng"](x, absolute_set, 11, LAM)
    with pytest.raises(ValueError):
        bench.ENGINES["sg"](x, absolute_set, 3, LAM, pool=[(0, 1)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_engines_reject_non_finite_features(bad):
    x, absolute_set = random_instance(4, n=12, d=3)
    x[4, 1] = bad
    for tag, engine in bench.ENGINES.items():
        with pytest.raises(ValueError, match="feature row 4 is not finite"):
            engine(x, absolute_set, 5, LAM)
        with pytest.raises(ValueError, match="feature row 4 is not finite"):
            engine(x, [], 5, LAM, pool=[(0, 1), (2, 3), (5, 6), (7, 8), (9, 10)])


@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan])
def test_engines_check_inputs_before_reducing_a_wide_x(lam, monkeypatch):
    # at d > N the checks run on X itself, before any QR: the messages name
    # the caller's lambda and row as they do at d < N
    monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: pytest.fail("QR ran before the input checks"))
    x, absolute_set = random_instance(4, n=12, d=30)
    x[4, 17] = np.nan
    for tag, engine in bench.ENGINES.items():
        with pytest.raises(ValueError, match="feature row 4 is not finite"):
            engine(x, absolute_set, 5, LAM)
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            engine(np.nan_to_num(x), absolute_set, 5, lam)


@pytest.mark.parametrize("bad", [-1, 12, 1.5, np.float64(2.0)])
def test_engines_reject_an_absolute_index_outside_the_samples(bad):
    x, absolute_set = random_instance(4, n=12, d=3)
    for tag, engine in bench.ENGINES.items():
        with pytest.raises(ValueError, match=f"absolute index {bad} is not an integer in 0..11"):
            engine(x, [*absolute_set, bad], 5, LAM)


def test_engines_reject_overflowing_features():
    # a finite but huge feature overflows 1 + x^T A^-1 x: every engine
    # raises instead of returning NaN gains or failing inside its search
    x, absolute_set = random_instance(4, n=12, d=3)
    x[4, 1] = 1e308
    for tag, engine in bench.ENGINES.items():
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PairDesignError):
                engine(x, [i for i in absolute_set if i != 4], 5, LAM)


def test_timing_fields_populated():
    x, absolute_set = random_instance(2, n=15, d=4)
    trace = bench.ENGINES["ng"](x, absolute_set, 5, LAM)
    assert len(trace.find_max_seconds) == 5
    assert len(trace.update_seconds) == 5
    assert trace.total_seconds > 0.0
    assert len(trace.gains) == 5


@pytest.mark.parametrize("explicit_pool", [False, True])
def test_ng_held_rows_match_the_gather_path_bit_for_bit(explicit_pool):
    x, absolute_set = random_instance(4, n=40, d=7)
    pool = None
    if explicit_pool:
        rng = np.random.default_rng(4)
        pool = [e for e in pair_list(40) if rng.random() < 0.4]
    k = 9
    trace, gain_arrays = oracles.eager_gain_arrays("ng", x, absolute_set, k, LAM, pool=pool)
    pi, pj = greedy.resolve_pool(40, pool, k)
    picked = np.zeros(len(pi), dtype=bool)
    state = oracles.init_state(x, absolute_set, LAM)
    for it, held in enumerate(gain_arrays):
        gathered = greedy.quadratic_gains(x, pi, pj, state.ainv)
        gathered[picked] = -np.inf
        assert held.tobytes() == gathered.tobytes(), it
        e = trace.selected[it]
        picked[np.flatnonzero((pi == e[0]) & (pj == e[1]))] = True
        oracles.add_pair(state, x, e)


def _naive_oracle_after_one_pick(search, x, absolute_set, k):
    pi, pj = greedy.resolve_pool(x.shape[0], None, k)
    oracle = greedy.NaiveOracle(x, absolute_set, LAM, pi, pj, k)
    search.start(oracle)
    search.pick(oracle, 0)
    return oracle


def test_multi_chunk_pool_holds_no_rows_and_selects_the_same(monkeypatch):
    x, absolute_set = random_instance(11, n=30, d=6)
    k = 8
    expected = {tag: bench.ENGINES[tag](x, absolute_set, k, LAM) for tag in ("ng", "fg", "sg")}
    assert _naive_oracle_after_one_pick(greedy.EagerSearch(), x, absolute_set, k).rows is not None
    # 435 pairs in chunks of 7
    monkeypatch.setattr(greedy, "_CHUNK", 7)
    chunked = bench.ENGINES["ng"](x, absolute_set, k, LAM)
    for tag, trace in expected.items():
        assert chunked.selected == trace.selected, tag
    assert np.allclose(chunked.gains, expected["ng"].gains, rtol=1e-12, atol=0)
    assert _naive_oracle_after_one_pick(greedy.EagerSearch(), x, absolute_set, k).rows is None


def test_block_refreshes_hold_no_rows():
    x, absolute_set = random_instance(12, n=30, d=6)
    assert _naive_oracle_after_one_pick(lazy.BlockSearch(), x, absolute_set, 5).rows is None


@pytest.mark.parametrize("d", [2, 10, 48, 96, 128])
def test_blocked_sweep_matches_one_product_to_rounding(d):
    # blocks need not round as one product does (on some BLAS kernels they
    # differ in the last bits), but held and gathered rows give the same bits
    rng = np.random.default_rng(d)
    x = rng.normal(size=(60, d))
    ainv = np.linalg.inv(random_spd(rng, d))
    rows_per_block = greedy._BLOCK // d
    # one block short, one full block, a one-row tail, two blocks and a row
    for m in (rows_per_block - 1, rows_per_block, rows_per_block + 1, 2 * rows_per_block + 1):
        blocks = greedy._blocks(m, d)
        assert (len(blocks) > 1) == (m > rows_per_block), m
        assert min(e - s for s, e in blocks) >= 2, m
        pi, pj = rng.integers(0, 60, size=(2, m))
        diff = x[pi] - x[pj]
        reference = np.einsum("ed,ed->e", diff @ ainv, diff)
        gathered = greedy.quadratic_gains(x, pi, pj, ainv)
        held = greedy.quadratic_gains(x, pi, pj, ainv, rows=greedy.difference_rows(x, pi, pj))
        np.testing.assert_allclose(gathered, reference, rtol=1e-14, atol=0, err_msg=str(m))
        assert held.tobytes() == gathered.tobytes(), m


@pytest.mark.parametrize("d, m", [(50, 656), (60, 547)])
def test_held_and_gathered_sweeps_match_bit_for_bit(d, m):
    # two blocks that fall under OpenBLAS's small-matrix path where one
    # product over the whole pool does not: the blocks may round a gain
    # differently from that product, but held and gathered rows agree
    rng = np.random.default_rng(d)
    x = rng.normal(size=(60, d))
    ainv = np.linalg.inv(random_spd(rng, d))
    assert len(greedy._blocks(m, d)) == 2
    pi, pj = rng.integers(0, 60, size=(2, m))
    gathered = greedy.quadratic_gains(x, pi, pj, ainv)
    held = greedy.quadratic_gains(x, pi, pj, ainv, rows=greedy.difference_rows(x, pi, pj))
    assert held.tobytes() == gathered.tobytes()


@pytest.mark.parametrize("held", [False, True])
def test_sweep_scratch_is_a_few_blocks(held):
    # 20,000 pairs at d=48: 7.7 MB of difference rows, 30 sweep blocks
    rng = np.random.default_rng(6)
    d = 48
    x = rng.normal(size=(200, d))
    pi, pj = rng.integers(0, 200, size=(2, 20000))
    ainv = np.linalg.inv(random_spd(rng, d))
    block_bytes = 256 * 1024  # one sweep block of difference rows
    tracemalloc.start()
    try:
        rows = greedy.difference_rows(x, pi, pj) if held else None
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        greedy.quadratic_gains(x, pi, pj, ainv, rows=rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if held:
        # the held rows themselves, plus one block of gather scratch
        assert build_peak < rows.nbytes + 2 * block_bytes
    # up to three blocks of scratch plus the 160 KB of gains
    assert peak - base < 5 * block_bytes
