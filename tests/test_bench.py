import numpy as np
import pytest

from pairdesign import bench, design, model
from pairdesign.errors import ConfigError, InvalidPool

from conftest import duplicate_row_instance, pair_list, random_instance


def small_verify_config(**kwargs):
    defaults = dict(n=20, d=4, k=5, seed=3, single=True, workers=1)
    defaults.update(kwargs)
    return bench.RunConfig(**defaults)


def test_config_validation():
    with pytest.raises(ConfigError):
        bench.RunConfig(algorithm="bogus", n=10, d=2).validate()
    with pytest.raises(ConfigError):
        bench.RunConfig(k=0, n=10, d=2).validate()
    with pytest.raises(ConfigError):
        bench.RunConfig(lam=0.0, n=10, d=2).validate()
    with pytest.raises(ConfigError):
        bench.RunConfig(n=10, d=2, repeats=0).validate()
    with pytest.raises(ConfigError):
        bench.RunConfig().validate()  # no dataset at all
    with pytest.raises(ConfigError):
        bench.RunConfig(n=10, d=2, fmt="xml").validate()
    bench.RunConfig(n=10, d=2).validate()


def test_make_instance_deterministic():
    x1, a1, _ = bench.make_instance(5, 30, 4)
    x2, a2, _ = bench.make_instance(5, 30, 4)
    assert np.array_equal(x1, x2)
    assert a1 == a2
    assert len(a1) == 10 and all(0 <= i < 30 for i in a1)


def test_run_selection_engine_and_baseline():
    for algorithm in ("sg", "entropy", "fisher", "random"):
        config = bench.RunConfig(algorithm=algorithm, n=25, d=4, k=6, repeats=2, workers=1)
        rep = bench.run_selection(config)
        assert len(rep.rows) == 2
        for row in rep.rows:
            assert len(row["selected"]) == 6
            assert row["algorithm"] == algorithm
            # a baseline times its fit as preprocessing and its selection as one find-max entry
            assert row["total_seconds"] > 0
            assert len(row["find_max_seconds"]) == (6 if algorithm == "sg" else 1)
            if algorithm == "random":
                assert row["preprocessing_seconds"] == 0
        assert "objective_mean" in rep.aggregates


def test_run_selection_hash_stable_across_workers():
    config = bench.RunConfig(algorithm="fg", n=25, d=4, k=5, repeats=4, workers=1)
    serial = bench.run_selection(config)
    config2 = bench.RunConfig(algorithm="fg", n=25, d=4, k=5, repeats=4, workers=2)
    parallel = bench.run_selection(config2)
    assert [r["selected"] for r in serial.rows] == [r["selected"] for r in parallel.rows]
    assert serial.content_hash() == parallel.content_hash()


def test_verify_single_instance_passes():
    status, rep = bench.verify_equivalence(small_verify_config())
    assert status == 0
    assert rep.aggregates["exact"] == 1
    assert rep.aggregates["failures"] == []


def test_verify_detects_corrupted_engine(monkeypatch):
    sg = bench.ENGINES["sg"]

    def broken(x, absolute_set, k, lam, pool=None):
        trace = sg(x, absolute_set, k, lam, pool=pool)
        trace.selected = list(reversed(trace.selected))
        return trace

    # one worker: the instances run in this process, where the table is patched
    monkeypatch.setitem(bench.ENGINES, "sg", broken)
    status, rep = bench.verify_equivalence(small_verify_config(workers=1))
    assert status == 1
    assert rep.aggregates["failures"]
    assert "sg" in rep.aggregates["failures"][0]["variants"]
    # the row's flags come from its variants; only the mismatch carries its selection
    row = rep.rows[0]
    entry = row["variants"]["sg"]
    assert row["exact"] is False
    assert row["within_tolerance"] == entry["within_tolerance"]
    assert set(entry) == {"exact", "selected", "objective", "objective_gap", "within_tolerance"}
    assert entry["exact"] is False
    assert entry["objective_gap"] == abs(entry["objective"] - row["objective_ng"])
    others = {tag: e for tag, e in row["variants"].items() if tag != "sg"}
    assert sorted(others) == sorted(set(bench.ENGINES) - {"ng", "sg"})
    assert all(e == {"exact": True} for e in others.values())


def test_verify_rejects_bad_lambda():
    with pytest.raises(ConfigError):
        bench.verify_equivalence(small_verify_config(lam=-1.0))


@pytest.mark.parametrize("shape", [{"n": 80}, {"d": 5}, {"n": 80, "d": 5}])
def test_verify_sweep_rejects_a_shape(shape):
    # the sweep cycles its own shapes; a report must not record one it never ran
    with pytest.raises(ConfigError, match="--single"):
        bench.verify_equivalence(bench.RunConfig(instances=2, workers=1, **shape))


def test_run_evaluation_shapes():
    config = bench.RunConfig(
        algorithm="random", n=40, d=4, k=10, repeats=2, folds=2, workers=1, n_absolute=6
    )
    rep = bench.run_evaluation(config)
    assert len(rep.rows) == 4  # repeats x folds
    for row in rep.rows:
        assert 0.0 <= row["auc_comparison"] <= 1.0
        assert 0.0 <= row["auc_absolute"] <= 1.0
    assert "auc_comparison_mean" in rep.aggregates


def test_evaluation_labels_are_query_order_independent():
    x = np.random.default_rng(0).normal(size=(10, 3))
    beta = np.ones(3)
    labels = model.SyntheticLabels(x, beta, 1.2, seed=(0, 1))
    forward = labels.comparisons(np.array([0, 2]), np.array([1, 3]))
    backward = labels.comparisons(np.array([2, 0]), np.array([3, 1]))
    assert dict(forward) == dict(backward)
    assert labels.absolute([4]) == labels.absolute([4])


def test_run_bench_warms_up_and_reports():
    config = bench.RunConfig(n=20, d=3, k=4, repeats=2)
    rep = bench.run_bench(config, ["fg", "sg"])
    assert len(rep.rows) == 4
    assert {row["algorithm"] for row in rep.rows} == {"fg", "sg"}
    # the timing aggregates are keyed by engine, each over that engine's rows only
    assert sorted(rep.aggregates) == ["fg", "sg"]
    for tag in ("fg", "sg"):
        own = [row for row in rep.rows if row["algorithm"] == tag]
        assert rep.aggregates[tag]["total_seconds_mean"] == np.mean([row["total_seconds"] for row in own])
        assert rep.aggregates[tag]["preprocessing_seconds_mean"] == np.mean([row["preprocessing_seconds"] for row in own])
    with pytest.raises(ConfigError):
        bench.run_bench(config, ["entropy"])


def test_resolve_workers_env():
    config = bench.RunConfig(n=10, d=2, workers=3)
    assert bench.resolve_workers(config) == 3
    config.workers = 0
    with pytest.raises(ConfigError, match="--workers must be >= 1"):
        bench.resolve_workers(config)
    config.workers = None
    assert bench.resolve_workers(config) >= 1


def selector(tag, x, absolute_set):
    """`select(k, pool)` -> selected pairs, for an engine or a baseline."""
    if tag in bench.ENGINES:
        return lambda k, pool: bench.ENGINES[tag](x, absolute_set, k, 1e-4, pool=pool).selected
    if tag == "random":
        return lambda k, pool: model.random_select(x.shape[0], k, pool, seed=0)
    select = model.entropy_select if tag == "entropy" else model.fisher_select
    return lambda k, pool: select(x, np.ones(x.shape[1]), k, pool)


@pytest.mark.parametrize("tag", sorted(bench.ENGINES) + list(bench.BASELINES))
def test_engines_reject_malformed_pools(tag):
    x, absolute_set = random_instance(2, n=12, d=3)
    select = selector(tag, x, absolute_set)
    bad_pools = [[(0, 1), (0, 1)], [(0, 1), (3, 3)], [(0, 1), (5, 2)], [(0, 1), (-1, 3)]]
    bad_pools += [[(0, 1, 2), (3, 4, 5)], [(0, 1), (0.5, 2)], [(0, 1), (2,)], [(0, 1), (4, 12)]]
    for pool in bad_pools:
        with pytest.raises(InvalidPool):
            select(1, pool)
    with pytest.raises(InvalidPool):
        select(4, [(4, 11), (0, 1), (2, 3)])
    assert select(2, [(4, 11), (0, 1), (2, 3)])[0] in {(0, 1), (2, 3), (4, 11)}
    # a negative k is rejected as one above the pool is; k=0 selects nothing
    for pool in (None, [(0, 1), (2, 3)]):
        with pytest.raises(InvalidPool, match="k=-1 is below 0"):
            select(-1, pool)
        assert select(0, pool) == []


# a row holds the trace's fields, those that are set, and the run's
_ROW_KEYS = {"algorithm", "selected", "gains", "objective", "repeat", "seed", "preprocessing_seconds",
             "find_max_seconds", "update_seconds", "total_seconds"}


@pytest.mark.parametrize("algorithm, extra", [
    ("sg", set()),
    ("slm", {"touch_counts", "memo_counts"}),
    ("random", set()),
])
def test_select_row_keys(algorithm, extra):
    config = bench.RunConfig(algorithm=algorithm, n=12, d=3, k=4, workers=1)
    (row,) = bench.run_selection(config).rows
    assert set(row) == _ROW_KEYS | extra


def test_array_and_list_pools_select_alike():
    x, absolute_set = random_instance(4, n=15, d=3)
    pairs = pair_list(15)[::2]
    shuffled = [pairs[e] for e in np.random.default_rng(4).permutation(len(pairs))]
    for tag in ("slm", "entropy"):
        select = selector(tag, x, absolute_set)
        assert select(6, np.array(pairs)) == select(6, shuffled), tag


def test_engines_reach_the_naive_objective_on_tied_instances():
    # integer features with duplicate rows tie gains exactly; engines that
    # round a tie differently may pick another pair, but never a worse set
    for seed in range(40):
        x, absolute_set = duplicate_row_instance(seed)
        f_ng = design.objective_value(x, absolute_set, bench.ENGINES["ng"](x, absolute_set, 10, 1e-4).selected, 1e-4)
        for tag, engine in bench.ENGINES.items():
            f = design.objective_value(x, absolute_set, engine(x, absolute_set, 10, 1e-4).selected, 1e-4)
            assert abs(f - f_ng) <= bench.EQUIVALENCE_RTOL * abs(f_ng), (seed, tag)
