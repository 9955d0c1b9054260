import numpy as np
import pytest

from pairdesign import bench, design, greedy
from pairdesign.errors import ConfigError

from conftest import duplicate_row_instance, random_instance


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
    for algorithm in ("sg", "entropy", "random"):
        config = bench.RunConfig(algorithm=algorithm, n=25, d=4, k=6, repeats=2, workers=1)
        rep = bench.run_selection(config)
        assert len(rep.rows) == 2
        for row in rep.rows:
            assert len(row["selected"]) == 6
            assert row["algorithm"] == algorithm
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


def test_verify_detects_corrupted_engine():
    def broken(x, absolute_set, k, lam, pool=None):
        # the override table is passed along, never swapped into the registry
        assert bench.ENGINES["sg"] is greedy.scalar_greedy
        trace = greedy.scalar_greedy(x, absolute_set, k, lam, pool=pool)
        trace.selected = list(reversed(trace.selected))
        return trace

    engines = dict(bench.ENGINES)
    engines["sg"] = broken
    status, rep = bench.verify_equivalence(small_verify_config(), engines=engines)
    assert status == 1
    assert rep.aggregates["failures"]
    assert "sg" in rep.aggregates["failures"][0]["variants"]
    # the override table must not leak into the global registry
    assert bench.ENGINES["sg"] is greedy.scalar_greedy


def test_verify_rejects_bad_lambda():
    with pytest.raises(ConfigError):
        bench.verify_equivalence(small_verify_config(lam=-1.0))


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
    labels = bench._SyntheticLabels(x, beta, 1.2, seed=(0, 1))
    forward = labels.comparisons([(0, 1), (2, 3)])
    backward = labels.comparisons([(2, 3), (0, 1)])
    assert dict(forward) == dict(backward)
    assert labels.absolute([4]) == labels.absolute([4])


def test_run_bench_warms_up_and_reports():
    config = bench.RunConfig(n=20, d=3, k=4, repeats=2, workers=1)
    rep = bench.run_bench(config, ["fg", "sg"])
    assert len(rep.rows) == 4
    assert {row["algorithm"] for row in rep.rows} == {"fg", "sg"}
    with pytest.raises(ConfigError):
        bench.run_bench(config, ["entropy"])


def test_resolve_workers_env(monkeypatch):
    config = bench.RunConfig(n=10, d=2)
    monkeypatch.setenv(bench.WORKERS_ENV, "3")
    assert bench.resolve_workers(config) == 3
    config.workers = 1
    assert bench.resolve_workers(config) == 1
    monkeypatch.delenv(bench.WORKERS_ENV)
    config.workers = None
    assert bench.resolve_workers(config) >= 1


@pytest.mark.parametrize("tag", sorted(bench.ENGINES))
def test_engines_reject_malformed_pools(tag):
    x, absolute_set = random_instance(2, n=12, d=3)
    engine = bench.ENGINES[tag]
    for pool in ([(0, 1), (0, 1)], [(0, 1), (3, 3)], [(0, 1), (5, 2)], [(0, 1), (-1, 3)], [(0, 1), (4, 12)]):
        with pytest.raises(ValueError):
            engine(x, absolute_set, 1, 1e-4, pool=pool)
    assert engine(x, absolute_set, 2, 1e-4, pool=[(4, 11), (0, 1), (2, 3)]).selected[0] in {(0, 1), (2, 3), (4, 11)}


def test_engines_reach_the_naive_objective_on_tied_instances():
    # integer features with duplicate rows tie gains exactly; engines that
    # round a tie differently may pick another pair, but never a worse set
    for seed in range(40):
        x, absolute_set = duplicate_row_instance(seed)
        f_ng = design.objective_value(x, absolute_set, bench.ENGINES["ng"](x, absolute_set, 10, 1e-4).selected, 1e-4)
        for tag, engine in bench.ENGINES.items():
            f = design.objective_value(x, absolute_set, engine(x, absolute_set, 10, 1e-4).selected, 1e-4)
            assert abs(f - f_ng) <= bench.EQUIVALENCE_RTOL * abs(f_ng), (seed, tag)
