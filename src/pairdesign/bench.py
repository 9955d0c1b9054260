"""Experiment orchestration: selection runs, equivalence checks, evaluation.

Repeats are keyed by index and seeded as (base_seed, repeat), so a worker
pool produces exactly the per-repeat results of serial execution, in order.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import greedy, lazy, model, report
from .design import Pair, objective_value, pair_universe
from .errors import ConfigError
from .model import LabeledData
from .trace import SelectionTrace

WORKERS_ENV = "PAIRDESIGN_WORKERS"

ENGINES = {
    "ng": greedy.naive_greedy,
    "fg": greedy.factorization_greedy,
    "sg": greedy.scalar_greedy,
    "nl": lazy.naive_lazy,
    "flp": partial(lazy.factorization_lazy, mode="precompute"),
    "flm": partial(lazy.factorization_lazy, mode="memoize"),
    "slp": partial(lazy.scalar_lazy, mode="precompute"),
    "slm": partial(lazy.scalar_lazy, mode="memoize"),
}
BASELINES = ("entropy", "fisher", "random")
ALGORITHMS = tuple(ENGINES) + BASELINES

# Relative objective tolerance for accepting a near-tie selection mismatch.
EQUIVALENCE_RTOL = 1e-6

# Default equivalence suite: instance shapes cycled over 100 seeds.
VERIFY_GRID = ((50, 10), (50, 40), (200, 10), (200, 40))
VERIFY_INSTANCES = 100
VERIFY_K = 20


@dataclass
class RunConfig:
    algorithm: str = "ng"
    k: int = 20
    lam: float = 1e-4
    seed: int = 0
    repeats: int = 1
    # synthetic dataset parameters
    n: int | None = None
    d: int | None = None
    sigma_x: float = 1.0
    sigma_beta: float = 1.0
    c_a: float = 1.2
    n_absolute: int = 10
    # CSV dataset paths (alternative to synthetic)
    features_csv: str | None = None
    absolute_csv: str | None = None
    comparisons_csv: str | None = None
    # evaluation protocol
    folds: int = 4
    map_lambda: float = 1e-2
    # verification suite
    instances: int = VERIFY_INSTANCES
    single: bool = False
    # output
    out: str | None = None
    fmt: str = "json"
    workers: int | None = None

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.lam <= 0:
            raise ConfigError("lambda must be positive")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if self.folds < 1:
            raise ConfigError("folds must be >= 1")
        if self.features_csv is None and self.n is None:
            raise ConfigError("either synthetic parameters (n, d) or --features are required")
        if self.features_csv is None and (self.n is None or self.d is None):
            raise ConfigError("synthetic datasets need both n and d")
        if self.features_csv is None and (self.absolute_csv is not None or self.comparisons_csv is not None):
            raise ConfigError("--absolute and --comparisons label a --features dataset; give --features")
        if self.comparisons_csv is not None:
            raise ConfigError("--comparisons is not supported yet: labelled comparisons are not folded into the design")
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"unknown report format {self.fmt!r}")


def resolve_workers(config: RunConfig) -> int:
    if config.workers is not None:
        return max(1, config.workers)
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _pmap(fn, items, workers):
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def make_instance(seed, n, d, sigma_x=1.0, sigma_beta=1.0, c_a=1.2, n_absolute=10):
    """Synthetic instance: features, absolute-label indices, and a sampler."""
    x, beta_true, sampler = model.sample_synthetic(n, d, sigma_x, sigma_beta, c_a, seed=seed)
    parts = seed if isinstance(seed, tuple) else (seed,)
    rng = np.random.default_rng((*parts, 1))
    absolute_set = sorted(rng.choice(n, size=min(n_absolute, n), replace=False).tolist())
    return x, absolute_set, sampler


def _load_csv_instance(config: RunConfig):
    from . import data_io

    x, data = data_io.load_dataset(config.features_csv, config.absolute_csv, config.comparisons_csv)
    absolute_set = sorted({i for i, _ in data.absolute})
    return x, absolute_set, data


def _trace_row(repeat: int, seed, trace: SelectionTrace, objective: float) -> dict:
    row = {
        "repeat": repeat,
        "seed": list(seed) if isinstance(seed, tuple) else seed,
        "algorithm": trace.variant,
        "selected": [list(e) for e in trace.selected],
        "gains": trace.gains,
        "objective": objective,
        "preprocessing_seconds": trace.preprocessing_seconds,
        "find_max_seconds": trace.find_max_seconds,
        "update_seconds": trace.update_seconds,
        "total_seconds": trace.total_seconds,
    }
    if trace.touch_counts is not None:
        row["touch_counts"] = trace.touch_counts
    if trace.memo_counts is not None:
        row["memo_counts"] = trace.memo_counts
    return row


def _select(config, x, absolute_set, absolute_labels, pool, k, seed) -> SelectionTrace:
    """Run `config.algorithm` for `k` pairs of `pool` (None: every pair).

    Engines design around `absolute_set`; the entropy and fisher baselines
    fit `absolute_labels`, and the random baseline draws from `seed`.
    Baselines report no gains or timings.
    """
    if config.algorithm in ENGINES:
        return ENGINES[config.algorithm](x, absolute_set, k, config.lam, pool=pool)
    if pool is None:
        pool = pair_universe(x.shape[0])
    if config.algorithm == "random":
        selected = model.random_select(pool, k, seed=seed)
    else:
        fit = model.map_fit(x, LabeledData(absolute=list(absolute_labels)), config.map_lambda)
        select = model.entropy_select if config.algorithm == "entropy" else model.fisher_select
        selected = select(x, fit.params.beta, k, pool)
    return SelectionTrace(
        variant=config.algorithm,
        selected=selected,
        gains=[],
        preprocessing_seconds=0.0,
        find_max_seconds=[],
        update_seconds=[],
    )


def _selection_repeat(args) -> dict:
    config, repeat = args
    seed = (config.seed, repeat)
    if config.features_csv is not None:
        x, absolute_set, data = _load_csv_instance(config)
        absolute_labels = data.absolute
    else:
        x, absolute_set, sampler = make_instance(
            seed, config.n, config.d, config.sigma_x, config.sigma_beta, config.c_a, config.n_absolute
        )
        absolute_labels = sampler.absolute_labels(absolute_set)
    trace = _select(config, x, absolute_set, absolute_labels, None, config.k, (*seed, 7))
    objective = objective_value(x, absolute_set, trace.selected, config.lam)
    return _trace_row(repeat, seed, trace, objective)


def run_selection(config: RunConfig) -> report.Report:
    """Run the configured selector for each repeat and collect a report."""
    config.validate()
    workers = resolve_workers(config)
    rows = _pmap(_selection_repeat, [(config, r) for r in range(config.repeats)], workers)
    rep = report.Report(
        meta={"command": "select", "config": _config_meta(config)},
        rows=rows,
        aggregates=report.aggregate(rows, ["objective", "total_seconds", "preprocessing_seconds"]),
    )
    return rep


def _config_meta(config: RunConfig) -> dict:
    meta = {}
    for key, value in vars(config).items():
        if key in ("workers", "out"):
            continue
        meta[key] = value
    return meta


def _verify_instance(args) -> dict:
    index, seed, n, d, k, lam, n_absolute, engines = args
    engines = ENGINES if engines is None else engines
    x, absolute_set, _ = make_instance(seed, n, d, n_absolute=n_absolute)
    reference = engines["ng"](x, absolute_set, k, lam).selected
    f_ref = objective_value(x, absolute_set, reference, lam)
    result = {
        "instance": index,
        "seed": seed,
        "n": n,
        "d": d,
        "k": k,
        "selected_ng": [list(e) for e in reference],
        "objective_ng": f_ref,
        "variants": {},
        "exact": True,
        "within_tolerance": True,
    }
    for tag, engine in engines.items():
        if tag == "ng":
            continue
        selected = engine(x, absolute_set, k, lam).selected
        exact = selected == reference
        entry = {"exact": exact}
        if not exact:
            f_var = objective_value(x, absolute_set, selected, lam)
            entry["selected"] = [list(e) for e in selected]
            entry["objective"] = f_var
            entry["objective_gap"] = abs(f_var - f_ref)
            within = abs(f_var - f_ref) <= EQUIVALENCE_RTOL * abs(f_ref)
            entry["within_tolerance"] = within
            result["exact"] = False
            result["within_tolerance"] = result["within_tolerance"] and within
        result["variants"][tag] = entry
    return result


def verify_equivalence(config: RunConfig, engines=None) -> tuple[int, report.Report]:
    """Run all eight design engines on seeded instances and compare sets.

    `engines` replaces the `ENGINES` table for this call (it must include
    "ng"); such a table runs inline, as its entries need not be picklable.
    Exit status 0 when at least 95% of instances agree exactly and every
    mismatch stays within the relative objective tolerance.
    """
    if config.lam <= 0:
        raise ConfigError("lambda must be positive")
    if config.single:
        n = config.n or VERIFY_GRID[0][0]
        d = config.d or VERIFY_GRID[0][1]
        specs = [(0, config.seed, n, d, config.k, config.lam, config.n_absolute, engines)]
        workers = 1
    else:
        specs = []
        for idx in range(config.instances):
            n, d = VERIFY_GRID[idx % len(VERIFY_GRID)]
            specs.append((idx, config.seed + idx, n, d, VERIFY_K, config.lam, config.n_absolute, engines))
        workers = resolve_workers(config) if engines is None else 1
    results = _pmap(_verify_instance, specs, workers)

    exact_count = sum(1 for r in results if r["exact"])
    tolerated = all(r["within_tolerance"] for r in results)
    passed = exact_count >= int(np.ceil(0.95 * len(results))) and tolerated
    failures = [
        {
            "instance": r["instance"],
            "seed": r["seed"],
            "n": r["n"],
            "d": r["d"],
            "variants": sorted(tag for tag, e in r["variants"].items() if not e["exact"]),
        }
        for r in results
        if not r["exact"]
    ]
    rep = report.Report(
        meta={"command": "verify", "config": _config_meta(config)},
        rows=results,
        aggregates={
            "instances": len(results),
            "exact": exact_count,
            "within_tolerance": bool(tolerated),
            "passed": bool(passed),
            "failures": failures,
        },
    )
    return (0 if passed else 1), rep


def _pair_index(i: int, j: int, n: int) -> int:
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


class _SyntheticLabels:
    """Repeat-level label table: each label is a pure function of its index.

    Uniform draws for every sample and pair are generated up front so that
    the labels revealed for a selection never depend on query order.
    """

    def __init__(self, x, beta_true, c_a, seed):
        rng = np.random.default_rng(seed)
        n = x.shape[0]
        self._x = x
        self._beta = beta_true
        self._c_a = c_a
        self._n = n
        self._u_abs = rng.random(n)
        self._u_cmp = rng.random(n * (n - 1) // 2)

    def absolute(self, indices) -> list[tuple[int, int]]:
        from scipy.special import expit

        idx = np.asarray(list(indices), dtype=np.intp)
        p = expit(self._x[idx] @ (self._beta / self._c_a))
        return [(int(i), 1 if self._u_abs[i] < pi else -1) for i, pi in zip(idx, p)]

    def comparisons(self, pairs) -> list[tuple[Pair, int]]:
        from scipy.special import expit

        pairs = list(pairs)
        if not pairs:
            return []
        arr = np.asarray(pairs, dtype=np.intp)
        p = expit((self._x[arr[:, 0]] - self._x[arr[:, 1]]) @ self._beta)
        lin = [_pair_index(i, j, self._n) for i, j in pairs]
        return [
            ((int(i), int(j)), 1 if self._u_cmp[l] < pi else -1)
            for (i, j), l, pi in zip(pairs, lin, p)
        ]


def _evaluation_repeat(args) -> list[dict]:
    config, repeat = args
    x, beta_true, _ = model.sample_synthetic(
        config.n, config.d, config.sigma_x, config.sigma_beta, config.c_a, seed=(config.seed, repeat)
    )
    labels = _SyntheticLabels(x, beta_true, config.c_a, seed=(config.seed, repeat, 1))
    rng = np.random.default_rng((config.seed, repeat, 2))
    perm = rng.permutation(x.shape[0])
    folds = np.array_split(perm, config.folds) if config.folds > 1 else [perm[: x.shape[0] // 4]]
    rows = []
    for fold_idx, test_idx in enumerate(folds):
        test = set(int(i) for i in test_idx)
        train = [int(i) for i in perm if int(i) not in test]
        absolute_set = sorted(train[: config.n_absolute])
        absolute_labels = labels.absolute(absolute_set)
        train_sorted = sorted(train)
        pool = [
            (train_sorted[a], train_sorted[b])
            for a in range(len(train_sorted))
            for b in range(a + 1, len(train_sorted))
        ]
        k = min(config.k, len(pool))
        selected = _select(
            config, x, absolute_set, absolute_labels, pool, k, (config.seed, repeat, fold_idx, 7)
        ).selected
        revealed = labels.comparisons(selected)
        fit = model.map_fit(x, LabeledData(absolute_labels, revealed), config.map_lambda)
        beta = fit.params.beta

        test_sorted = sorted(test)
        test_pairs = [(i, j) for a, i in enumerate(test_sorted) for j in test_sorted[a + 1:]]
        cmp_labels = labels.comparisons(test_pairs)
        cmp_scores = [float(beta @ (x[i] - x[j])) for (i, j), _ in cmp_labels]
        abs_labels = labels.absolute(test_sorted)
        abs_scores = [float(beta @ x[i]) for i, _ in abs_labels]
        row = {
            "repeat": repeat,
            "fold": fold_idx,
            "algorithm": config.algorithm,
            "k": k,
            "auc_comparison": model.auc(cmp_scores, [y for _, y in cmp_labels]),
            "auc_absolute": model.auc(abs_scores, [y for _, y in abs_labels]),
            "converged": fit.converged,
        }
        rows.append(row)
    return rows


def run_evaluation(config: RunConfig) -> report.Report:
    """Select, reveal labels, fit, and score held-out AUC per repeat and fold."""
    config.validate()
    if config.features_csv is not None:
        raise ConfigError("evaluation currently supports synthetic datasets only")
    workers = resolve_workers(config)
    nested = _pmap(_evaluation_repeat, [(config, r) for r in range(config.repeats)], workers)
    rows = [row for chunk in nested for row in chunk]
    rep = report.Report(
        meta={"command": "evaluate", "config": _config_meta(config)},
        rows=rows,
        aggregates=report.aggregate(rows, ["auc_comparison", "auc_absolute"]),
    )
    return rep


def run_bench(config: RunConfig, algorithms: list[str]) -> report.Report:
    """Timing harness: one discarded warm-up run, then timed repeats."""
    config.validate()
    for tag in algorithms:
        if tag not in ENGINES:
            raise ConfigError(f"bench supports design engines only, got {tag!r}")
    rows = []
    for tag in algorithms:
        cfg = replace(config, algorithm=tag)
        _selection_repeat((cfg, 0))  # warm-up, discarded
        for repeat in range(config.repeats):
            rows.append(_selection_repeat((cfg, repeat)))
    rep = report.Report(
        meta={"command": "bench", "config": _config_meta(config), "algorithms": list(algorithms)},
        rows=rows,
        aggregates=report.aggregate(rows, ["total_seconds", "preprocessing_seconds"]),
    )
    return rep
