"""Experiment orchestration: selection runs, equivalence checks, evaluation.

Repeats are keyed by index and seeded as (base_seed, repeat), so a worker
pool produces exactly the per-repeat results of serial execution, in order.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import model, report
from .design import objective_value, pair_arrays
from .errors import ConfigError, DegenerateLabelSet
from .greedy import EagerSearch, Engine, FactorizationOracle, NaiveOracle, ScalarOracle
from .lazy import BlockSearch
from .model import LabeledData
from .trace import SelectionTrace

# The eight design engines: each tag is one search over one gain oracle,
# under a memo policy.
ENGINES = {
    engine.tag: engine
    for engine in (
        Engine("ng", EagerSearch, NaiveOracle),
        Engine("fg", EagerSearch, FactorizationOracle, "precompute"),
        Engine("sg", EagerSearch, ScalarOracle),
        Engine("nl", BlockSearch, NaiveOracle),
        Engine("flp", BlockSearch, FactorizationOracle, "precompute"),
        Engine("flm", BlockSearch, FactorizationOracle, "memoize"),
        Engine("slp", BlockSearch, ScalarOracle, "precompute"),
        Engine("slm", BlockSearch, ScalarOracle, "memoize"),
    )
}
BASELINES = ("entropy", "fisher", "random")
ALGORITHMS = tuple(ENGINES) + BASELINES

# Relative objective tolerance for accepting a near-tie selection mismatch.
EQUIVALENCE_RTOL = 1e-6

# Default equivalence suite: instance shapes cycled over 100 seeds.
VERIFY_GRID = ((50, 10), (50, 40), (200, 10), (200, 40))
VERIFY_INSTANCES = 100


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
        bounds = (("k", self.k, 1), ("seed", self.seed, 0), ("synthetic n", self.n, 1), ("synthetic d", self.d, 1),
                  ("synthetic n-absolute", self.n_absolute, 0), ("repeats", self.repeats, 1), ("folds", self.folds, 1),
                  ("instances", self.instances, 1))
        for name, value, least in bounds:
            if value is not None and value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        for name, value in (("lambda", self.lam), ("map-lambda", self.map_lambda), ("synthetic sigma-x", self.sigma_x),
                            ("synthetic sigma-beta", self.sigma_beta), ("synthetic c-a", self.c_a)):
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
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
    """Worker count from `--workers`, else the CPU count."""
    if config.workers is None:
        return os.cpu_count() or 1
    if config.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {config.workers}")
    return config.workers


def _pmap(fn, items, workers):
    """[fn(item) for item in items], over `workers` processes that run under
    this process's numpy error state."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, initializer=_set_errstate, initargs=(np.geterr(),)) as pool:
        return list(pool.map(fn, items))


def _set_errstate(errstate: dict) -> None:
    np.seterr(**errstate)


def make_instance(seed, n, d, sigma_x=1.0, sigma_beta=1.0, c_a=1.2, n_absolute=10):
    """Synthetic instance: features, absolute-label indices, and the label table."""
    x, beta_true = model.sample_synthetic(n, d, sigma_x, sigma_beta, c_a, seed=seed)
    parts = seed if isinstance(seed, tuple) else (seed,)
    rng = np.random.default_rng((*parts, 1))
    absolute_set = sorted(rng.choice(n, size=min(n_absolute, n), replace=False).tolist())
    # not (*parts, 1), which would tie which samples are labelled to their label draws
    return x, absolute_set, model.SyntheticLabels(x, beta_true, c_a, seed=(*parts, 3))


def _load_csv_instance(config: RunConfig):
    from . import data_io

    x, data = data_io.load_dataset(config.features_csv, config.absolute_csv, config.comparisons_csv)
    absolute_set = sorted({i for i, _ in data.absolute})
    return x, absolute_set, data


def _select(config, x, absolute_set, absolute_labels, pool, seed) -> SelectionTrace:
    """Run `config.algorithm` for `config.k` pairs of `pool` (see `greedy.resolve_pool`).

    Engines design around `absolute_set`; the entropy and fisher baselines
    fit `absolute_labels`, and the random baseline draws from `seed`.
    A baseline's trace times its MAP fit as preprocessing and its whole
    selection as one find-max entry; it records no gains.
    """
    if config.algorithm in ENGINES:
        return ENGINES[config.algorithm](x, absolute_set, config.k, config.lam, pool=pool)
    clock = time.perf_counter
    start = fitted = clock()
    if config.algorithm == "random":
        selected = model.random_select(x.shape[0], config.k, pool, seed=seed)
    else:
        beta = model.map_fit(x, LabeledData(absolute=list(absolute_labels)), config.map_lambda).beta
        fitted = clock()
        select = model.entropy_select if config.algorithm == "entropy" else model.fisher_select
        selected = select(x, beta, config.k, pool)
    return SelectionTrace(config.algorithm, selected, preprocessing_seconds=fitted - start,
                          find_max_seconds=[clock() - fitted])


def _selection_repeat(args) -> dict:
    config, repeat = args
    seed = (config.seed, repeat)
    if config.features_csv is not None:
        x, absolute_set, data = _load_csv_instance(config)
        absolute_labels = data.absolute
    else:
        x, absolute_set, labels = make_instance(
            seed, config.n, config.d, config.sigma_x, config.sigma_beta, config.c_a, config.n_absolute
        )
        absolute_labels = labels.absolute(absolute_set)
    trace = _select(config, x, absolute_set, absolute_labels, None, (*seed, 7))
    objective = objective_value(x, absolute_set, trace.selected, config.lam)
    row = {key: value for key, value in asdict(trace).items() if value is not None}
    return {**row, "total_seconds": trace.total_seconds, "repeat": repeat, "seed": list(seed), "objective": objective}


def run_selection(config: RunConfig) -> report.Report:
    """Run the configured selector for each repeat and collect a report."""
    config.validate()
    if config.features_csv is not None and config.repeats > 1 and config.algorithm != "random":
        raise ConfigError(f"--repeats {config.repeats} repeats one selection: {config.algorithm} on a "
                          "--features dataset draws nothing per repeat; only random does")
    workers = resolve_workers(config)
    rows = _pmap(_selection_repeat, [(config, r) for r in range(config.repeats)], workers)
    return report.Report(
        meta={"command": "select", "config": _config_meta(config)},
        rows=rows,
        aggregates=report.aggregate(rows, ["objective", "total_seconds", "preprocessing_seconds"]),
    )


def _config_meta(config: RunConfig) -> dict:
    """The config fields that shape a run's output; a --features run has no synthetic ones."""
    skip = {"workers", "out"}
    if config.features_csv is not None:
        skip |= {"n", "d", "sigma_x", "sigma_beta", "c_a", "n_absolute"}
    return {key: value for key, value in vars(config).items() if key not in skip}


def _verify_instance(args) -> dict:
    index, seed, n, d, k, lam, n_absolute = args
    x, absolute_set, _ = make_instance(seed, n, d, n_absolute=n_absolute)
    reference = ENGINES["ng"](x, absolute_set, k, lam).selected
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
    for tag, engine in ENGINES.items():
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


def verify_equivalence(config: RunConfig) -> tuple[int, report.Report]:
    """Run all eight design engines on seeded instances and compare sets.

    Exit status 0 when at least 95% of instances agree exactly and every
    mismatch stays within the relative objective tolerance.
    """
    if not config.single and (config.n is not None or config.d is not None):
        raise ConfigError("--n and --d set the shape of a --single instance; the sweep cycles its own shapes")
    # the report records the first grid shape unless --single sets its own
    n, d = VERIFY_GRID[0]
    config = replace(config, n=n if config.n is None else config.n, d=d if config.d is None else config.d)
    config.validate()
    workers = resolve_workers(config)  # checked also where the instances run inline
    shapes, count = ([(config.n, config.d)], 1) if config.single else (VERIFY_GRID, config.instances)
    specs = [(idx, config.seed + idx, *shapes[idx % len(shapes)], config.k, config.lam, config.n_absolute)
             for idx in range(count)]
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


def _pairs_within(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (I, J) of every pair of `samples`, lexicographic order."""
    samples = np.sort(samples)
    a, b = pair_arrays(len(samples))
    return samples[a], samples[b]


def _fold_auc(scores, labelled) -> float | None:
    """Held-out AUC, or None where a fold's labels all fall in one class."""
    try:
        return model.auc(scores, [y for _, y in labelled])
    except DegenerateLabelSet:
        return None


def _evaluation_repeat(args) -> list[dict]:
    config, repeat = args
    x, beta_true = model.sample_synthetic(
        config.n, config.d, config.sigma_x, config.sigma_beta, config.c_a, seed=(config.seed, repeat)
    )
    labels = model.SyntheticLabels(x, beta_true, config.c_a, seed=(config.seed, repeat, 1))
    rng = np.random.default_rng((config.seed, repeat, 2))
    perm = rng.permutation(x.shape[0])
    folds = np.array_split(perm, config.folds) if config.folds > 1 else [perm[: x.shape[0] // 4]]
    rows = []
    for fold_idx, test_idx in enumerate(folds):
        train = perm[~np.isin(perm, test_idx)]
        absolute_set = sorted(train[: config.n_absolute].tolist())
        absolute_labels = labels.absolute(absolute_set)
        pool = np.column_stack(_pairs_within(train))
        selected = _select(
            config, x, absolute_set, absolute_labels, pool, (config.seed, repeat, fold_idx, 7)
        ).selected
        revealed = labels.comparisons(*np.asarray(selected, dtype=np.intp).T)
        fit = model.map_fit(x, LabeledData(absolute_labels, revealed), config.map_lambda)

        # one product over every sample, so no score depends on which pairs a fold holds
        scores = x @ fit.beta
        ti, tj = _pairs_within(test_idx)
        cmp_labels = labels.comparisons(ti, tj)
        cmp_scores = scores[ti] - scores[tj]
        test = np.sort(test_idx)
        abs_labels = labels.absolute(test)
        abs_scores = scores[test]
        row = {
            "repeat": repeat,
            "fold": fold_idx,
            "algorithm": config.algorithm,
            "k": config.k,
            "auc_comparison": _fold_auc(cmp_scores, cmp_labels),
            "auc_absolute": _fold_auc(abs_scores, abs_labels),
            "converged": fit.converged,
        }
        rows.append(row)
    return rows


def run_evaluation(config: RunConfig) -> report.Report:
    """Select, reveal labels, fit, and score held-out AUC per repeat and fold."""
    config.validate()
    if config.features_csv is not None:
        raise ConfigError("evaluation currently supports synthetic datasets only")
    if config.folds > config.n:
        raise ConfigError(f"--folds {config.folds} exceeds the {config.n} synthetic samples: a test fold would be empty")
    # a test fold of 2 samples or fewer holds at most one pair, so its AUC is never defined
    smallest_fold = config.n // config.folds if config.folds > 1 else config.n // 4
    if smallest_fold < 3:
        raise ConfigError(
            f"--folds {config.folds} leaves a test fold of {smallest_fold} of the {config.n} synthetic samples; "
            "an AUC needs at least 3"
        )
    workers = resolve_workers(config)
    nested = _pmap(_evaluation_repeat, [(config, r) for r in range(config.repeats)], workers)
    rows = [row for chunk in nested for row in chunk]
    return report.Report(
        meta={"command": "evaluate", "config": _config_meta(config)},
        rows=rows,
        aggregates=report.aggregate(rows, ["auc_comparison", "auc_absolute"]),
    )


def run_bench(config: RunConfig, algorithms: list[str]) -> report.Report:
    """Timing harness: one discarded warm-up run, then timed repeats.

    The calls run one at a time in this process, so a worker count is
    rejected rather than ignored.
    """
    config.validate()
    if config.workers is not None:
        raise ConfigError(f"--workers {config.workers} does not apply to bench, which times one call at a time")
    if not algorithms:
        raise ConfigError("--algorithms names no engine")
    for tag in algorithms:
        if tag not in ENGINES:
            raise ConfigError(f"bench supports design engines only, got {tag!r}")
    rows = []
    for tag in algorithms:
        cfg = replace(config, algorithm=tag)
        _selection_repeat((cfg, 0))  # warm-up, discarded
        for repeat in range(config.repeats):
            rows.append(_selection_repeat((cfg, repeat)))
    return report.Report(
        meta={"command": "bench", "config": _config_meta(config), "algorithms": list(algorithms)},
        rows=rows,
        aggregates=report.aggregate(rows, ["total_seconds", "preprocessing_seconds"]),
    )
