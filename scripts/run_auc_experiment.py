#!/usr/bin/env python3
"""Compare held-out AUC of the D-optimal selector against the baselines.

Runs the synthetic evaluation protocol (select -> reveal labels -> MAP fit
-> test AUC) for each algorithm and prints mean/std per metric.

Example:
    python scripts/run_auc_experiment.py --n 500 --d 20 --k 100 --repeats 10
"""

from __future__ import annotations

import argparse

from pairdesign.bench import RunConfig, run_evaluation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--algorithms", default="sg,entropy,fisher,random")
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--d", type=int, default=20)
    parser.add_argument("--k", type=int, default=100)
    parser.add_argument("--c-a", dest="c_a", type=float, default=1.2)
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--folds", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--map-lambda", dest="map_lambda", type=float, default=1e-2)
    args = parser.parse_args()

    for tag in [t for t in args.algorithms.split(",") if t]:
        config = RunConfig(
            algorithm=tag,
            n=args.n,
            d=args.d,
            k=args.k,
            c_a=args.c_a,
            repeats=args.repeats,
            folds=args.folds,
            seed=args.seed,
            map_lambda=args.map_lambda,
        )
        agg = run_evaluation(config).aggregates
        print(f"{tag:>8}: comparison AUC {_mean_std(agg, 'auc_comparison')}   "
              f"absolute AUC {_mean_std(agg, 'auc_absolute')}")


def _mean_std(agg: dict, name: str) -> str:
    """`mean +/- std`, or `n/a` where no fold had a defined AUC."""
    if f"{name}_mean" not in agg:
        return "n/a"
    return f"{agg[name + '_mean']:.4f} +/- {agg[name + '_std']:.4f}"


if __name__ == "__main__":
    main()
