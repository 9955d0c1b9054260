"""Command-line interface.

Subcommands: select, verify, evaluate, bench. Exit codes: 0 success,
1 verification failure, 2 usage error (for example k above the candidate
pool), 3 I/O error or malformed CSV, 4 any other library error (for
example a design matrix that is not positive definite).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import bench, report
from .errors import ConfigError, PairDesignError, ParseError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_ERROR = 4

# The exit code of an error: that of the first class in its MRO listed here.
_EXIT_CODES = {ConfigError: EXIT_USAGE, ParseError: EXIT_IO, OSError: EXIT_IO, PairDesignError: EXIT_ERROR}

_SYNTHETIC_KEYS = {
    "n": ("n", int),
    "d": ("d", int),
    "sigma-x": ("sigma_x", float),
    "sigma-beta": ("sigma_beta", float),
    "c-a": ("c_a", float),
    "n-absolute": ("n_absolute", int),
}


def _parse_synthetic(text: str) -> dict:
    """Parse `n=500,d=20,c-a=1.2` style synthetic dataset descriptions."""
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep or key not in _SYNTHETIC_KEYS:
            raise ConfigError(f"bad synthetic parameter {item!r}; keys: {sorted(_SYNTHETIC_KEYS)}")
        field, cast = _SYNTHETIC_KEYS[key]
        try:
            out[field] = cast(value)
        except ValueError:
            raise ConfigError(f"bad value for synthetic parameter {key!r}: {value!r}") from None
    # only here is it known that n-absolute was given: the default of 10 is
    # capped at a smaller n, a value given above n is rejected
    if "n_absolute" in out and "n" in out and out["n_absolute"] > out["n"]:
        raise ConfigError(f"synthetic n-absolute {out['n_absolute']} exceeds the {out['n']} samples of n")
    return out


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--synthetic", metavar="KV", help="synthetic dataset, e.g. n=500,d=20,c-a=1.2")
    parser.add_argument("--features", dest="features_csv", metavar="CSV", help="feature matrix CSV (id,f0,...)")
    parser.add_argument("--absolute", dest="absolute_csv", metavar="CSV", help="absolute labels CSV (id,label)")
    parser.add_argument("--comparisons", dest="comparisons_csv", metavar="CSV", help="comparison labels CSV (i,j,label); not supported yet, rejected")
    parser.add_argument("--repeats", type=int, help="independent repeats, repeat r drawing its synthetic dataset from (seed, r)")


def _add_common_args(parser: argparse.ArgumentParser,
                     workers_help: str = "worker processes (default: cpu count)") -> None:
    parser.add_argument("--k", type=int, help="number of comparisons to select")
    parser.add_argument("--lambda", dest="lam", type=float, help="design ridge weight")
    parser.add_argument("--seed", type=int, help="base random seed")
    parser.add_argument("--workers", type=int, help=workers_help)
    parser.add_argument("--out", metavar="PATH", help="write report to PATH")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairdesign",
        description="Greedy D-optimal selection of pairwise comparisons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="run one selection algorithm")
    p_select.add_argument("--algorithm", help=f"one of {', '.join(bench.ALGORITHMS)}")
    _add_common_args(p_select)
    _add_dataset_args(p_select)

    p_verify = sub.add_parser("verify", help="check that all design engines select identical sets")
    _add_common_args(p_verify)
    p_verify.add_argument("--instances", type=int)
    p_verify.add_argument("--single", action="store_true", help="verify a single instance")
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--d", type=int)

    p_eval = sub.add_parser("evaluate", help="selection -> label reveal -> fit -> held-out AUC")
    p_eval.add_argument("--algorithm", help=f"one of {', '.join(bench.ALGORITHMS)}")
    _add_common_args(p_eval)
    _add_dataset_args(p_eval)
    p_eval.add_argument("--folds", type=int)
    p_eval.add_argument("--map-lambda", dest="map_lambda", type=float)

    p_bench = sub.add_parser("bench", help="timing comparison across design engines")
    p_bench.add_argument("--algorithms", default="ng,fg,sg", help="comma-separated engine tags")
    _add_common_args(p_bench, workers_help="not accepted: bench times one call at a time, in this process")
    _add_dataset_args(p_bench)

    return parser


def _build_config(args: argparse.Namespace) -> bench.RunConfig:
    """RunConfig from the parsed flags; a flag left unset keeps the default."""
    fields = {f.name for f in dataclasses.fields(bench.RunConfig)}
    config = bench.RunConfig(**{f: v for f, v in vars(args).items() if f in fields and v is not None})
    if getattr(args, "single", False) and args.instances is not None:
        raise ConfigError(f"--instances {args.instances} sizes the sweep; --single verifies one instance")
    if getattr(args, "synthetic", None) is not None:
        if config.features_csv is not None:
            raise ConfigError("--synthetic and --features each give the dataset; give one")
        for field, value in _parse_synthetic(args.synthetic).items():
            setattr(config, field, value)
    return config


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    # Floating-point overflow in the engines surfaces as a library error (for
    # example DegenerateUpdate); numpy's RuntimeWarnings on the way there would
    # only clutter stderr. One error state for the command, not one per pick;
    # `bench` hands it on to worker processes.
    import numpy as np

    with np.errstate(all="ignore"):
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    try:
        config = _build_config(args)
        if args.command == "verify":
            status, rep = bench.verify_equivalence(config)
            report.emit_report(rep, config.fmt, config.out)
            print(f"verify: {'PASS' if status == 0 else 'FAIL'} "
                  f"({rep.aggregates['exact']}/{rep.aggregates['instances']} exact) "
                  f"hash={rep.content_hash()}", file=sys.stderr)
            return EXIT_OK if status == 0 else EXIT_VERIFY_FAILED
        if args.command == "select":
            rep = bench.run_selection(config)
        elif args.command == "evaluate":
            rep = bench.run_evaluation(config)
        else:  # bench
            tags = [t.strip() for t in args.algorithms.split(",") if t.strip()]
            rep = bench.run_bench(config, tags)
        report.emit_report(rep, config.fmt, config.out)
        return EXIT_OK
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)

