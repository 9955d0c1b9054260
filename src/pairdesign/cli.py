"""Command-line interface.

Subcommands: select, verify, evaluate, bench. Exit codes: 0 success,
1 verification failure, 2 usage error, 3 I/O error, 4 any other library
error (for example an instance too large for the fisher baseline).
"""

from __future__ import annotations

import argparse
import sys

from . import bench, report
from .errors import ConfigError, PairDesignError, ParseError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_ERROR = 4

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
    return out


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--synthetic", metavar="KV", help="synthetic dataset, e.g. n=500,d=20,c-a=1.2")
    parser.add_argument("--features", metavar="CSV", help="feature matrix CSV (id,f0,...)")
    parser.add_argument("--absolute", metavar="CSV", help="absolute labels CSV (id,label)")
    parser.add_argument("--comparisons", metavar="CSV", help="comparison labels CSV (i,j,label)")


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=20, help="number of comparisons to select")
    parser.add_argument("--lambda", dest="lam", type=float, default=1e-4, help="design ridge weight")
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument("--repeats", type=int, default=1, help="independent repeats")
    parser.add_argument("--workers", type=int, default=None, help="worker processes (default: env or cpu count)")
    parser.add_argument("--out", metavar="PATH", help="write report to PATH")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairdesign",
        description="Greedy D-optimal selection of pairwise comparisons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="run one selection algorithm")
    p_select.add_argument("--algorithm", default="ng", help=f"one of {', '.join(bench.ALGORITHMS)}")
    _add_common_args(p_select)
    _add_dataset_args(p_select)

    p_verify = sub.add_parser("verify", help="check that all design engines select identical sets")
    _add_common_args(p_verify)
    p_verify.add_argument("--instances", type=int, default=bench.VERIFY_INSTANCES)
    p_verify.add_argument("--single", action="store_true", help="verify a single instance")
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--d", type=int, default=None)

    p_eval = sub.add_parser("evaluate", help="selection -> label reveal -> fit -> held-out AUC")
    p_eval.add_argument("--algorithm", default="ng", help=f"one of {', '.join(bench.ALGORITHMS)}")
    _add_common_args(p_eval)
    _add_dataset_args(p_eval)
    p_eval.add_argument("--folds", type=int, default=4)
    p_eval.add_argument("--map-lambda", dest="map_lambda", type=float, default=1e-2)

    p_bench = sub.add_parser("bench", help="timing comparison across design engines")
    p_bench.add_argument("--algorithms", default="ng,fg,sg", help="comma-separated engine tags")
    _add_common_args(p_bench)
    _add_dataset_args(p_bench)

    return parser


def _build_config(args: argparse.Namespace) -> bench.RunConfig:
    config = bench.RunConfig(
        k=args.k,
        lam=args.lam,
        seed=args.seed,
        repeats=args.repeats,
        workers=args.workers,
        out=args.out,
        fmt=args.fmt,
    )
    if getattr(args, "algorithm", None) is not None:
        config.algorithm = args.algorithm
    if getattr(args, "synthetic", None) is not None:
        for field, value in _parse_synthetic(args.synthetic).items():
            setattr(config, field, value)
    if getattr(args, "features", None) is not None:
        config.features_csv = args.features
        config.absolute_csv = getattr(args, "absolute", None)
        config.comparisons_csv = getattr(args, "comparisons", None)
    if getattr(args, "folds", None) is not None:
        config.folds = args.folds
    if getattr(args, "map_lambda", None) is not None:
        config.map_lambda = args.map_lambda
    if getattr(args, "instances", None) is not None:
        config.instances = args.instances
    if getattr(args, "single", False):
        config.single = True
    if getattr(args, "n", None) is not None:
        config.n = args.n
    if getattr(args, "d", None) is not None:
        config.d = args.d
    return config


def _emit(rep: report.Report, config: bench.RunConfig) -> None:
    if config.out:
        report.emit_report(rep, config.fmt, config.out)
    else:
        sys.stdout.write(report.canonical_json(rep.to_dict()) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        if args.command == "select":
            config = _build_config(args)
            rep = bench.run_selection(config)
            _emit(rep, config)
            return EXIT_OK
        if args.command == "verify":
            config = _build_config(args)
            if config.n is None:
                config.n, config.d = bench.VERIFY_GRID[0]
            status, rep = bench.verify_equivalence(config)
            _emit(rep, config)
            print(f"verify: {'PASS' if status == 0 else 'FAIL'} "
                  f"({rep.aggregates['exact']}/{rep.aggregates['instances']} exact) "
                  f"hash={rep.content_hash()}", file=sys.stderr)
            return EXIT_OK if status == 0 else EXIT_VERIFY_FAILED
        if args.command == "evaluate":
            config = _build_config(args)
            rep = bench.run_evaluation(config)
            _emit(rep, config)
            return EXIT_OK
        if args.command == "bench":
            config = _build_config(args)
            config.algorithm = "ng"
            tags = [t.strip() for t in args.algorithms.split(",") if t.strip()]
            rep = bench.run_bench(config, tags)
            _emit(rep, config)
            return EXIT_OK
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PairDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
