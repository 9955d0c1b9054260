import csv
import io
import json

import numpy as np
import pytest

from pairdesign import bench, cli, data_io
from pairdesign.errors import ConfigError


def test_select_synthetic(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(
        [
            "select", "--algorithm", "sg", "--k", "4", "--seed", "1",
            "--synthetic", "n=20,d=4", "--out", str(out), "--workers", "1",
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["config"]["algorithm"] == "sg"
    assert len(payload["rows"][0]["selected"]) == 4


def test_select_stdout_when_no_out(capsys):
    code = cli.main(["select", "--k", "2", "--synthetic", "n=10,d=3", "--workers", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1


def test_select_from_csv(tmp_path):
    rng = np.random.default_rng(0)
    data_io.write_features(tmp_path / "x.csv", rng.normal(size=(15, 3)))
    data_io.write_absolute(tmp_path / "a.csv", [(0, 1), (3, -1)])
    out = tmp_path / "report.json"
    code = cli.main(
        [
            "select", "--algorithm", "fg", "--k", "3",
            "--features", str(tmp_path / "x.csv"), "--absolute", str(tmp_path / "a.csv"),
            "--out", str(out), "--workers", "1",
        ]
    )
    assert code == 0
    assert len(json.loads(out.read_text())["rows"][0]["selected"]) == 3


def test_verify_single(tmp_path, capsys):
    code = cli.main(
        ["verify", "--single", "--n", "15", "--d", "3", "--k", "4", "--workers", "1",
         "--out", str(tmp_path / "v.json")]
    )
    assert code == 0
    assert "PASS" in capsys.readouterr().err


def test_verify_grid_runs_the_given_k(tmp_path, capsys):
    out = tmp_path / "v.json"
    code = cli.main(["verify", "--k", "3", "--instances", "2", "--workers", "1", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row["k"] for row in rows] == [3, 3]
    assert all(len(row["selected_ng"]) == 3 for row in rows)


def test_evaluate(tmp_path):
    out = tmp_path / "eval.json"
    code = cli.main(
        [
            "evaluate", "--algorithm", "random", "--k", "8", "--synthetic", "n=30,d=3",
            "--folds", "2", "--repeats", "1", "--out", str(out), "--workers", "1",
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["rows"]) == 2


def test_bench(tmp_path):
    out = tmp_path / "bench.json"
    code = cli.main(
        ["bench", "--algorithms", "fg,sg", "--k", "3", "--synthetic", "n=15,d=3", "--out", str(out)]
    )
    assert code == 0
    assert len(json.loads(out.read_text())["rows"]) == 2


@pytest.mark.parametrize("argv", [
    ["select", "--algorithm", "random", "--synthetic", "n=6,d=2", "--k", "2", "--workers", "1"],
    ["bench", "--algorithms", "sg", "--synthetic", "n=6,d=2", "--k", "2"],
])
def test_csv_format_holds_on_stdout(tmp_path, capsys, argv):
    out = tmp_path / "report.csv"
    assert cli.main(argv + ["--format", "csv", "--out", str(out)]) == 0
    assert cli.main(argv + ["--format", "csv"]) == 0
    printed, written = capsys.readouterr().out, out.read_text()
    rows = list(csv.reader(io.StringIO(printed)))
    assert rows[0] == next(csv.reader(io.StringIO(written)))
    assert "selected" in rows[0] and len(rows) == len(written.splitlines()) == 2
    if argv[0] == "select":  # the random baseline reports no wall times
        assert printed == written


@pytest.mark.parametrize("argv, columns", [
    (["verify", "--single", "--k", "2", "--n", "8", "--d", "2"], ["variants", "selected_ng", "exact"]),
    (["select", "--synthetic", "n=10,d=2", "--k", "3", "--workers", "1"], ["selected"]),
])
def test_csv_nested_cells_parse_back_to_the_json_values(capsys, argv, columns):
    # a dict or a list of pairs is one JSON cell; a boolean is true/false
    cli.main(argv + ["--format", "csv"])
    header, row = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    cli.main(argv)
    expected = json.loads(capsys.readouterr().out)["rows"][0]
    cells = dict(zip(header, row))
    assert {c: json.loads(cells[c]) for c in columns} == {c: expected[c] for c in columns}


@pytest.mark.parametrize("value", ["0", "1", "9"])
def test_verify_rejects_repeats(capsys, value):
    assert cli.main(["verify", "--single", "--k", "3", "--workers", "1", "--repeats", value]) == 2
    assert "unrecognized arguments: --repeats" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert cli.main(["select", "--algorithm", "bogus", "--synthetic", "n=10,d=2"]) == 2
    assert cli.main(["select", "--k", "0", "--synthetic", "n=10,d=2"]) == 2
    assert cli.main(["select"]) == 2  # no dataset
    assert cli.main(["bogus-command"]) == 2
    assert cli.main(["select", "--synthetic", "n=10,d=2,bogus=1"]) == 2
    capsys.readouterr()


def test_io_errors(tmp_path, capsys):
    assert cli.main(["select", "--features", str(tmp_path / "missing.csv")]) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("id,f0\n0,not-a-number\n")
    assert cli.main(["select", "--features", str(bad)]) == 3
    capsys.readouterr()


def test_comparisons_csv_is_rejected(tmp_path, capsys):
    rng = np.random.default_rng(0)
    data_io.write_features(tmp_path / "x.csv", rng.normal(size=(15, 3)))
    data_io.write_comparisons(tmp_path / "c.csv", [((0, 1), 1), ((2, 5), -1)])
    for command in ("select", "bench"):
        code = cli.main(
            [command, "--k", "3", "--features", str(tmp_path / "x.csv"),
             "--comparisons", str(tmp_path / "c.csv"), "--workers", "1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--comparisons" in err


def test_label_csvs_without_features_are_rejected(tmp_path, capsys):
    data_io.write_absolute(tmp_path / "a.csv", [(0, 1), (3, -1)])
    data_io.write_comparisons(tmp_path / "c.csv", [((0, 1), 1)])
    for command in ("select", "evaluate", "bench"):
        for flag, path in (("--absolute", "a.csv"), ("--comparisons", "c.csv")):
            code = cli.main(
                [command, "--k", "3", "--synthetic", "n=10,d=2", flag, str(tmp_path / path),
                 "--workers", "1"]
            )
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "--features" in err


def test_library_errors_exit_4(capsys):
    # 150 training samples give 11,175 candidate pairs, past fisher's guard
    code = cli.main(
        ["evaluate", "--algorithm", "fisher", "--synthetic", "n=200,d=10", "--k", "5",
         "--folds", "1", "--workers", "1"]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0


def test_parse_synthetic():
    parsed = cli._parse_synthetic("n=500,d=20,sigma-x=2.0,sigma-beta=0.5,c-a=1.2,n-absolute=7")
    assert parsed == {
        "n": 500, "d": 20, "sigma_x": 2.0, "sigma_beta": 0.5, "c_a": 1.2, "n_absolute": 7,
    }
    with pytest.raises(ConfigError):
        cli._parse_synthetic("n=abc")
    with pytest.raises(ConfigError):
        cli._parse_synthetic("width=3")
    # an n-absolute given above n is rejected; up to n, or left to its default, it passes
    assert cli._parse_synthetic("n=10,n-absolute=10") == {"n": 10, "n_absolute": 10}
    assert cli._parse_synthetic("n=6,d=2") == {"n": 6, "d": 2}
    with pytest.raises(ConfigError, match="n-absolute 11 exceeds"):
        cli._parse_synthetic("n-absolute=11,n=10")


# (n, folds) -> the (comparison, absolute) AUCs per fold at seed 0; None where
# the draw puts every label of the test fold in one class
_SMALL_FOLD_AUCS = {
    (12, 4): [(None, 1.0), (1.0, 0.0), (0.0, None), (None, None)],
    (12, 1): [(None, 1.0)],
    (20, 6): [(1.0, 1 / 3), (0.5, 0.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (None, None)],
}


@pytest.mark.parametrize("n, folds", [(12, 4), (12, 1), (20, 6)])
def test_test_folds_of_three_samples_are_not_usage_errors(tmp_path, capsys, n, folds):
    # a fold whose labels fall in one class scores a null AUC; the other folds are kept
    out = tmp_path / "evaluate.json"
    code = cli.main(["evaluate", "--synthetic", f"n={n},d=3", "--algorithm", "random", "--k", "3",
                     "--folds", str(folds), "--workers", "1", "--out", str(out)])
    assert code == 0
    assert "--folds" not in capsys.readouterr().err
    payload = json.loads(out.read_text())
    aucs = [(row["auc_comparison"], row["auc_absolute"]) for row in payload["rows"]]
    assert aucs == _SMALL_FOLD_AUCS[n, folds]
    for key in ("auc_comparison", "auc_absolute"):
        scored = [row[key] for row in payload["rows"] if row[key] is not None]
        assert payload["aggregates"].get(f"{key}_mean") == (pytest.approx(np.mean(scored)) if scored else None)


def test_k_above_the_pool_is_a_usage_error_for_every_algorithm(capsys):
    for algorithm in bench.ALGORITHMS:
        code = cli.main(["select", "--algorithm", algorithm, "--synthetic", "n=3,d=2", "--k", "5", "--workers", "1"])
        assert code == 2, algorithm
        assert "error: k=5 exceeds candidate pool of 3 pairs" in capsys.readouterr().err, algorithm
        # one fold holds out 3 of 12 samples: a training pool of 36 pairs
        code = cli.main(["evaluate", "--algorithm", algorithm, "--synthetic", "n=12,d=2,n-absolute=2",
                         "--k", "500", "--folds", "1", "--workers", "1"])
        assert code == 2, algorithm
        assert "error: k=500 exceeds candidate pool of 36 pairs" in capsys.readouterr().err, algorithm


_SELECT = ["select", "--synthetic", "n=10,d=2", "--workers", "1"]
_SINGLE = ["verify", "--single", "--k", "3", "--workers", "1"]
_EVALUATE = ["evaluate", "--synthetic", "n=20,d=3", "--algorithm", "random", "--k", "3", "--folds", "1", "--workers", "1"]


@pytest.mark.parametrize("argv, workers_env, message", [
    (_SELECT + ["--lambda", "nan"], None, "lambda must be positive and finite"),
    (_SELECT + ["--lambda", "inf"], None, "lambda must be positive and finite"),
    (_SINGLE + ["--lambda", "nan"], None, "lambda must be positive and finite"),
    (_SINGLE + ["--lambda", "inf"], None, "lambda must be positive and finite"),
    (_SELECT + ["--synthetic", "n=20,d=0"], None, "synthetic d must be >= 1"),
    (_SELECT + ["--synthetic", "n=-1,d=3"], None, "synthetic n must be >= 1"),
    (_SELECT + ["--synthetic", "n=20,d=3,n-absolute=-1"], None, "synthetic n-absolute must be >= 0"),
    (_SELECT + ["--workers", "0"], None, "--workers must be >= 1"),
    (_SELECT + ["--workers", "-2"], None, "--workers must be >= 1"),
    (_SINGLE + ["--workers", "0"], None, "--workers must be >= 1"),
    (_SELECT[:-2], "abc", "PAIRDESIGN_WORKERS must be an integer"),
    (_SELECT[:-2], "0", "PAIRDESIGN_WORKERS must be >= 1"),
    (["verify", "--instances", "0", "--workers", "1"], None, "instances must be >= 1"),
    (_SINGLE + ["--k", "0"], None, "k must be >= 1"),
    (["verify", "--n", "15", "--instances", "1", "--workers", "1"], None, "--single"),
    (["verify", "--d", "5", "--instances", "1", "--workers", "1"], None, "--single"),
    (_EVALUATE + ["--map-lambda", "nan"], None, "map-lambda must be positive and finite"),
    (_EVALUATE + ["--map-lambda", "inf"], None, "map-lambda must be positive and finite"),
    (_EVALUATE + ["--map-lambda", "0"], None, "map-lambda must be positive and finite"),
    (_EVALUATE + ["--map-lambda", "-1"], None, "map-lambda must be positive and finite"),
    (["bench", "--algorithms", "sg", "--k", "3", "--synthetic", "n=20,d=3", "--workers", "0"], None, "--workers"),
    (["bench", "--algorithms", "sg", "--k", "3", "--synthetic", "n=20,d=3", "--workers", "1"], None, "--workers"),
    (_SELECT + ["--synthetic", "n=6,d=2,sigma-x=0", "--k", "2"], None, "synthetic sigma-x must be positive and finite"),
    (_SELECT + ["--synthetic", "n=6,d=2,sigma-x=nan", "--k", "2"], None, "synthetic sigma-x must be positive and finite"),
    (_SELECT + ["--synthetic", "n=6,d=2,c-a=-1", "--k", "2"], None, "synthetic c-a must be positive and finite"),
    (_SELECT + ["--synthetic", "n=6,d=2,c-a=inf", "--k", "2"], None, "synthetic c-a must be positive and finite"),
    (_SELECT + ["--synthetic", "n=6,d=2,sigma-beta=inf", "--k", "2", "--algorithm", "entropy"], None,
     "synthetic sigma-beta must be positive and finite"),
    (_SELECT + ["--synthetic", "n=6,d=2,sigma-beta=0", "--k", "2"], None, "synthetic sigma-beta must be positive and finite"),
    (_EVALUATE[:-4] + ["--folds", "21", "--workers", "1"], None, "--folds 21 exceeds the 20 synthetic samples"),
    (["bench", "--algorithms", "", "--k", "3", "--synthetic", "n=20,d=3"], None, "--algorithms names no engine"),
    (["bench", "--algorithms", ",,", "--k", "3", "--synthetic", "n=20,d=3"], None, "--algorithms names no engine"),
    # a test fold of 2 samples or fewer has at most one pair: no AUC can be scored
    (_EVALUATE[:-4] + ["--folds", "10", "--workers", "1"], None, "--folds 10 leaves a test fold of 2"),
    (_EVALUATE[:-4] + ["--folds", "11", "--workers", "1"], None, "--folds 11 leaves a test fold of 1"),
    (["evaluate", "--synthetic", "n=8,d=2", "--algorithm", "random", "--k", "3", "--folds", "1", "--workers", "1"],
     None, "--folds 1 leaves a test fold of 2"),
    (_SELECT + ["--synthetic", "n=10,d=3,n-absolute=20", "--k", "2"], None,
     "synthetic n-absolute 20 exceeds the 10 samples"),
    (["bench", "--algorithms", "sg", "--k", "2", "--synthetic", "n=10,d=3,n-absolute=30"], None,
     "synthetic n-absolute 30 exceeds the 10 samples"),
    (_SELECT + ["--repeats", "0"], None, "repeats must be >= 1"),
    (_EVALUATE[:-4] + ["--folds", "0", "--workers", "1"], None, "folds must be >= 1"),
    (_SELECT + ["--algorithm", "nope"], None, "unknown algorithm"),
    (["select", "--workers", "1"], None, "either synthetic parameters"),
    (["select", "--synthetic", "n=10", "--workers", "1"], None, "need both n and d"),
])
def test_usage_error_names_the_bad_value(capsys, monkeypatch, argv, workers_env, message):
    monkeypatch.delenv(bench.WORKERS_ENV, raising=False)
    if workers_env is not None:
        monkeypatch.setenv(bench.WORKERS_ENV, workers_env)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("flag, shape", [("--n", (15, 10)), ("--d", (50, 5))])
def test_verify_single_honours_a_lone_shape_flag(tmp_path, flag, shape):
    out = tmp_path / "v.json"
    value = str(shape[0] if flag == "--n" else shape[1])
    assert cli.main(["verify", "--single", flag, value, "--k", "3", "--workers", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert [(row["n"], row["d"]) for row in payload["rows"]] == [shape]
    assert (payload["meta"]["config"]["n"], payload["meta"]["config"]["d"]) == shape
