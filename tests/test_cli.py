import json

import numpy as np
import pytest

from pairdesign import cli, data_io
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
        ["bench", "--algorithms", "fg,sg", "--k", "3", "--synthetic", "n=15,d=3",
         "--out", str(out), "--workers", "1"]
    )
    assert code == 0
    assert len(json.loads(out.read_text())["rows"]) == 2


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
