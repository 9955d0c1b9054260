import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairdesign import report


def test_canonical_json_frozen():
    obj = {"b": 1, "a": [1.5, 2, True, None, "x"], "c": {"z": 0.1}}
    assert (
        report.canonical_json(obj)
        == '{"a":[1.5,2,true,null,"x"],"b":1,"c":{"z":0.10000000000000001}}'
    )


def test_canonical_json_integral_floats_keep_point():
    assert report.canonical_json(2.0) == "2.0"
    assert report.canonical_json([1e30]) == "[1e+30]"  # exponent form is already a float literal


def test_canonical_json_numpy_types():
    obj = {"a": np.float64(0.5), "b": np.int64(3), "c": np.arange(3)}
    assert report.canonical_json(obj) == '{"a":0.5,"b":3,"c":[0,1,2]}'


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        report.canonical_json({"x": float("nan")})
    with pytest.raises(ValueError):
        report.canonical_json([float("inf")])


@settings(max_examples=50, deadline=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False))
def test_canonical_json_floats_round_trip(value):
    text = report.canonical_json(value)
    assert json.loads(text) == value or (
        math.isclose(json.loads(text), value, rel_tol=0, abs_tol=0)
    )


def test_strip_timing():
    obj = {
        "total_seconds": 1.0,
        "rows": [{"gain": 2.0, "find_max_seconds": [0.1]}],
        "nested": {"preprocessing_seconds": 0.5, "kept": 1},
    }
    assert report.strip_timing(obj) == {"rows": [{"gain": 2.0}], "nested": {"kept": 1}}


def test_content_hash_ignores_timing():
    a = report.Report(meta={"k": 5}, rows=[{"gain": 1.0, "total_seconds": 0.4}])
    b = report.Report(meta={"k": 5}, rows=[{"gain": 1.0, "total_seconds": 9.9}])
    c = report.Report(meta={"k": 6}, rows=[{"gain": 1.0, "total_seconds": 0.4}])
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


def test_aggregate():
    rows = [{"v": 1.0, "w": 2.0, "u": None}, {"v": 3.0, "w": None, "u": None}]
    agg = report.aggregate(rows, ["v", "w", "u", "missing"])
    assert agg["v_mean"] == 2.0
    assert agg["v_std"] == 1.0
    assert agg["w_mean"] == 2.0  # an undefined value is skipped
    assert "u_mean" not in agg and "missing_mean" not in agg


def test_emit_json_round_trip(tmp_path, capsys):
    rep = report.Report(meta={"seed": 1}, rows=[{"gain": 0.25}], aggregates={"gain_mean": 0.25})
    path = tmp_path / "out.json"
    report.emit_report(rep, "json", path)
    loaded = report.load_report(path)
    assert loaded.meta == rep.meta
    assert loaded.rows == rep.rows
    assert loaded.aggregates == rep.aggregates
    # emission is byte-stable
    first = path.read_bytes()
    report.emit_report(rep, "json", path)
    assert path.read_bytes() == first
    # with no path, the same text goes to stdout
    for empty in ("", None):
        report.emit_report(rep, "json", empty)
        assert capsys.readouterr().out == path.read_text()


def test_emit_csv(tmp_path, capsys):
    rep = report.Report(rows=[{"a": 1, "b": [1.5, 2.5]}, {"a": 2}, {"a": 3, "b": None}])
    path = tmp_path / "out.csv"
    report.emit_report(rep, "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,1.5;2.5"
    assert lines[2] == "2,"
    assert lines[3] == "3,"
    for empty in ("", None):
        report.emit_report(rep, "csv", empty)
        assert capsys.readouterr().out == path.read_text()


def test_emit_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        report.emit_report(report.Report(), "xml", tmp_path / "out.xml")
