"""Machine-readable run reports: canonical serialization and hashing.

Serialization is byte-stable for fixed content: keys are sorted and reals
are printed with 17 significant digits (enough to round-trip float64). The
report hash drops wall-time fields so that timing jitter never affects it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = 1

# Keys carrying wall-clock measurements (and aggregates derived from them);
# excluded from the determinism hash.
_TIMING_MARKER = "_seconds"


def _plain(obj):
    """Convert numpy scalars/arrays and tuples to plain Python containers."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, floats at 17 significant digits."""
    out: list[str] = []
    _write_canonical(_plain(obj), out)
    return "".join(out)


def _write_canonical(obj, out: list[str]) -> None:
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ValueError(f"non-finite real {obj!r} in report")
        text = format(obj, ".17g")
        if "." not in text and "e" not in text and "E" not in text:
            text += ".0"
        out.append(text)
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, list):
        out.append("[")
        for n, item in enumerate(obj):
            if n:
                out.append(",")
            _write_canonical(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for n, key in enumerate(sorted(obj)):
            if n:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _write_canonical(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def strip_timing(obj):
    """Recursive copy with every wall-time key (*_seconds*) removed."""
    if isinstance(obj, dict):
        return {
            k: strip_timing(v)
            for k, v in obj.items()
            if _TIMING_MARKER not in str(k)
        }
    if isinstance(obj, (list, tuple)):
        return [strip_timing(v) for v in obj]
    return obj


@dataclass
class Report:
    """Per-repeat rows plus aggregates recomputable from them."""

    meta: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "meta": _plain(self.meta),
            "rows": _plain(self.rows),
            "aggregates": _plain(self.aggregates),
        }

    def content_hash(self) -> str:
        payload = canonical_json(strip_timing(self.to_dict()))
        return hashlib.sha256(payload.encode()).hexdigest()


def aggregate(rows: list[dict], fields: list[str]) -> dict:
    """Mean and standard deviation per numeric field across rows; None values are skipped."""
    out = {}
    for name in fields:
        values = [row[name] for row in rows if row.get(name) is not None]
        if values:
            arr = np.asarray(values, dtype=float)
            out[f"{name}_mean"] = float(arr.mean())
            out[f"{name}_std"] = float(arr.std())
    return out


def _csv_cell(value) -> str:
    """A flat list of scalars joins with ';'; a dict or a nested list is canonical JSON."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, list) and not any(isinstance(v, (list, dict)) for v in value):
        return ";".join(_csv_cell(v) for v in value)
    if isinstance(value, (list, dict)):
        return canonical_json(value)
    return str(value)


def render_report(report: Report, fmt: str) -> str:
    """A report as canonical JSON or flat CSV text; byte-stable per input."""
    if fmt == "json":
        return canonical_json(report.to_dict()) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    rows = _plain(report.rows)
    columns = sorted({key for row in rows for key in row})
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_csv_cell(row.get(c, "")) for c in columns] for row in rows)
    return text.getvalue()


def emit_report(report: Report, fmt: str, path) -> None:
    """Write a report to `path` as `render_report` renders it, or to stdout if `path` is empty."""
    text = render_report(report, fmt)
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def load_report(path) -> Report:
    with open(path) as fh:
        payload = json.load(fh)
    return Report(
        meta=payload.get("meta", {}),
        rows=payload.get("rows", []),
        aggregates=payload.get("aggregates", {}),
    )
