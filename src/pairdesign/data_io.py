"""CSV ingestion and emission for feature matrices and label sets.

Formats:
  features:    header ``id,f0,...,f{d-1}``; ids must cover 0..N-1
  absolute:    header ``id,label``; label in {-1, 1}
  comparisons: header ``i,j,label``; 0 <= i < j, label in {-1, 1}
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import DimensionMismatch, InvalidLabel, ParseError
from .model import LabeledData

_FLOAT_FMT = "%.17g"


def _read_table(path, what, header):
    """(line number, row) for each row below the header of a CSV table.

    `what` names the file in the empty-file error. `header` is the expected
    header row, or None for the features header ``id,f0,...``, whose width
    sets d. A row of another width than the header raises `DimensionMismatch`.
    """
    with open(path, newline="") as fh:
        rows = enumerate(csv.reader(fh), start=1)
        first = next(rows, (1, None))[1]
        if first is None:
            raise ParseError(f"empty {what} file", line=1)
        if header is None:
            if not first or first[0] != "id":
                raise ParseError(f"expected 'id' header, got {first[:1]}", line=1)
            if len(first) < 2:
                raise ParseError("no feature columns", line=1)
            header = ["id"] + [f"f{c}" for c in range(len(first) - 1)]
        if first != header:
            raise ParseError(f"expected header {','.join(header)}", line=1)
        for lineno, row in rows:
            if len(row) != len(header):
                raise DimensionMismatch(f"expected {len(header)} columns, got {len(row)}", line=lineno)
            yield lineno, row


def load_features(path) -> np.ndarray:
    entries = {}
    for lineno, row in _read_table(path, "features", None):
        try:
            idx = int(row[0])
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if not all(np.isfinite(values)):
            raise ParseError("non-finite feature value", line=lineno)
        if idx in entries:
            raise ParseError(f"duplicate id {idx}", line=lineno)
        entries[idx] = values
    n = len(entries)
    if sorted(entries) != list(range(n)):
        raise ParseError(f"ids must cover 0..{n - 1}")
    return np.array([entries[i] for i in range(n)])


def _parse_label(token, lineno) -> int:
    try:
        value = int(token)
    except ValueError:
        raise InvalidLabel(f"label {token!r} is not an integer", line=lineno) from None
    if value not in (-1, 1):
        raise InvalidLabel(f"label must be -1 or 1, got {value}", line=lineno)
    return value


def load_absolute(path, n: int) -> list[tuple[int, int]]:
    out = []
    for lineno, row in _read_table(path, "absolute-label", ["id", "label"]):
        try:
            idx = int(row[0])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if not 0 <= idx < n:
            raise DimensionMismatch(f"id {idx} out of range for {n} samples", line=lineno)
        out.append((idx, _parse_label(row[1], lineno)))
    return out


def load_comparisons(path, n: int) -> list[tuple[tuple[int, int], int]]:
    out = []
    for lineno, row in _read_table(path, "comparison-label", ["i", "j", "label"]):
        try:
            i, j = int(row[0]), int(row[1])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if not (0 <= i < j < n):
            raise DimensionMismatch(f"pair ({i}, {j}) invalid for {n} samples", line=lineno)
        out.append(((i, j), _parse_label(row[2], lineno)))
    return out


def load_dataset(features_csv, absolute_csv=None, comparisons_csv=None):
    """Parse a feature matrix with optional label files."""
    x = load_features(features_csv)
    n = x.shape[0]
    data = LabeledData()
    if absolute_csv is not None:
        data.absolute = load_absolute(absolute_csv, n)
    if comparisons_csv is not None:
        data.comparisons = load_comparisons(comparisons_csv, n)
    return x, data


def _write_table(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_features(path, x: np.ndarray) -> None:
    x = np.asarray(x)
    header = ["id"] + [f"f{c}" for c in range(x.shape[1])]
    _write_table(path, header, ([i] + [_FLOAT_FMT % v for v in row] for i, row in enumerate(x)))


def write_absolute(path, labels) -> None:
    _write_table(path, ["id", "label"], labels)


def write_comparisons(path, labels) -> None:
    _write_table(path, ["i", "j", "label"], ((i, j, y) for (i, j), y in labels))
