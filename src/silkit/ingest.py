"""CSV ingestion and preprocessing: mean imputation, one-hot encoding, and
min-max normalization, applied in that order.

The order matters: imputation needs raw numeric columns, one-hot output is
binary, and min-max maps every column into [0, 1] while leaving indicator
columns untouched (both values occur, so min=0 and max=1 already).

Also hosts the canonical dataset CSV layout shared with the generators:
optional ``# key=value`` comment lines, a header row, one row per point,
last column = integer truth label (-1 for noise rows).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import Dataset

__all__ = [
    "ColumnSchema",
    "RawTable",
    "load_csv",
    "impute_mean",
    "one_hot",
    "minmax_normalize",
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
    def all_numeric(cls, n_columns: int, *, label_column: int | None = None, **kwargs) -> "ColumnSchema":
        kinds = ["numeric"] * n_columns
        if label_column is not None:
            kinds[label_column] = "label"
        return cls(tuple(kinds), **kwargs)

    @classmethod
    def from_file(cls, path) -> "ColumnSchema":
        """Load a schema config: {"columns": [kind, ...], "missing": [...],
        "header": bool, "delimiter": ","}. Only "columns" is required."""
        with Path(path).open(encoding="utf-8") as fh:
            raw = json.load(fh)
        return cls(
            kinds=tuple(raw["columns"]),
            missing_sentinels=tuple(raw.get("missing", DEFAULT_SENTINELS)),
            has_header=bool(raw.get("header", False)),
            delimiter=raw.get("delimiter", ","),
        )


@dataclass
class RawTable:
    """Typed columns straight from a CSV, with missing cells flagged.

    numeric: n x m float matrix, NaN where the cell was missing.
    categorical: list of string arrays (missing = sentinel kept as "").
    labels: integer array factorized from the label column, or None.
    """

    numeric: np.ndarray
    numeric_names: list[str]
    categorical: list[np.ndarray] = field(default_factory=list)
    categorical_names: list[str] = field(default_factory=list)
    labels: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        if self.numeric.size:
            return self.numeric.shape[0]
        if self.categorical:
            return len(self.categorical[0])
        return 0 if self.labels is None else len(self.labels)


def load_csv(path, schema: ColumnSchema) -> RawTable:
    """Parse a CSV into typed columns according to the schema.

    Raises on ragged rows and on non-sentinel cells that fail to parse as
    numbers in numeric columns.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        rows = [row for row in reader if row and not row[0].startswith("#")]
    if len(rows) < 1 + schema.has_header:
        raise ValueError(f"{path}: no data rows")
    if schema.has_header:
        header, rows = rows[0], rows[1:]
    else:
        header = [f"c{i}" for i in range(len(schema.kinds))]
    width = len(schema.kinds)
    sentinels = set(schema.missing_sentinels)

    numeric_cols: list[int] = [i for i, k in enumerate(schema.kinds) if k == "numeric"]
    cat_cols: list[int] = [i for i, k in enumerate(schema.kinds) if k == "categorical"]
    label_col = next((i for i, k in enumerate(schema.kinds) if k == "label"), None)

    numeric = np.empty((len(rows), len(numeric_cols)), dtype=np.float64)
    cats = [np.empty(len(rows), dtype=object) for _ in cat_cols]
    raw_labels: list[str] = []

    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {r + 1} has {len(row)} cells, expected {width}")
        for j, i in enumerate(numeric_cols):
            cell = row[i].strip()
            if cell in sentinels:
                numeric[r, j] = np.nan
            else:
                try:
                    numeric[r, j] = float(cell)
                except ValueError:
                    raise ValueError(f"{path}: row {r + 1}, column {i}: {cell!r} is not numeric") from None
        for j, i in enumerate(cat_cols):
            cats[j][r] = row[i].strip()
        if label_col is not None:
            raw_labels.append(row[label_col].strip())

    labels = None
    if label_col is not None:
        mapping = {v: i for i, v in enumerate(sorted(set(raw_labels)))}
        labels = np.array([mapping[v] for v in raw_labels], dtype=np.int64)

    return RawTable(
        numeric=numeric,
        numeric_names=[header[i] for i in numeric_cols],
        categorical=cats,
        categorical_names=[header[i] for i in cat_cols],
        labels=labels,
    )


def impute_mean(table: RawTable) -> RawTable:
    """Replace missing numeric cells with their column's mean over present values."""
    numeric = table.numeric.copy()
    for j in range(numeric.shape[1]):
        col = numeric[:, j]
        missing = np.isnan(col)
        if missing.all():
            raise ValueError(f"column {table.numeric_names[j]!r} has no present values to impute from")
        if missing.any():
            col[missing] = col[~missing].mean()
    return RawTable(
        numeric=numeric,
        numeric_names=list(table.numeric_names),
        categorical=list(table.categorical),
        categorical_names=list(table.categorical_names),
        labels=table.labels,
    )


def one_hot(table: RawTable) -> RawTable:
    """Expand each categorical column into one indicator column per value,
    ordered lexicographically. Consumes the categorical columns."""
    blocks = [table.numeric] if table.numeric.size else []
    names = list(table.numeric_names)
    for col, base in zip(table.categorical, table.categorical_names):
        values = sorted(set(col))
        for v in values:
            blocks.append((col == v).astype(np.float64)[:, None])
            names.append(f"{base}={v}")
    if not blocks:
        raise ValueError("table has no feature columns")
    return RawTable(
        numeric=np.hstack(blocks),
        numeric_names=names,
        labels=table.labels,
    )


def minmax_normalize(table: RawTable) -> Dataset:
    """Affinely map every column onto [0, 1]; constant columns map to 0."""
    if np.isnan(table.numeric).any():
        raise ValueError("impute missing values before normalizing")
    if table.categorical:
        raise ValueError("one-hot encode categorical columns before normalizing")
    x = table.numeric.copy()
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    span = hi - lo
    constant = span == 0
    span[constant] = 1.0
    x = (x - lo) / span
    x[:, constant] = 0.0
    return Dataset(x, truth_labels=table.labels)


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
            return f"{path}: row {r}, column {min(len(row), width)}: {len(row)} cells, expected {width}"
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
    try:
        points = np.array([[float(v) for v in row[:-1]] for row in rows], dtype=np.float64)
        truth = np.array([int(row[-1]) for row in rows], dtype=np.int64)
    except (ValueError, OverflowError):
        points = None
    width = len(header)
    if points is None or points.shape != (len(rows), width - 1) or not np.isfinite(points).all():
        raise ValueError(_dataset_csv_fault(path, rows, width))
    return Dataset(points, truth_labels=truth)
