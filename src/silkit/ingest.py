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
    label_values: list[str] | None = None

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
    if schema.has_header:
        header, rows = rows[0], rows[1:]
    else:
        header = [f"c{i}" for i in range(len(schema.kinds))]
    if not rows:
        raise ValueError(f"{path}: no data rows")
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
    label_values = None
    if label_col is not None:
        label_values = sorted(set(raw_labels))
        mapping = {v: i for i, v in enumerate(label_values)}
        labels = np.array([mapping[v] for v in raw_labels], dtype=np.int64)

    return RawTable(
        numeric=numeric,
        numeric_names=[header[i] for i in numeric_cols],
        categorical=cats,
        categorical_names=[header[i] for i in cat_cols],
        labels=labels,
        label_values=label_values,
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
        label_values=table.label_values,
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
        label_values=table.label_values,
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
    return Dataset(x, truth_labels=table.labels, column_names=tuple(table.numeric_names))


def _write_config_header(fh, config: dict):
    """One ``# key=value`` comment line per entry, keys sorted."""
    for key in sorted(config):
        fh.write(f"# {key}={config[key]}\n")


def write_dataset_csv(path, data: Dataset, *, header_lines: dict | None = None):
    """Write the canonical points+label CSV (see module docstring)."""
    path = Path(path)
    n, d = data.points.shape
    truth = data.truth_labels
    with path.open("w", newline="", encoding="utf-8") as fh:
        _write_config_header(fh, header_lines or {})
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(d)] + ["label"])
        for i in range(n):
            row = [repr(float(v)) for v in data.points[i]]
            row.append(str(int(truth[i])) if truth is not None else "-1")
            writer.writerow(row)


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
    points = np.array([[float(v) for v in row[:-1]] for row in rows], dtype=np.float64)
    truth = np.array([int(row[-1]) for row in rows], dtype=np.int64)
    return Dataset(points, truth_labels=truth, column_names=tuple(header[:-1]))
