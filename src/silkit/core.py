"""Core data containers: datasets, labelings, and distance computation.

Everything downstream (silhouette scoring, sampling, k-means) works on the
immutable containers defined here; the studies share its ordered parallel
map and its one distance kernel, whose direct difference formula gives a
distance the same bits whatever block of rows it is computed in.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "Labeling",
    "DatasetStats",
    "pairwise_distances",
    "canonicalize_labels",
    "dataset_stats",
]


@dataclass(frozen=True)
class Dataset:
    """N x d matrix of finite reals with optional per-row class annotations.

    ``truth_labels`` holds integer class ids when ground truth is known;
    -1 marks rows without a class (e.g. injected background noise).
    """

    points: np.ndarray
    truth_labels: np.ndarray | None = None
    column_names: tuple[str, ...] | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"points must be a non-empty 2-D matrix, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points contain NaN or Inf")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.truth_labels is not None:
            tl = np.asarray(self.truth_labels, dtype=np.int64).copy()
            if tl.shape != (pts.shape[0],):
                raise ValueError("truth_labels length must equal the number of rows")
            tl.setflags(write=False)
            object.__setattr__(self, "truth_labels", tl)
        if self.column_names is not None:
            names = tuple(self.column_names)
            if len(names) != pts.shape[1]:
                raise ValueError("column_names length must equal the number of columns")
            object.__setattr__(self, "column_names", names)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Labeling:
    """Cluster assignment: per-row ids in 0..k-1, all k ids present."""

    assignments: np.ndarray
    k: int

    def __post_init__(self):
        arr = np.asarray(self.assignments, dtype=np.int64).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("assignments must be a non-empty 1-D sequence")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        present = np.unique(arr)
        if present[0] < 0 or present[-1] >= self.k or len(present) != self.k:
            raise ValueError(
                f"assignments must use exactly the ids 0..{self.k - 1}; found {present}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "assignments", arr)

    @classmethod
    def from_raw(cls, raw) -> "Labeling":
        return canonicalize_labels(raw)

    @property
    def n(self) -> int:
        return self.assignments.shape[0]

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.k)

    def members(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == c)


@dataclass(frozen=True)
class DatasetStats:
    """Per-cluster sizes, imbalance ratio, and per-dimension bounding box."""

    cluster_sizes: tuple[int, ...]
    imbalance_ratio: float
    bounding_box: tuple[tuple[float, float], ...] = field(default=())


def _sq_distances(cols_t: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """m x r squared Euclidean distances from m column points, given as their
    C-contiguous d x m transpose, to the r x d row points: one coordinate at a
    time into an m x r buffer (subtract, square in place, add), with no gram
    shortcut, so nearby points keep their precision. Coordinates add in order
    from 0, as numpy sums a last axis shorter than 8, so for d < 8 these are
    the bits of ``(diff * diff).sum(-1)``."""
    out = np.subtract.outer(cols_t[0], rows[:, 0])
    np.multiply(out, out, out=out)
    buf = np.empty_like(out)
    for j in range(1, len(cols_t)):
        np.subtract.outer(cols_t[j], rows[:, j], out=buf)
        out += np.multiply(buf, buf, out=buf)
    return out


def block_rows_for(n: int, dim: int, target_bytes: int = 1 << 24) -> int:
    """Rows r per block, keeping the kernel's two n x r float64 buffers plus
    the r x dim rows near target_bytes (2-core Xeon: 8 MB buffers beat 32 MB)."""
    rows = max(1, target_bytes // ((2 * n + dim) * 8))
    return int(min(rows, n))


def pairwise_distances(data: Dataset) -> np.ndarray:
    """Full N x N Euclidean distance matrix (O(N^2) time and memory).

    (a-b)^2 == (b-a)^2 bitwise, so the result is exactly symmetric with an
    exactly zero diagonal; column block lo..hi is therefore row block lo..hi.
    """
    n, points = data.n, data.points
    cols_t = np.ascontiguousarray(points.T)
    out = np.empty((n, n), dtype=np.float64)
    step = block_rows_for(n, data.dim)
    for lo in range(0, n, step):
        np.sqrt(_sq_distances(cols_t, points[lo : lo + step]), out=out[:, lo : lo + step])
    return out


def _parallel_map(fn, items, threads: int | None) -> list:
    """``[fn(x) for x in items]``, on a thread pool when threads > 1.

    Results come back in input order, so they never depend on scheduling.
    """
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def canonicalize_labels(raw) -> Labeling:
    """Remap arbitrary integer ids to 0..k-1 in first-occurrence order."""
    return _canonicalize_with_ids(raw)[0]


def _canonicalize_with_ids(raw) -> tuple[Labeling, np.ndarray]:
    """``canonicalize_labels`` plus the id map: new id c was raw id ids[c]."""
    arr = np.asarray(raw, dtype=np.int64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("raw labels must be a non-empty 1-D sequence")
    ids, first_pos, inverse = np.unique(arr, return_index=True, return_inverse=True)
    order = np.argsort(first_pos, kind="stable")
    new_id = np.argsort(order, kind="stable")
    return Labeling(new_id[inverse], k=len(ids)), ids[order]


def dataset_stats(data: Dataset, labels: Labeling) -> DatasetStats:
    """Cluster sizes, min/max size ratio, and the data bounding box."""
    if labels.n != data.n:
        raise ValueError("labeling length does not match dataset")
    sizes = labels.cluster_sizes()
    ratio = float(sizes.min() / sizes.max())
    lo = data.points.min(axis=0)
    hi = data.points.max(axis=0)
    box = tuple((float(a), float(b)) for a, b in zip(lo, hi))
    return DatasetStats(tuple(int(s) for s in sizes), ratio, box)
