"""Core data containers: datasets, labelings, and distance computation.

Everything downstream (silhouette scoring, sampling, k-means) works on the
immutable containers defined here; the studies share its ordered parallel
map and its one distance kernel, whose direct difference formula gives a
distance the same bits whatever block of rows it is computed in. The kernel
takes both operands coordinate-major (d x ... x points), and every caller in
the package passes C-contiguous coordinate rows, so each subtraction reads
contiguous memory.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "Labeling",
    "pairwise_distances",
    "canonicalize_labels",
]


@dataclass(frozen=True)
class Dataset:
    """N x d matrix of finite reals with optional per-row class annotations.

    ``truth_labels`` holds integer class ids when ground truth is known;
    -1 marks rows without a class (e.g. injected background noise).
    """

    points: np.ndarray
    truth_labels: np.ndarray | None = None

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
        if arr.min() < 0 or arr.max() >= self.k or not np.bincount(arr, minlength=self.k).all():
            raise ValueError(
                f"assignments must use exactly the ids 0..{self.k - 1}; found {np.unique(arr)}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "assignments", arr)

    @property
    def n(self) -> int:
        return self.assignments.shape[0]

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.k)

    def members(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == c)


@contextmanager
def _unbuffered():
    """Run the block with numpy's ufunc buffer at 256 elements (per thread),
    restored on exit. numpy feeds a broadcast operation whose rows are
    shorter than ~4096 elements through its 8192-element buffer, several
    times slower than running it unbuffered. Elementwise results keep their
    bits; a reduction that casts its input sums pairwise within each
    buffer, so its bits would depend on the buffer size."""
    old = np.setbufsize(256)
    try:
        yield
    finally:
        np.setbufsize(old)


def _sq_distances(cols_t: np.ndarray, rows_t: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """m x r squared Euclidean distances from m column points to r row
    points, both given coordinate-major: the d x m columns (a view or a
    copy) and the d x r rows. One coordinate at a time into an m x r buffer
    (subtract, square in place, add), with no gram shortcut, so nearby
    points keep their precision. Coordinates add in order from 0, as numpy
    sums a last axis shorter than 8, so for d < 8 these are the bits of
    ``(diff * diff).sum(-1)``. Each subtraction broadcasts one column value
    against ``rows_t[j]``, which numpy runs on its SIMD loop when that row
    is C-contiguous (not a stride-d view of an r x d matrix); any layout
    gives the same bits. With a run axis, d x m x g columns and d x g x r
    rows give the m x g x r distances of g runs at once, run j's columns
    against run j's rows. A caller that streams many blocks can pass a flat
    float64 ``work`` array of at least twice the result's size to hold the
    two buffers, so it allocates (and page-faults) them once; the result is
    then a view of ``work``."""
    shape = (*cols_t.shape[1:], rows_t.shape[-1])
    if work is None:
        out, buf = np.empty(shape), np.empty(shape)
    else:
        size = math.prod(shape)
        out, buf = work[:size].reshape(shape), work[size : 2 * size].reshape(shape)
    np.subtract(cols_t[0][..., None], rows_t[0], out=out)
    np.multiply(out, out, out=out)
    for j in range(1, len(cols_t)):
        np.subtract(cols_t[j][..., None], rows_t[j], out=buf)
        out += np.multiply(buf, buf, out=buf)
    return out


def pairwise_distances(data: Dataset) -> np.ndarray:
    """Full N x N Euclidean distance matrix (O(N^2) time and memory).

    (a-b)^2 == (b-a)^2 bitwise, so the result is exactly symmetric with an
    exactly zero diagonal; column block lo..hi is therefore row block lo..hi.
    """
    n, points = data.n, data.points
    cols_t = np.ascontiguousarray(points.T)
    out = np.empty((n, n), dtype=np.float64)
    step = max(1, (1 << 20) // n)  # two n x step kernel buffers of ~8 MB
    for lo in range(0, n, step):
        np.sqrt(_sq_distances(cols_t, cols_t[:, lo : lo + step]), out=out[:, lo : lo + step])
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
    arr = np.asarray(raw, dtype=np.int64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("raw labels must be a non-empty 1-D sequence")
    ids, first_pos, inverse = np.unique(arr, return_index=True, return_inverse=True)
    order = np.argsort(first_pos, kind="stable")
    new_id = np.argsort(order, kind="stable")
    return Labeling(new_id[inverse], k=len(ids))
