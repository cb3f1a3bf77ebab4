"""Per-point silhouette scores and their micro/macro aggregation.

For a point x in cluster C, a(x) is the mean distance to the other members
of C and b(x) the smallest mean distance to any foreign cluster; the point
score is (b - a) / max(a, b). The dataset-level score is either the mean
over points (micro) or the mean of the per-cluster mean scores (macro).

Conventions (degenerate cases):
  * a point alone in its cluster scores 0, and so does its cluster mean;
  * a = b = 0 (all relevant points coincide) scores 0;
  * fewer than two clusters: the score does not exist and
    SilhouetteUndefinedError is raised.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Labeling, _parallel_map, _sq_distances

__all__ = ["SilhouetteUndefinedError", "SilhouetteReport", "full_report"]

# rows per block: tall, so each kernel call spans many rows; the column
# tiles, not the block height, bound the memory
BLOCK_ROWS = 1024
# distances per column tile of a block: two float64 kernel buffers of 1 MB
TILE_ELEMS = 1 << 17


class SilhouetteUndefinedError(ValueError):
    """Raised when fewer than two clusters are present."""


@dataclass(frozen=True)
class SilhouetteReport:
    """All silhouette outputs for one labeling of one dataset."""

    per_point: np.ndarray
    per_cluster: np.ndarray
    micro: float
    macro: float
    singleton_count: int

    def to_dict(self) -> dict:
        return {
            "micro": self.micro,
            "macro": self.macro,
            "per_cluster": [float(v) for v in self.per_cluster],
            "per_point": [float(v) for v in self.per_point],
            "singleton_count": self.singleton_count,
        }


def _scores_from_sums(sums: np.ndarray, own: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-point scores for one block of rows from their per-cluster
    distance sums (rows x k): forms a, b and the ratio."""
    r = np.arange(len(own))
    singleton = counts[own] < 2
    a = np.where(singleton, 0.0, sums[r, own] / np.maximum(counts[own] - 1, 1))
    means = sums / counts[None, :]
    means[r, own] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    safe = np.where(denom > 0, denom, 1.0)
    s = (b - a) / safe
    s[denom == 0.0] = 0.0
    s[singleton] = 0.0
    return s


def full_report(data: Dataset, labels: Labeling, threads: int | None = None) -> SilhouetteReport:
    """Complete silhouette report for a labeled dataset.

    Streams tall blocks of up to ``BLOCK_ROWS`` rows against the columns
    sorted by cluster, so a row's distances to a cluster are one slab. A
    block walks the columns in tiles of ``TILE_ELEMS // rows`` columns, so
    the kernel's two buffers stay near 1 MB each, ~2 MB a thread. A slab
    that spans tiles is folded: before each of its segments is summed, its
    running sum is copied into the tile row just above the segment (a spare
    row, or the previous slab's last row, already summed), so every slab sum
    is one chain in member order whatever the block height or tile width.
    numpy feeds a broadcast subtraction with rows shorter than ~4096 through
    its 8192-element ufunc buffer, several times slower than running it
    unbuffered, so each block sets the buffer to 256 elements
    (``np.setbufsize``, per thread) and restores it when done. With
    ``threads`` > 1 the blocks, at most n / threads rows tall, are scored on
    that many threads. Each block writes only its own rows, so the result
    does not depend on the thread count either; None or 1 scores serially.
    """
    if labels.n != data.n:
        raise ValueError("labeling length does not match dataset")
    if labels.k < 2:
        raise SilhouetteUndefinedError("silhouette requires at least two clusters")
    own = labels.assignments
    counts = labels.cluster_sizes()
    n, k = data.n, labels.k
    points = data.points
    cols_t = np.ascontiguousarray(points[np.argsort(own, kind="stable")].T)
    bounds = [0, *np.cumsum(counts).tolist()]

    per_point = np.empty(n, dtype=np.float64)
    workers = max(threads or 1, 1)
    # numpy sums a one-column slab pairwise but a wider one in member order,
    # so no block is left with a single row (n >= 2 once k >= 2)
    step = max(2, min(n, BLOCK_ROWS, -(-n // workers)))
    starts = list(range(0, n, step))
    if n - starts[-1] == 1:
        starts.pop()
    width = max(1, min(n, TILE_ELEMS // step))
    # each thread allocates its kernel buffers once, for the tallest block
    local = threading.local()

    def score_block(block: tuple[int, int]) -> None:
        lo, hi = block
        r = hi - lo
        if not hasattr(local, "work"):
            local.work = np.empty((2 * width + 1) * (step + 1))
        sums = np.zeros((k, r))
        old_bufsize = np.setbufsize(256)
        try:
            for t0 in range(0, n, width):
                t1 = min(t0 + width, n)
                # row 0 is spare, the tile's distances are rows 1..t1-t0
                tile = local.work[: (t1 - t0 + 1) * r].reshape(-1, r)
                dist = _sq_distances(cols_t[:, t0:t1], points[lo:hi], local.work[r:])
                np.sqrt(dist, out=dist)
                for c in range(bisect_right(bounds, t0) - 1, bisect_left(bounds, t1)):
                    s, e = max(bounds[c], t0) - t0, min(bounds[c + 1], t1) - t0
                    tile[s] = sums[c]
                    np.add.reduce(tile[s : e + 1], axis=0, out=sums[c])
        finally:
            np.setbufsize(old_bufsize)
        per_point[lo:hi] = _scores_from_sums(sums.T, own[lo:hi], counts)

    _parallel_map(score_block, zip(starts, starts[1:] + [n]), threads)

    sums = np.bincount(own, weights=per_point, minlength=k)
    per_cluster = sums / counts
    singleton_count = int(counts[counts < 2].sum())
    return SilhouetteReport(
        per_point=per_point,
        per_cluster=per_cluster,
        micro=float(per_point.mean()),
        macro=float(per_cluster.mean()),
        singleton_count=singleton_count,
    )
