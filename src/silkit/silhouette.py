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
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Labeling, _parallel_map, _sq_distances, block_rows_for

__all__ = ["SilhouetteUndefinedError", "SilhouetteReport", "full_report"]


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

    Streams blocks of rows (O(N x block) memory, see ``block_rows_for``)
    against columns sorted by cluster, so a row's distances to a cluster are
    one slab, summed in member order whatever block the row lands in: the
    result does not depend on the block height. With ``threads`` > 1 the
    blocks are scored on that many threads, each block ``1/threads`` of the
    serial height, so all threads together hold the serial block's buffer
    memory. Each block writes only its own rows, so the result does not
    depend on the thread count either; None or 1 scores serially.
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
    bounds = np.concatenate([[0], np.cumsum(counts)])

    per_point = np.empty(n, dtype=np.float64)
    workers = max(threads or 1, 1)
    # numpy sums a one-column slab pairwise but a wider one in member order,
    # so no block is left with a single row (n >= 2 once k >= 2)
    step = max(2, block_rows_for(n, data.dim) // workers)
    starts = list(range(0, n, step))
    if n - starts[-1] == 1:
        starts.pop()
    # each thread allocates its kernel buffers once, for the tallest block
    local = threading.local()

    def score_block(block: tuple[int, int]) -> None:
        lo, hi = block
        if not hasattr(local, "work"):
            local.work = np.empty(2 * n * min(step + 1, n))
        dist = _sq_distances(cols_t, points[lo:hi], local.work)
        np.sqrt(dist, out=dist)
        sums = np.empty((k, hi - lo), dtype=np.float64)
        for c in range(k):
            dist[bounds[c] : bounds[c + 1]].sum(axis=0, out=sums[c])
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
