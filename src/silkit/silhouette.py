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

import json
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Labeling, _distance_block, block_rows_for

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

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def _scores_from_block(
    block: np.ndarray, own: np.ndarray, counts: np.ndarray, members: list[np.ndarray]
) -> np.ndarray:
    """Per-point scores for one block of distance rows.

    Accumulates per-cluster distance sums in one pass (O(rows x k) memory),
    then forms a, b and the ratio.
    """
    rows = block.shape[0]
    k = len(counts)
    sums = np.empty((rows, k), dtype=np.float64)
    for c in range(k):
        sums[:, c] = block[:, members[c]].sum(axis=1)
    r = np.arange(rows)
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


def full_report(data: Dataset, labels: Labeling) -> SilhouetteReport:
    """Complete silhouette report for a labeled dataset.

    Streams blocks of distance rows (O(block x N) memory, see
    ``block_rows_for``); every row's score is independent of the block it
    lands in, so the result does not depend on the block height.
    """
    if labels.n != data.n:
        raise ValueError("labeling length does not match dataset")
    if labels.k < 2:
        raise SilhouetteUndefinedError("silhouette requires at least two clusters")
    own = labels.assignments
    counts = labels.cluster_sizes()
    n = data.n
    members = [labels.members(c) for c in range(labels.k)]

    per_point = np.empty(n, dtype=np.float64)
    # numpy sums a one-row gather pairwise but a taller one in member order,
    # so no block is left with a single row (n >= 2 once k >= 2)
    step = max(2, block_rows_for(n, data.dim))
    lo = 0
    while lo < n:
        hi = n if n - lo <= step + 1 else lo + step
        block = _distance_block(data.points, lo, hi)
        per_point[lo:hi] = _scores_from_block(block, own[lo:hi], counts, members)
        lo = hi

    sums = np.bincount(own, weights=per_point, minlength=labels.k)
    per_cluster = sums / counts
    singleton_count = int(counts[counts < 2].sum())
    return SilhouetteReport(
        per_point=per_point,
        per_cluster=per_cluster,
        micro=float(per_point.mean()),
        macro=float(per_cluster.mean()),
        singleton_count=singleton_count,
    )
