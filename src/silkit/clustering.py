"""k-means machinery: Lloyd iterations, k-means++ seeding, and the
incremental global variant that grows solutions one cluster at a time.

Everything is deterministic given the config seed. Assignment ties break
toward the smaller center index; empty clusters are repaired by seizing the
point currently farthest from its assigned center, or, when the data has
fewer than k distinct points, raise ValueError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Labeling, _sq_distances

__all__ = [
    "KMeansConfig",
    "KMeansResult",
    "lloyd",
    "kmeanspp_seed",
    "global_kmeanspp",
]


@dataclass(frozen=True)
class KMeansConfig:
    k: int = 2
    max_iters: int = 300
    tol: float = 1e-6
    rng_seed: int = 0
    n_candidates: int = 10

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")


@dataclass(frozen=True)
class KMeansResult:
    centers: np.ndarray
    labeling: Labeling
    sse: float
    iterations: int

    def to_dict(self) -> dict:
        return {
            "k": self.labeling.k,
            "sse": self.sse,
            "iterations": self.iterations,
            "centers": [[float(v) for v in row] for row in self.centers],
            "labels": [int(v) for v in self.labeling.assignments],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def _assign(points_t: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center labels (ties -> smaller index) and N x k squared distances."""
    d2 = _sq_distances(points_t, centers)
    return d2.argmin(axis=1), d2


def _repair_empty(points: np.ndarray, centers: np.ndarray, labels: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Give each empty cluster, in id order, the point farthest from its
    nearest center (never a last member) and move its center onto that point,
    in place. Sizes and distances update as it goes, so two empty clusters
    never seize the same point or coinciding ones. A farthest point at
    distance 0 means fewer distinct points than k: ValueError."""
    sizes = np.bincount(labels, minlength=len(centers))
    if sizes.all():
        return labels
    labels, far_d2 = labels.copy(), d2.min(axis=1)
    for c in np.flatnonzero(sizes == 0):
        seizable = np.where(sizes[labels] > 1, far_d2, 0.0)
        far = int(seizable.argmax())
        if seizable[far] <= 0.0:
            raise ValueError(f"the data has fewer than k={len(centers)} distinct points")
        sizes[labels[far]] -= 1
        sizes[c] += 1
        labels[far] = c
        centers[c] = points[far]
        far_d2 = np.minimum(far_d2, _sq_distances(centers[c][:, None], points)[0])
    return labels


def lloyd(data: Dataset, initial_centers: np.ndarray, config: KMeansConfig) -> KMeansResult:
    """Alternate assignment and mean updates until the SSE improvement
    falls below ``tol`` (relative) or ``max_iters`` is reached."""
    points = data.points
    points_t = np.ascontiguousarray(points.T)
    centers = np.array(initial_centers, dtype=np.float64, copy=True)
    if centers.ndim != 2 or centers.shape[1] != data.dim:
        raise ValueError("initial centers must be k x d")
    k = centers.shape[0]
    if k > data.n:
        raise ValueError(f"k={k} exceeds the number of points {data.n}")

    prev_sse = None
    labels = None
    iterations = 0
    while iterations < config.max_iters:
        new_labels, d2 = _assign(points_t, centers)
        new_labels = _repair_empty(points, centers, new_labels, d2)
        if labels is not None and np.array_equal(new_labels, labels):
            break  # fixpoint: centers are already the means of these clusters
        labels = new_labels
        iterations += 1
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
        sse = float(((points - centers[labels]) ** 2).sum())
        if prev_sse is not None and prev_sse - sse <= config.tol * prev_sse:
            break
        prev_sse = sse

    # return a consistent pair: labels are nearest-assignments against the
    # returned centers, a repaired cluster's center sits on its one point
    final_labels, d2 = _assign(points_t, centers)
    final_labels = _repair_empty(points, centers, final_labels, d2)
    sse = float(((points - centers[final_labels]) ** 2).sum())
    return KMeansResult(centers, Labeling(final_labels, k), sse, max(iterations, 1))


def _min_sq_dist(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return _sq_distances(np.ascontiguousarray(points.T), centers).min(axis=1)


def _next_center_index(points: np.ndarray, centers: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one point index with probability proportional to its squared
    distance to the nearest existing center (uniform if all are zero)."""
    d2 = _min_sq_dist(points, centers)
    total = d2.sum()
    if total > 0:
        p = d2 / total
        return int(rng.choice(len(points), p=p))
    return int(rng.integers(len(points)))


def kmeanspp_seed(data: Dataset, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first center uniform, the rest distance-weighted."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > data.n:
        raise ValueError(f"k={k} exceeds the number of points {data.n}")
    points = data.points
    first = int(rng.integers(data.n))
    centers = points[first][None, :].copy()
    for _ in range(k - 1):
        idx = _next_center_index(points, centers, rng)
        centers = np.vstack([centers, points[idx]])
    return centers


def global_kmeanspp(data: Dataset, k_max: int, config: KMeansConfig) -> dict[int, KMeansResult]:
    """Incremental k-means: the k-cluster solution extends the converged
    (k-1)-cluster centers with the best of ``n_candidates`` new centers
    drawn with k-means++ probabilities, each refined by Lloyd.

    Returns the solution for every k in 1..k_max. SSE is non-increasing in
    k because every candidate starts from the previous centers plus one
    data point.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > data.n:
        raise ValueError(f"k_max={k_max} exceeds the number of points {data.n}")
    rng = np.random.default_rng(config.rng_seed)
    points = data.points

    mean = points.mean(axis=0)[None, :]
    sse1 = float(((points - mean[0]) ** 2).sum())
    results = {1: KMeansResult(mean, Labeling(np.zeros(data.n, dtype=np.int64), 1), sse1, 1)}

    for k in range(2, k_max + 1):
        base = results[k - 1].centers
        d2 = _min_sq_dist(points, base)
        total = d2.sum()
        n_nonzero = int((d2 > 0).sum())
        if total > 0 and n_nonzero >= 1:
            p = d2 / total
            size = min(config.n_candidates, n_nonzero)
            candidates = rng.choice(data.n, size=size, replace=False, p=p)
        else:
            candidates = rng.choice(data.n, size=min(config.n_candidates, data.n), replace=False)
        best: KMeansResult | None = None
        for idx in candidates:
            trial = np.vstack([base, points[int(idx)]])
            result = lloyd(data, trial, config)
            if best is None or result.sse < best.sse:
                best = result
        results[k] = best
    return results
