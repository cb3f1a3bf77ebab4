"""k-means machinery: Lloyd iterations, and global k-means++, which grows
solutions one cluster at a time from candidates drawn with k-means++
probabilities.

Everything is deterministic given the config seed. Assignment ties break
toward the smaller center index; empty clusters are repaired by seizing the
point currently farthest from its assigned center, or, when the data has
fewer than k distinct points, raise ValueError. A center is its members'
coordinate sums in index order (``np.bincount``) over its size: for d >= 2
the bits of their axis-0 mean.

Lloyd skips points by Hamerly's lower bound (*Making k-means even faster*,
SDM 2010) and no result depends on it. After an update a point keeps its
label if u + delta < l: u is its distance to its center (from the squares
the SSE sums), l its last full row's second-nearest distance less the
largest center shift of each update since. Other points get full rows from
the kernel of a full assignment (same bits, ties to the smaller id). The
first assignment, and any that empties a cluster, is full, feeds the repair
and resets every l.
Why that is exact: every distance in play is below R, the diagonal of the
box around the points and initial centers widened by how far rounding can
carry a mean out of it. Computed distances are within (d/2 + 2) 2**-53 R and
each update's subtraction from l rounds once, so after T updates the test's
floats are off by under (3d + T + 11) 2**-53 R, and T is at most the constant
``KMeansConfig.max_iters`` (300). delta = (3d + max_iters + 16) 2**-40 R is
8,192 times that bound: a kept point's center is nearer than any other
by more than the kernel's rounding, so a full row gives the same label,
untied. Points within delta of a tie are always recomputed.

Global k-means++ hands each candidate that first assignment: one kernel
call gives every point's nearest, argmin and second-nearest of the shared
k-1 centers, one more its distances to the candidates. A point goes to the
new center only if strictly nearer (ties keep the smaller id), and l is the
nearer of the rest. Kernel entries are the same coordinate-wise differences
as in the k-center kernel and min and argmin are exact, so these are the
full step's bits; a candidate that would empty a cluster runs the full step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import Dataset, Labeling, _sq_distances

__all__ = [
    "KMeansConfig",
    "KMeansResult",
    "lloyd",
    "global_kmeanspp",
]


@dataclass(frozen=True)
class KMeansConfig:
    """Candidate settings; a run's k comes from its initial centers
    (``lloyd``) or ``k_max`` (``global_kmeanspp``). Lloyd's stopping rule
    is part of the algorithm, not a setting: at most ``max_iters`` updates,
    and a stop once an update improves the SSE by at most ``tol`` of it."""

    max_iters: ClassVar[int] = 300
    tol: ClassVar[float] = 1e-6
    rng_seed: int = 0
    n_candidates: int = 10

    def __post_init__(self):
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")


@dataclass(frozen=True)
class KMeansResult:
    """``converged`` (not in the JSON form) is False only when ``max_iters``
    ran out with labels still moving and SSE still improving by over tol."""

    centers: np.ndarray
    labeling: Labeling
    sse: float
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "k": self.labeling.k,
            "sse": self.sse,
            "iterations": self.iterations,
            "centers": self.centers.tolist(),
            "labels": self.labeling.assignments.tolist(),
        }


def _assign(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center labels (ties -> smaller index) and N x k squared distances,
    a view of a k x N buffer so that a min over centers runs down its rows.
    The kernel reads the rows ``points.T``, so a caller that passes the
    view ``points_t.T`` of a C-contiguous d x N ``points_t`` gives it
    contiguous coordinate rows; any layout gives the same bits."""
    d2 = _sq_distances(centers.T, points.T).T
    return d2.argmin(axis=1), d2


def _repair_empty(points: np.ndarray, centers: np.ndarray, labels: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Give each empty cluster, in id order, the point farthest from its
    nearest center (never a last member) and move its center onto that point,
    in place, rewriting that center's column of ``d2``. Sizes and distances
    update as it goes, so two empty clusters never seize the same point or
    coinciding ones. A farthest point at distance 0 means fewer distinct
    points than k: ValueError. ``points`` is as in ``_assign``."""
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
        d2[:, c] = _sq_distances(centers[c][:, None], points.T)[0]
        far_d2 = np.minimum(far_d2, d2[:, c])
    return labels


def _full_step(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Assign and repair, with each point's distance to its nearest other
    center. ``points`` is as in ``_assign``."""
    labels, d2 = _assign(points, centers)
    labels = _repair_empty(points, centers, labels, d2)
    d2[np.arange(len(labels)), labels] = np.inf
    return labels, np.sqrt(d2.min(axis=1))


def lloyd(data: Dataset, initial_centers: np.ndarray, config: KMeansConfig, first=None) -> KMeansResult:
    """Alternate assignment and mean updates until the labels stop changing,
    the SSE improvement falls below ``tol`` (relative), or ``max_iters``
    updates have run; the bounds only pick which points to reassign.
    ``first`` replaces the first ``_full_step``: its (labels, l) bits for the
    initial centers, no cluster empty, as arrays that ``lloyd`` may write."""
    points = data.points
    points_t = np.ascontiguousarray(points.T)
    centers = np.array(initial_centers, dtype=np.float64, copy=True)
    if centers.ndim != 2 or centers.shape[1] != data.dim:
        raise ValueError("initial centers must be k x d")
    k = centers.shape[0]
    if k > data.n:
        raise ValueError(f"k={k} exceeds the number of points {data.n}")

    # delta of the module docstring: rounding moves a mean < n ulps of its largest coordinate
    lo = np.minimum(points_t.min(axis=1), centers.min(axis=0))
    hi = np.maximum(points_t.max(axis=1), centers.max(axis=0))
    reach = np.sqrt(((hi - lo) ** 2).sum()) + 2 * data.dim**0.5 * data.n * 2.0**-52 * np.maximum(-lo, hi).max()
    delta = (3 * data.dim + config.max_iters + 16) * 2.0**-40 * reach
    labels, lower = _full_step(points_t.T, centers) if first is None else first
    sizes = np.bincount(labels, minlength=k)
    prev_sse = None
    iterations = 0
    while True:
        iterations += 1
        sums = [np.bincount(labels, weights=col, minlength=k) for col in points_t]
        old, centers = centers, np.stack(sums, axis=1) / sizes[:, None]
        sq = (points - np.take(centers, labels, axis=0)) ** 2
        sse = float(sq.sum())
        tol_met = prev_sse is not None and prev_sse - sse <= config.tol * prev_sse
        prev_sse = sse
        lower -= np.sqrt(((centers - old) ** 2).sum(axis=1)).max()
        near = np.flatnonzero(np.sqrt(np.einsum("ij->i", sq)) + delta >= lower)
        d2 = _sq_distances(centers.T, np.take(points_t, near, axis=1))
        moved = d2.argmin(axis=0)
        d2[moved, np.arange(len(near))] = np.inf
        lower[near] = np.sqrt(d2.min(axis=0))
        if np.array_equal(moved, labels[near]):
            converged = True  # fixpoint: sse and centers already belong to these labels
            break
        labels[near] = moved
        sizes = np.bincount(labels, minlength=k)
        if not sizes.all():
            labels, lower = _full_step(points_t.T, centers)
            sizes = np.bincount(labels, minlength=k)
        if tol_met or iterations == config.max_iters:
            converged = tol_met
            sse = float(((points - np.take(centers, labels, axis=0)) ** 2).sum())
            break
    return KMeansResult(centers, Labeling(labels, k), sse, iterations, converged)


def global_kmeanspp(data: Dataset, k_max: int, config: KMeansConfig) -> dict[int, KMeansResult]:
    """Incremental k-means: the k-cluster solution extends the converged
    (k-1)-cluster centers with the best of ``n_candidates`` new centers
    drawn with k-means++ probabilities, each refined by Lloyd.

    Returns the solution for every k in 1..k_max. SSE is non-increasing in
    k because every candidate starts from the previous centers plus one
    data point. Its two kernel calls per k have N-long rows, which the
    kernel runs with numpy's small ufunc buffer, as it does Lloyd's.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > data.n:
        raise ValueError(f"k_max={k_max} exceeds the number of points {data.n}")
    rng = np.random.default_rng(config.rng_seed)
    points = data.points
    points_t = np.ascontiguousarray(points.T)

    mean = points.mean(axis=0)[None, :]
    sse1 = float(((points - mean[0]) ** 2).sum())
    results = {1: KMeansResult(mean, Labeling(np.zeros(data.n, dtype=np.int64), 1), sse1, 1, True)}

    for k in range(2, k_max + 1):
        base = results[k - 1].centers
        d2 = _sq_distances(base.T, points_t)
        base_labels = d2.argmin(axis=0)
        nearest = d2.min(axis=0)
        d2[base_labels, np.arange(data.n)] = np.inf
        second = d2.min(axis=0)
        total = nearest.sum()
        if total == 0:
            # every point sits on one of the k - 1 centers: no candidate can
            # start a k-th cluster, so Lloyd would raise this on the first
            raise ValueError(f"the data has fewer than k={k} distinct points")
        size = min(config.n_candidates, int((nearest > 0).sum()))
        candidates = rng.choice(data.n, size=size, replace=False, p=nearest / total)
        dnew = _sq_distances(np.take(points_t, candidates, axis=1), points_t)
        best: KMeansResult | None = None
        for idx, to_new in zip(candidates, dnew):
            trial = np.vstack([base, points[int(idx)]])
            wins = to_new < nearest
            labels = np.where(wins, k - 1, base_labels)
            lower = np.sqrt(np.where(wins, nearest, np.minimum(second, to_new)))
            first = (labels, lower) if np.bincount(labels, minlength=k).all() else None
            result = lloyd(data, trial, config, first=first)
            if best is None or result.sse < best.sse:
                best = result
        results[k] = best
    return results
