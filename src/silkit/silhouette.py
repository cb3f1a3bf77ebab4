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

One kernel scores every labeling: ``_score_runs`` scores g runs at once,
each n row indices into one point matrix (with their own labels), and
``_report`` aggregates one run. Runs scored together share their cluster
counts, so every run's slab for a cluster has one width. ``full_report``
is the one-run case, ``arange(N)``; sampled scoring passes groups of draws
with one count vector (every draw of a balanced cell; a uniform draw is
usually scored alone), whose absent clusters have an infinite mean
distance and no entry in the report.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Labeling, _parallel_map, _sq_distances, _workers

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
            "per_cluster": self.per_cluster.tolist(),
            "per_point": self.per_point.tolist(),
            "singleton_count": self.singleton_count,
        }


def _scores_from_sums(sums: np.ndarray, own: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-point scores for one block of rows from their per-cluster
    distance sums (rows x k): forms a, b and the ratio. A cluster with no
    members (count 0, absent from a sample) has an infinite mean."""
    r = np.arange(len(own))
    singleton = counts[own] < 2
    a = np.where(singleton, 0.0, sums[r, own] / np.maximum(counts[own] - 1, 1))
    means = np.divide(sums, counts, out=np.full_like(sums, np.inf), where=counts > 0)
    means[r, own] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    safe = np.where(denom > 0, denom, 1.0)
    s = (b - a) / safe  # a = b = 0 where denom is 0: s is +0.0 there
    s[singleton] = 0.0
    return s


def _score_runs(
    points: np.ndarray, rows: np.ndarray, own: np.ndarray, counts: np.ndarray, threads: int | None = None
) -> np.ndarray:
    """Per-point scores of g runs of n points each that share their cluster
    counts, scored together: the one kernel behind ``full_report`` (one run
    of every point) and sampled scoring (draws with one count vector).

    ``rows`` (g x n) holds each run's row indices into the N x d ``points``
    and ``own`` (g x n) their cluster ids in 0..k-1, ``counts`` (k) the
    members of each cluster in every run; runs may share rows, and a
    cluster may have no members. Returns the g x n scores.

    Each run's rows are sorted stably by cluster into columns, so a row's
    distances to cluster c are one slab, ``counts[c]`` wide in every run.
    Blocks take up to ``BLOCK_ROWS // g`` rows of every run at once
    (callers keep g x n within ``BLOCK_ROWS``, so a block holds a run's
    whole row length when g > 1), against the columns in tiles of
    ``TILE_ELEMS`` distances, so the kernel's two buffers, which each block
    allocates for itself, stay near 1 MB each, ~2 MB a block. Both kernel
    operands are coordinate-major and gathered from the view ``points.T``:
    the columns once per call as d x n x g, and each block's rows once as a
    C-contiguous d x g x h array, so every subtraction streams a contiguous
    coordinate row and no tile copies or allocates. A slab that spans tiles
    is folded: before each of its segments is summed, its running sum is
    copied into the tile row just above the segment (a spare row, or the
    previous slab's last row, already summed), so every slab sum is one
    chain in member order whatever the block height, tile width or run
    grouping. The kernel sets numpy's ufunc buffer for its own calls; the
    tile's square roots and slab sums run at the caller's. With ``threads``
    > 1 the blocks, at most n / w rows tall, are scored by
    ``core._parallel_map`` on w = ``_workers(threads)`` threads, at most the
    cores; no state is kept between blocks. Each block writes only its own
    rows, so the result does not depend on the thread count either; None or
    1 scores serially.
    """
    (g, n), k = own.shape, len(counts)
    bounds = [0, *np.cumsum(counts).tolist()]
    cols = np.take_along_axis(rows, np.argsort(own, axis=1, kind="stable"), axis=1)
    cols_t = np.take(points.T, cols.T, axis=1)

    per_point = np.empty((g, n), dtype=np.float64)
    workers = _workers(threads)
    # numpy sums a one-column slab pairwise but a wider one in member order,
    # so no block is left with a single row (n >= 2 once k >= 2)
    step = max(2, min(n, BLOCK_ROWS // g, -(-n // workers)))
    starts = list(range(0, n, step))
    if n - starts[-1] == 1:
        starts.pop()
    # not capped at n: kernel buffers of one size (about 2 * TILE_ELEMS) let
    # many small calls in a row reuse each other's freed memory; a small
    # call touches only the pages its tile uses
    width = max(1, TILE_ELEMS // (g * step))

    def score_block(span: tuple[int, int]) -> None:
        lo, hi = span
        r = g * (hi - lo)
        # one size for every block: the tallest block's (at most step + 1 rows)
        work = np.empty((2 * width + 1) * g * (step + 1))
        sums = np.zeros((k, r))
        block = np.take(points.T, rows[:, lo:hi], axis=1)
        for t0 in range(0, n, width):
            t1 = min(t0 + width, n)
            # row 0 is spare, the tile's distances are rows 1..t1-t0
            tile = work[: (t1 - t0 + 1) * r].reshape(-1, r)
            dist = _sq_distances(cols_t[:, t0:t1], block, work[r:])
            np.sqrt(dist, out=dist)
            for c in range(bisect_right(bounds, t0) - 1, bisect_left(bounds, t1)):
                s, e = max(bounds[c], t0) - t0, min(bounds[c + 1], t1) - t0
                tile[s] = sums[c]
                np.add.reduce(tile[s : e + 1], axis=0, out=sums[c])
        per_point[:, lo:hi] = _scores_from_sums(sums.T, own[:, lo:hi].ravel(), counts).reshape(g, -1)

    _parallel_map(score_block, zip(starts, starts[1:] + [n]), workers)
    return per_point


def _report(per_point: np.ndarray, own: np.ndarray, counts: np.ndarray, ids: np.ndarray) -> SilhouetteReport:
    """One run's report from its ``_score_runs`` scores, cluster ids and
    counts: the per-cluster means of the clusters ``ids``, in that order
    (clusters absent from the run have count 0 and add no singletons)."""
    per_cluster = np.bincount(own, weights=per_point, minlength=len(counts))[ids] / counts[ids]
    return SilhouetteReport(
        per_point=per_point,
        per_cluster=per_cluster,
        micro=float(per_point.mean()),
        macro=float(per_cluster.mean()),
        singleton_count=int(counts[counts < 2].sum()),
    )


def full_report(data: Dataset, labels: Labeling, threads: int | None = None) -> SilhouetteReport:
    """Complete silhouette report for a labeled dataset: ``_score_runs``
    with one run of every row and the labeling's cluster sizes. With
    ``threads`` > 1 its blocks are scored on that many threads, at most the
    cores; the scores are the same bits at any block height, tile width and
    thread count.
    """
    if labels.n != data.n:
        raise ValueError("labeling length does not match dataset")
    if labels.k < 2:
        raise SilhouetteUndefinedError("silhouette requires at least two clusters")
    own, counts = labels.assignments, labels.cluster_sizes()
    per_point = _score_runs(data.points, np.arange(data.n)[None], own[None], counts, threads)
    return _report(per_point[0], own, counts, np.arange(labels.k))
