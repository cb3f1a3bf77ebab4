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
``_report`` aggregates one run. ``full_report`` is the one-run case,
``arange(N)``; sampled scoring passes groups of equally sized draws, whose
columns are padded to common slab widths with pads that add an exact 0.0,
and whose absent clusters have an infinite mean distance and no entry in
the report.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Labeling, _parallel_map, _sq_distances, _unbuffered

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
    s = (b - a) / safe
    s[denom == 0.0] = 0.0
    s[singleton] = 0.0
    return s


def _columns(points: np.ndarray, rows: np.ndarray, own: np.ndarray, counts: np.ndarray):
    """The kernel's columns for g runs of row indices into ``points``: each
    run's rows sorted stably by cluster into slabs, slab c as wide as the
    largest count of c, gathered once from the view ``points.T`` (no copy
    of ``points`` or of its transpose) into a C-contiguous d x m x g array;
    the m + 1 slab bounds; and the m x g mask of pad columns (all False
    when no run has any)."""
    g, n = own.shape
    bounds = [0, *np.cumsum(counts.max(axis=0)).tolist()]
    # run j's p-th member of cluster c goes to slot bounds[c] + p; a slot
    # left empty is a pad, which repeats the run's first row, so its
    # distances stay finite
    run, order = np.arange(g)[:, None], np.argsort(own, axis=1, kind="stable")
    shift = np.asarray(bounds[:-1]) - np.cumsum(counts, axis=1) + counts
    index = np.full((g, bounds[-1]), -1)
    index[run, shift[run, own[run, order]] + np.arange(n)] = rows[run, order]
    pads = index.T < 0
    np.copyto(index.T, rows[:, 0], where=pads)
    return np.take(points.T, index.T, axis=1), bounds, pads


def _score_runs(
    points: np.ndarray, rows: np.ndarray, own: np.ndarray, k: int, threads: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point scores of g runs of n points each, scored together: the
    one kernel behind ``full_report`` (one run of every point) and sampled
    scoring (runs of one sample size).

    ``rows`` (g x n) holds each run's row indices into the N x d ``points``
    and ``own`` (g x n) their cluster ids in 0..k-1; runs may share rows,
    and a run may miss clusters. Returns the g x n scores and the g x k
    cluster counts of the runs.

    Each run's rows are sorted stably by cluster into columns, so a row's
    distances to a cluster are one slab. Slab c is as wide as the largest
    count of c among the runs; a run with fewer members of c fills the rest
    with pad columns, whose distances are set to an exact 0.0 (a call with
    none skips that pass), so the slab sum stays the run's own member-order
    chain (x + 0.0 == x). Blocks take up to ``BLOCK_ROWS // g`` rows of
    every run at once (callers keep g x n within ``BLOCK_ROWS``, so a block
    holds a run's whole row length when g > 1), against the columns in
    tiles of ``TILE_ELEMS`` distances, so the kernel's two buffers stay near
    1 MB each, ~2 MB a thread. Both kernel operands are coordinate-major
    and gathered from the view ``points.T``: the columns once per call as
    d x m x g, and each block's rows once into a d x g x h per-thread
    buffer, so every subtraction streams a contiguous coordinate row and no
    tile copies or allocates. A slab that spans tiles is folded: before
    each of its segments is summed, its running sum is copied into the tile
    row just above the segment (a spare row, or the previous slab's last
    row, already summed), so every slab sum is one chain in member order
    whatever the block height, tile width or run grouping. numpy feeds a
    broadcast subtraction with rows shorter than ~4096 through its
    8192-element ufunc buffer, several times slower than running it
    unbuffered, so each block runs with the buffer set to 256 elements
    (``_unbuffered``). With ``threads`` > 1 the blocks, at
    most n / threads rows tall, are scored on that many threads. Each block
    writes only its own rows, so the result does not depend on the thread
    count either; None or 1 scores serially.
    """
    g, n = own.shape
    counts = np.bincount((own + k * np.arange(g)[:, None]).ravel(), minlength=g * k).reshape(g, k)
    cols_t, bounds, pads = _columns(points, rows, own, counts)
    m, d = bounds[-1], points.shape[1]
    # checked once: a call without pad columns (full_report, a group whose
    # runs share their cluster counts) has nothing to zero
    any_pads = bool(pads.any())

    per_point = np.empty((g, n), dtype=np.float64)
    workers = max(threads or 1, 1)
    # numpy sums a one-column slab pairwise but a wider one in member order,
    # so no block is left with a single row (n >= 2 once k >= 2)
    step = max(2, min(n, BLOCK_ROWS // g, -(-n // workers)))
    starts = list(range(0, n, step))
    if n - starts[-1] == 1:
        starts.pop()
    # not capped at m: kernel buffers of one size (about 2 * TILE_ELEMS) let
    # many small calls in a row reuse each other's freed memory; a small
    # call touches only the pages its tile uses
    width = max(1, TILE_ELEMS // (g * step))
    # each thread allocates its kernel and row buffers once, for the tallest block
    local = threading.local()

    def score_block(span: tuple[int, int]) -> None:
        lo, hi = span
        r = g * (hi - lo)
        if not hasattr(local, "work"):
            local.work = np.empty((2 * width + 1) * g * (step + 1))
            local.block = np.empty(d * g * (step + 1))
        sums = np.zeros((k, r))
        # the indices are rows of points, so "clip" never clips; unlike
        # "raise" it writes straight into the buffer
        block = local.block[: d * r].reshape(d, g, hi - lo)
        np.take(points.T, rows[:, lo:hi], axis=1, out=block, mode="clip")
        with _unbuffered():
            for t0 in range(0, m, width):
                t1 = min(t0 + width, m)
                # row 0 is spare, the tile's distances are rows 1..t1-t0
                tile = local.work[: (t1 - t0 + 1) * r].reshape(-1, r)
                dist = _sq_distances(cols_t[:, t0:t1], block, local.work[r:])
                np.sqrt(dist, out=dist)
                if any_pads:
                    dist[pads[t0:t1]] = 0.0
                for c in range(bisect_right(bounds, t0) - 1, bisect_left(bounds, t1)):
                    s, e = max(bounds[c], t0) - t0, min(bounds[c + 1], t1) - t0
                    tile[s] = sums[c]
                    np.add.reduce(tile[s : e + 1], axis=0, out=sums[c])
        sums = sums.reshape(k, g, -1)
        for j in range(g):
            per_point[j, lo:hi] = _scores_from_sums(sums[:, j].T, own[j, lo:hi], counts[j])

    _parallel_map(score_block, zip(starts, starts[1:] + [n]), threads)
    return per_point, counts


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
    with one run of every row, which has no pad columns. With
    ``threads`` > 1 its blocks are scored on that many threads; the scores
    are the same bits at any block height, tile width and thread count.
    """
    if labels.n != data.n:
        raise ValueError("labeling length does not match dataset")
    if labels.k < 2:
        raise SilhouetteUndefinedError("silhouette requires at least two clusters")
    own, k = labels.assignments, labels.k
    per_point, counts = _score_runs(data.points, np.arange(data.n)[None], own[None], k, threads)
    return _report(per_point[0], own, counts[0], np.arange(k))
