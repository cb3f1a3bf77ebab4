"""Subsampled silhouette estimation: ``sample_and_score`` draws a subsample
with one of two strategies and scores it.

Uniform sampling draws L row indices without replacement. Cluster-balanced
sampling gives every cluster an equal quota q = floor(L/K); clusters smaller
than the quota contribute all their members and the leftover budget goes,
one index at a time, to whichever cluster has the most unsampled points
(ties to the smaller cluster id).

A sampled silhouette report drops clusters that are absent from the sample.
When fewer than two clusters survive, the result is marked undefined rather
than raising: on heavily imbalanced data a small uniform sample regularly
lands inside a single cluster, and the study commands record that outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, Labeling, _canonicalize_with_ids, _parallel_map
from .silhouette import SilhouetteReport, full_report

__all__ = [
    "SampleResult",
    "sample_and_score",
    "MonteCarloCell",
    "monte_carlo_study",
    "tukey_whiskers",
]

STRATEGIES = ("uniform", "balanced")


@dataclass(frozen=True)
class SampleResult:
    """Indices drawn, per-cluster draw counts, and the subsample's scores.

    ``report`` is None when fewer than two clusters survived the sample.
    ``micro_weighted`` re-weights the surviving clusters' mean scores by
    their full-dataset sizes, estimating the full micro average from a
    sample whose cluster proportions differ from the dataset's.
    """

    indices: np.ndarray
    drawn_counts: np.ndarray
    surviving_clusters: np.ndarray
    report: SilhouetteReport | None
    micro_weighted: float | None

    @property
    def defined(self) -> bool:
        return self.report is not None


def balanced_allocation(cluster_sizes: np.ndarray, budget: int) -> np.ndarray:
    """Per-cluster draw counts for a balanced sample of the given budget:
    the leftover budget after the quotas lowers the largest unsampled counts
    ("room") to one level, and what is left at that level goes to the
    smallest ids (closed-form water-filling of the one-index rule)."""
    sizes = np.asarray(cluster_sizes, dtype=np.int64)
    alloc = np.minimum(sizes, budget // len(sizes))
    remaining = budget - int(alloc.sum())
    room = sizes - alloc
    if remaining >= room.sum():
        return sizes.copy()
    lo, hi = 1, int(room.max())  # smallest level whose excess fits the budget
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if np.maximum(room - mid, 0).sum() <= remaining else (mid + 1, hi)
    excess = np.maximum(room - lo, 0)
    alloc += excess
    alloc[np.flatnonzero(room >= lo)[: remaining - int(excess.sum())]] += 1
    return alloc


def sample_and_score(
    data: Dataset, labels: Labeling, strategy: str, size: int, seed: int
) -> SampleResult:
    """Draw ``size`` row indices with ``strategy``, from an rng seeded with
    ``seed``, and score the subsample: uniform draws without replacement
    over all rows; balanced draws each cluster's ``balanced_allocation``
    count from its members, in cluster order from the same rng."""
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if not 2 <= size <= data.n:
        raise ValueError(f"sample size must be in [2, {data.n}] (the dataset size), got {size}")
    rng = np.random.default_rng(seed)
    if strategy == "uniform":
        indices = rng.choice(data.n, size=size, replace=False)
    else:
        if labels.k < 2:
            raise ValueError("balanced sampling requires at least two clusters")
        alloc = balanced_allocation(labels.cluster_sizes(), size)
        indices = np.concatenate(
            [rng.choice(labels.members(c), size=int(alloc[c]), replace=False) for c in range(labels.k)]
        )
    indices = np.sort(indices)
    sub_raw = labels.assignments[indices]
    drawn = np.bincount(sub_raw, minlength=labels.k)
    surviving = np.flatnonzero(drawn > 0)
    if len(surviving) < 2:
        return SampleResult(indices, drawn, surviving, None, None)
    sub_labels, ids = _canonicalize_with_ids(sub_raw)
    report = full_report(Dataset(data.points[indices]), sub_labels)
    full_sizes = labels.cluster_sizes()[ids]
    micro_weighted = float((report.per_cluster * full_sizes).sum() / full_sizes.sum())
    return SampleResult(indices, drawn, surviving, report, micro_weighted)


def tukey_whiskers(values: np.ndarray) -> tuple[float, float]:
    """Lowest/highest datum within 1.5 IQR of the quartiles."""
    q1, q3 = np.percentile(values, [25, 75])
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = values[(values >= lo_fence) & (values <= hi_fence)]
    return float(inside.min()), float(inside.max())


@dataclass(frozen=True)
class MonteCarloCell:
    """Summary of repeated sampled scorings for one (L, strategy) pair."""

    size: int
    strategy: str
    scores: np.ndarray  # one entry per run; NaN where undefined
    median: float
    whisker_low: float
    whisker_high: float
    undefined_runs: int

    @property
    def whisker_range(self) -> float:
        return self.whisker_high - self.whisker_low


def _study_score(result: SampleResult, statistic: str) -> float:
    if not result.defined:
        return float("nan")
    if statistic == "macro":
        return result.report.macro
    if statistic == "micro":
        # cluster means re-weighted by full sizes: valid under either strategy
        return result.micro_weighted
    raise ValueError(f"unknown statistic: {statistic}")


def monte_carlo_study(
    data: Dataset,
    labels: Labeling,
    sizes,
    runs: int,
    *,
    seed_base: int = 0,
    statistic: str = "macro",
    threads: int | None = None,
) -> list[MonteCarloCell]:
    """Repeated sampled scorings over a grid of sample sizes.

    Run r of every cell uses seed ``seed_base + r``, so results do not
    depend on scheduling; undefined runs are excluded from the median and
    whiskers and reported separately.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    tasks = [
        (size, strategy, run)
        for size in sizes
        for strategy in STRATEGIES
        for run in range(runs)
    ]

    def one(task):
        size, strategy, run = task
        return _study_score(sample_and_score(data, labels, strategy, size, seed_base + run), statistic)

    flat = _parallel_map(one, tasks, threads)

    cells = []
    pos = 0
    for size in sizes:
        for strategy in STRATEGIES:
            scores = np.array(flat[pos : pos + runs])
            pos += runs
            defined = scores[~np.isnan(scores)]
            if len(defined) == 0:
                median = wl = wh = float("nan")
            else:
                median = float(np.median(defined))
                wl, wh = tukey_whiskers(defined)
            cells.append(
                MonteCarloCell(
                    size=int(size),
                    strategy=strategy,
                    scores=scores,
                    median=median,
                    whisker_low=wl,
                    whisker_high=wh,
                    undefined_runs=int(np.isnan(scores).sum()),
                )
            )
    return cells
