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

``monte_carlo_study`` scores the runs of one sample size L in groups of
g = ``BLOCK_ROWS // L`` (at least 1), so a group's g x L rows fit in one
kernel block. The group's runs share column slabs, each as wide as the
largest count of its cluster among them; a run with fewer members of a
cluster gets pad columns that add an exact 0.0 to its sums, so every run's
score has the bits ``sample_and_score`` gives it. Balanced runs of a size
all have the same counts and need no pads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, Labeling, _canonicalize_with_ids, _parallel_map
from .silhouette import BLOCK_ROWS, SilhouetteReport, _score_runs, full_report

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


def _check_sample(data: Dataset, labels: Labeling, strategy: str, size: int) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if not 2 <= size <= data.n:
        raise ValueError(f"sample size must be in [2, {data.n}] (the dataset size), got {size}")
    if strategy == "balanced" and labels.k < 2:
        raise ValueError("balanced sampling requires at least two clusters")


def _quotas(members: list[np.ndarray], sizes: np.ndarray, size: int) -> list[tuple[np.ndarray, int]]:
    """Each cluster's members and its ``balanced_allocation`` draw count."""
    return list(zip(members, balanced_allocation(sizes, size).tolist()))


def _members(labels: Labeling) -> list[np.ndarray]:
    return [labels.members(c) for c in range(labels.k)]


def _draw(n: int, size: int, seed: int, quotas: list[tuple[np.ndarray, int]] | None) -> np.ndarray:
    """Sorted row indices of one sample, from an rng seeded with ``seed``:
    without ``quotas`` (uniform), ``size`` draws without replacement over
    all n rows; with them (balanced), each cluster's count from its
    members, in cluster order from the same rng."""
    rng = np.random.default_rng(seed)
    if quotas is None:
        indices = rng.choice(n, size=size, replace=False)
    else:
        indices = np.concatenate([rng.choice(rows, size=q, replace=False) for rows, q in quotas])
    return np.sort(indices)


def sample_and_score(
    data: Dataset, labels: Labeling, strategy: str, size: int, seed: int
) -> SampleResult:
    """Draw ``size`` row indices with ``strategy``, from an rng seeded with
    ``seed``, and score the subsample: uniform draws without replacement
    over all rows; balanced draws each cluster's ``balanced_allocation``
    count from its members, in cluster order from the same rng."""
    _check_sample(data, labels, strategy, size)
    sizes = labels.cluster_sizes()
    quotas = _quotas(_members(labels), sizes, size) if strategy == "balanced" else None
    indices = _draw(data.n, size, seed, quotas)
    sub_raw = labels.assignments[indices]
    drawn = np.bincount(sub_raw, minlength=labels.k)
    surviving = np.flatnonzero(drawn > 0)
    if len(surviving) < 2:
        return SampleResult(indices, drawn, surviving, None, None)
    sub_labels, ids = _canonicalize_with_ids(sub_raw)
    report = full_report(Dataset(data.points[indices]), sub_labels)
    return SampleResult(indices, drawn, surviving, report, _micro_weighted(report.per_cluster, sizes[ids]))


def _micro_weighted(per_cluster: np.ndarray, full_sizes: np.ndarray) -> float:
    return float((per_cluster * full_sizes).sum() / full_sizes.sum())


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
    if statistic not in ("macro", "micro"):
        raise ValueError(f"unknown statistic: {statistic}")
    own, k = labels.assignments, labels.k
    full_sizes, members = labels.cluster_sizes(), _members(labels)
    # each task draws and scores up to g runs of one cell, g x size rows
    # within one block
    tasks = []
    for size in sizes:
        for strategy in STRATEGIES:
            _check_sample(data, labels, strategy, size)
            group = max(1, BLOCK_ROWS // size)
            quotas = _quotas(members, full_sizes, size) if strategy == "balanced" else None
            tasks += [(size, quotas, range(r, min(r + group, runs))) for r in range(0, runs, group)]

    def score_group(task) -> list[float]:
        size, quotas, group = task
        draws = [_draw(data.n, size, seed_base + run, quotas) for run in group]
        scores = [float("nan")] * len(draws)
        # a run needs two surviving clusters to be defined
        defined = [j for j, rows in enumerate(draws) if (own[rows] != own[rows[0]]).any()]
        if not defined:
            return scores
        rows = np.stack([draws[j] for j in defined])
        sub_raws = own[rows]
        per_point, counts = _score_runs(data.points[rows], sub_raws, k)
        for j, sub_raw, run_scores, run_counts in zip(defined, sub_raws, per_point, counts):
            # the run's clusters in first-occurrence order, as sample_and_score's report has them
            _, first = np.unique(sub_raw, return_index=True)
            ids = sub_raw[np.sort(first)]
            per_cluster = np.bincount(sub_raw, weights=run_scores, minlength=k)[ids] / run_counts[ids]
            if statistic == "macro":
                scores[j] = float(per_cluster.mean())
            else:
                # cluster means re-weighted by full sizes: valid under either strategy
                scores[j] = _micro_weighted(per_cluster, full_sizes[ids])
        return scores

    flat = [score for scores in _parallel_map(score_group, tasks, threads) for score in scores]

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
