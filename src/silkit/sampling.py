"""Subsampling strategies for scalable silhouette estimation.

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
    "SampleSpec",
    "SampleResult",
    "uniform_sample",
    "balanced_sample",
    "MonteCarloCell",
    "monte_carlo_study",
    "tukey_whiskers",
]

STRATEGIES = ("uniform", "balanced")


@dataclass(frozen=True)
class SampleSpec:
    strategy: str
    size: int
    rng_seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.size < 2:
            raise ValueError("sample size must be >= 2")


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

    @property
    def macro(self) -> float | None:
        return self.report.macro if self.report else None

    @property
    def micro(self) -> float | None:
        return self.report.micro if self.report else None


def _score_subset(data: Dataset, labels: Labeling, indices: np.ndarray) -> SampleResult:
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


def uniform_sample(data: Dataset, labels: Labeling, spec: SampleSpec) -> SampleResult:
    """Score a uniformly drawn subsample of L rows."""
    if spec.size > data.n:
        raise ValueError(f"sample size {spec.size} exceeds dataset size {data.n}")
    rng = np.random.default_rng(spec.rng_seed)
    indices = np.sort(rng.choice(data.n, size=spec.size, replace=False))
    return _score_subset(data, labels, indices)


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


def balanced_sample(data: Dataset, labels: Labeling, spec: SampleSpec) -> SampleResult:
    """Score a cluster-balanced subsample: equal quotas, leftover budget to
    the clusters with the most unsampled points."""
    if spec.size > data.n:
        raise ValueError(f"sample size {spec.size} exceeds dataset size {data.n}")
    if labels.k < 2:
        raise ValueError("balanced sampling requires at least two clusters")
    rng = np.random.default_rng(spec.rng_seed)
    alloc = balanced_allocation(labels.cluster_sizes(), spec.size)
    chunks = []
    for c in range(labels.k):
        members = labels.members(c)
        chunks.append(rng.choice(members, size=int(alloc[c]), replace=False))
    indices = np.sort(np.concatenate(chunks))
    return _score_subset(data, labels, indices)


_SAMPLERS = {"uniform": uniform_sample, "balanced": balanced_sample}


def sample_and_score(data: Dataset, labels: Labeling, spec: SampleSpec) -> SampleResult:
    return _SAMPLERS[spec.strategy](data, labels, spec)


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
    strategies=STRATEGIES,
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
        for strategy in strategies
        for run in range(runs)
    ]

    def one(task):
        size, strategy, run = task
        spec = SampleSpec(strategy, size, seed_base + run)
        return _study_score(sample_and_score(data, labels, spec), statistic)

    flat = _parallel_map(one, tasks, threads)

    cells = []
    pos = 0
    for size in sizes:
        for strategy in strategies:
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
