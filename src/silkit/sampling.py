"""Subsampled silhouette estimation: ``sample_and_score`` draws a subsample
with one of two strategies and scores it.

Uniform sampling draws L row indices without replacement. Cluster-balanced
sampling gives every cluster an equal quota q = floor(L/K); clusters smaller
than the quota contribute all their members and the leftover budget goes,
one index at a time, to whichever cluster has the most unsampled points
(ties to the smaller cluster id).

A sampled report drops clusters absent from the sample and lists the rest
in first-occurrence order, as ``full_report`` of the subsample would. When
fewer than two clusters survive, the result is marked undefined rather than
raising: on heavily imbalanced data a small uniform sample regularly lands
inside a single cluster, and the study commands record that outcome.

Every draw comes from one sampler: ``_sampler`` checks a (strategy, L)
cell, fixes its quotas, and returns the cell's ``draw(seed)``. Every draw
is scored by ``_score_draws``: draws as their row indices into the
dataset's points, over the full labeling's cluster ids, one
``_score_runs`` call for each set of draws that share their per-cluster
counts (the kernel scores only equal-count runs together), each run
aggregated by ``silhouette._report``. ``sample_and_score`` makes and
scores one draw; ``monte_carlo_study`` builds one sampler per cell, all
sharing one copy of each cluster's member rows, draws its runs in tasks of
g = ``BLOCK_ROWS // L`` (at least 1), whose g x L rows fit in one kernel
block, and scores the full dataset once for the reference. Every draw of
a balanced cell has the cell's counts, so a task is one call; a uniform
draw rarely shares its counts and is usually scored alone. Every score has
the bits of its draw scored alone.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Labeling, _parallel_map, _workers
from .silhouette import BLOCK_ROWS, SilhouetteReport, _report, _score_runs, full_report

__all__ = [
    "SampleResult",
    "sample_and_score",
    "MonteCarloCell",
    "SampleStudyResult",
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


def _sampler(
    data: Dataset, labels: Labeling, strategy: str, size: int, members: list[np.ndarray] | None = None
) -> Callable[[int], np.ndarray]:
    """Check one (strategy, size) cell and return its ``draw(seed)``: the
    sorted row indices of one sample, from an rng seeded with ``seed``.
    Uniform draws ``size`` indices without replacement over all rows;
    balanced draws each cluster's ``balanced_allocation`` count from its
    ``members`` (each cluster's rows; built here unless a study shares
    them), in cluster order from the same rng."""
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if not 2 <= size <= data.n:
        raise ValueError(f"sample size must be in [2, {data.n}] (the dataset size), got {size}")
    if strategy == "uniform":
        return lambda seed: np.sort(np.random.default_rng(seed).choice(data.n, size=size, replace=False))
    if labels.k < 2:
        raise ValueError("balanced sampling requires at least two clusters")
    if members is None:
        members = [labels.members(c) for c in range(labels.k)]
    quotas = list(zip(members, balanced_allocation(labels.cluster_sizes(), size).tolist()))

    def draw(seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return np.sort(np.concatenate([rng.choice(rows, size=q, replace=False) for rows, q in quotas]))

    return draw


def _score_draws(
    data: Dataset, labels: Labeling, draws: list[np.ndarray]
) -> list[tuple[SilhouetteReport, float] | None]:
    """Score draws, one ``_score_runs`` call per count vector, in input
    order: per draw, its report, with its clusters in first-occurrence
    order, and their means re-weighted by full cluster sizes
    (``SampleResult.micro_weighted``); None when fewer than two clusters
    survive the draw."""
    own, sizes = labels.assignments, labels.cluster_sizes()
    scored = [None] * len(draws)
    groups = {}
    for j, rows in enumerate(draws):
        counts = np.bincount(own[rows], minlength=labels.k)
        if np.count_nonzero(counts) > 1:
            groups.setdefault(tuple(counts.tolist()), []).append(j)
    for key, group in groups.items():
        rows = np.stack([draws[j] for j in group])
        sub_raws, counts = own[rows], np.array(key)
        per_point = _score_runs(data.points, rows, sub_raws, counts)
        for j, sub_raw, run_scores in zip(group, sub_raws, per_point):
            _, first = np.unique(sub_raw, return_index=True)
            ids = sub_raw[np.sort(first)]
            report = _report(run_scores, sub_raw, counts, ids)
            scored[j] = (report, float((report.per_cluster * sizes[ids]).sum() / sizes[ids].sum()))
    return scored


def sample_and_score(
    data: Dataset, labels: Labeling, strategy: str, size: int, seed: int
) -> SampleResult:
    """Draw ``size`` row indices with ``strategy`` (see ``_sampler``), from
    an rng seeded with ``seed``, and score the subsample."""
    indices = _sampler(data, labels, strategy, size)(seed)
    drawn = np.bincount(labels.assignments[indices], minlength=labels.k)
    report, micro_weighted = _score_draws(data, labels, [indices])[0] or (None, None)
    return SampleResult(indices, drawn, np.flatnonzero(drawn > 0), report, micro_weighted)


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


@dataclass(frozen=True)
class SampleStudyResult:
    cells: list[MonteCarloCell]
    full_score: float


def monte_carlo_study(
    data: Dataset,
    labels: Labeling,
    sizes,
    runs: int,
    *,
    seed_base: int = 0,
    statistic: str = "macro",
    threads: int | None = None,
) -> SampleStudyResult:
    """Repeated sampled scorings over a grid of sample sizes, and the
    full-data score they estimate (``statistic`` of ``full_report``).

    Run r of every cell uses seed ``seed_base + r``, so results do not
    depend on scheduling; undefined runs are excluded from the median and
    whiskers and reported separately.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if statistic not in ("macro", "micro"):
        raise ValueError(f"unknown statistic: {statistic}")
    cells = [(size, strategy) for size in sizes for strategy in STRATEGIES]
    # each task draws and scores up to g runs of one cell: g x size rows, one block
    # (one kernel call when the runs share their counts, as balanced runs do)
    members = [labels.members(c) for c in range(labels.k)]  # one copy for every balanced cell
    tasks = []
    for size, strategy in cells:
        draw, group = _sampler(data, labels, strategy, size, members), max(1, BLOCK_ROWS // size)
        tasks += [(draw, range(r, min(r + group, runs))) for r in range(0, runs, group)]

    def score_group(task) -> list[float]:
        draw, group = task
        draws = [draw(seed_base + run) for run in group]
        # micro re-weights the cluster means by full sizes: valid under either strategy
        return [
            float("nan") if scored is None else scored[0].macro if statistic == "macro" else scored[1]
            for scored in _score_draws(data, labels, draws)
        ]

    report = full_report(data, labels, threads)
    full_score = report.macro if statistic == "macro" else report.micro
    flat = [score for scores in _parallel_map(score_group, tasks, _workers(threads)) for score in scores]

    summaries = []
    for (size, strategy), scores in zip(cells, np.reshape(flat, (len(cells), runs))):
        defined = scores[~np.isnan(scores)]
        if len(defined) == 0:
            median = wl = wh = float("nan")
        else:
            median = float(np.median(defined))
            wl, wh = tukey_whiskers(defined)
        summaries.append(
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
    return SampleStudyResult(summaries, full_score)
