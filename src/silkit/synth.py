"""Synthetic scenario generators: Gaussian blobs, nucleus growth for
cluster-imbalance experiments, label randomization that keeps one cluster
pure, and uniform background noise injection (noise rows appended with
truth label -1).

Two canned datasets are built in one call each. ``separated_blobs`` places
k equal clusters on a ring with adjacent centers 16 standard deviations
apart. ``imbalance_dataset`` is the 12-cluster demo used throughout the
imbalance experiments: a tight "nucleus" cluster at the origin, a radially
aligned pair of clusters east of it (the cheapest merge for a clusterer,
and the nucleus's nearest neighbors), and nine moderately soft clusters
spread over varied radii and angles, with the nucleus grown to a requested
size. The varied radii make a random relabeling score clearly negative,
while every cluster remains coherent enough that the 12-way partition is
the macro-silhouette optimum.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, Labeling, canonicalize_labels

__all__ = [
    "generate_blobs",
    "grow_nucleus",
    "randomize_except",
    "add_background_noise",
    "imbalance_dataset",
    "separated_blobs",
    "NUCLEUS_CLUSTER",
]

# Cluster id of the nucleus blob in the imbalance demo.
NUCLEUS_CLUSTER = 0
# Points of each demo cluster before the nucleus grows; the least nucleus.
DEMO_POINTS = 100

# Frozen imbalance-demo layout: (center x, center y, stddev).
# Index 0 is the nucleus; 1..2 the radial gate pair; 3..11 the outer ring.
_DEMO_LAYOUT = (
    (0.0, 0.0, 0.05),
    (9.0, 0.0, 1.15),
    (15.3, 0.0, 1.15),
    (5.4805, 11.2344, 1.27),
    (-0.5934, 16.9896, 1.27),
    (-6.7831, 10.8535, 1.32),
    (-16.0215, 9.25, 1.47),
    (-13.0, 0.0, 1.37),
    (-15.1554, -8.75, 1.37),
    (-6.3, -10.9119, 1.37),
    (-0.6283, -17.989, 1.37),
    (6.6, -11.4315, 1.58),
)


def generate_blobs(centers, stddevs, counts, seed: int = 0) -> tuple[Dataset, Labeling]:
    """Isotropic Gaussian mixture: sample one center/stddev/count per blob
    and attach the generating labels as ground truth."""
    if not (len(centers) == len(stddevs) == len(counts)):
        raise ValueError("centers, stddevs and counts must have equal length")
    if len(centers) < 1:
        raise ValueError("at least one blob is required")
    if any(c < 1 for c in counts):
        raise ValueError("counts must be >= 1")
    if any(s <= 0 for s in stddevs):
        raise ValueError("stddevs must be > 0")
    if len({len(c) for c in centers}) != 1:
        raise ValueError("all centers must share one dimensionality")
    rng = np.random.default_rng(seed)
    pts, lab = [], []
    for j, (center, sd, count) in enumerate(zip(centers, stddevs, counts)):
        pts.append(rng.normal(center, sd, size=(count, len(center))))
        lab.append(np.full(count, j, dtype=np.int64))
    labels = np.concatenate(lab)
    return Dataset(np.vstack(pts), truth_labels=labels), Labeling(labels, k=len(centers))


def grow_nucleus(
    data: Dataset,
    labels: Labeling,
    nucleus_cluster: int,
    added: int,
    stddev: float,
    rng: np.random.Generator,
) -> tuple[Dataset, Labeling]:
    """Append Gaussian points at the nucleus cluster's center.

    Existing rows are unchanged; the new rows carry the nucleus label.
    """
    if not 0 <= nucleus_cluster < labels.k:
        raise ValueError(f"unknown cluster id {nucleus_cluster}")
    if added == 0:
        return data, labels
    center = data.points[labels.members(nucleus_cluster)].mean(axis=0)
    extra = rng.normal(center, stddev, size=(added, data.dim))
    points = np.vstack([data.points, extra])
    assignments = np.concatenate(
        [labels.assignments, np.full(added, nucleus_cluster, dtype=np.int64)]
    )
    truth = None
    if data.truth_labels is not None:
        truth = np.concatenate(
            [data.truth_labels, np.full(added, nucleus_cluster, dtype=np.int64)]
        )
    return Dataset(points, truth_labels=truth), Labeling(assignments, labels.k)


def randomize_except(labels: Labeling, keep_cluster: int, rng: np.random.Generator) -> Labeling:
    """Random uniform labels, drawn from the ``labels.k - 1`` labels other
    than ``keep_cluster``, for every point outside ``keep_cluster``.

    Excluding the kept label keeps the preserved cluster pure; the nucleus
    growth study relies on that to hold its macro score constant while the
    cluster is inflated.
    """
    if not 0 <= keep_cluster < labels.k:
        raise ValueError(f"unknown cluster id {keep_cluster}")
    k = labels.k
    if k < 2:
        raise ValueError("excluding the kept label requires k >= 2")
    out = np.asarray(labels.assignments).copy()
    mask = out != keep_cluster
    choices = np.array([c for c in range(k) if c != keep_cluster], dtype=np.int64)
    out[mask] = choices[rng.integers(0, k - 1, size=int(mask.sum()))]
    return canonicalize_labels(out)


def noise_count(n_points: int, level: float) -> int:
    """Number of noise rows, rounded half up, so that noise/(noise + N) is the level."""
    return int(np.floor(level * n_points / (1.0 - level) + 0.5))


def add_background_noise(
    data: Dataset, labels: Labeling, level: float, seed: int, pad: float
) -> Dataset:
    """Append uniform background noise at relative level ``level`` (the
    noise share of the result), drawn from an rng seeded with ``seed`` over
    the dataset's bounding box expanded by ``pad`` (a fraction of the span)
    per side.

    Noise rows come last, with truth label -1; the other rows keep the
    dataset's truth labels, or ``labels`` where it has none.
    """
    if not 0.0 <= level < 1.0:
        raise ValueError(f"noise level must be in [0, 1), got {level}")
    if not (np.isfinite(pad) and pad >= 0.0):
        raise ValueError(f"noise pad must be a finite number >= 0, got {pad}")
    n = noise_count(data.n, level)
    base_truth = data.truth_labels if data.truth_labels is not None else labels.assignments
    if n == 0:
        return Dataset(data.points, truth_labels=base_truth)
    lo = data.points.min(axis=0)
    hi = data.points.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the error below
        span = hi - lo
        lo = lo - pad * span
        hi = hi + pad * span
        width = hi - lo
    if not np.isfinite(width).all():
        raise ValueError(f"noise pad must keep the noise box finite, got {pad}")
    rng = np.random.default_rng(seed)
    noise = rng.uniform(lo, hi, size=(n, data.dim))
    points = np.vstack([data.points, noise])
    truth = np.concatenate([base_truth, np.full(n, -1, dtype=np.int64)])
    return Dataset(points, truth_labels=truth)


def imbalance_dataset(
    nucleus_total: int = 10_000, points_per_cluster: int = DEMO_POINTS, seed: int = 0
) -> tuple[Dataset, Labeling]:
    """The 12-cluster imbalance demo (see module docstring), its nucleus
    grown to ``nucleus_total`` points with the nucleus blob's own stddev,
    drawn from an rng seeded with ``seed + 1``."""
    if nucleus_total < points_per_cluster:
        raise ValueError("nucleus_total must be at least points_per_cluster")
    data, labels = generate_blobs(
        [(x, y) for x, y, _ in _DEMO_LAYOUT],
        [sd for _, _, sd in _DEMO_LAYOUT],
        [points_per_cluster] * len(_DEMO_LAYOUT),
        seed,
    )
    added = nucleus_total - points_per_cluster
    rng = np.random.default_rng(seed + 1)
    return grow_nucleus(data, labels, NUCLEUS_CLUSTER, added, _DEMO_LAYOUT[NUCLEUS_CLUSTER][2], rng)


def separated_blobs(
    k: int, points_per_cluster: int, seed: int = 0, *, stddev: float = 1.0
) -> tuple[Dataset, Labeling]:
    """k equal blobs on a ring with adjacent centers 16 apart."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        centers = [(0.0, 0.0)]
    else:
        radius = 16.0 / (2.0 * np.sin(np.pi / k))
        # phase offset puts k=4 on the corners of an axis-aligned square, so
        # the blobs span the bounding box instead of its edge midpoints
        angles = [np.pi / k + 2.0 * np.pi * j / k for j in range(k)]
        centers = [(radius * float(np.cos(a)), radius * float(np.sin(a))) for a in angles]
    return generate_blobs(centers, [stddev] * k, [points_per_cluster] * k, seed)
