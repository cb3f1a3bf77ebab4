"""Study drivers behind the nucleus-study and noise-study commands.

Each driver is a pure function of its arguments (seeds included), so every
experiment is reproducible and the CLI layer only handles files. Thread
counts never change results: parallel tasks are independent and collected
in index order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import KMeansConfig
from .core import _parallel_map
from .kselect import sweep
from .silhouette import full_report
from .synth import (
    NUCLEUS_CLUSTER,
    add_background_noise,
    imbalance_dataset,
    randomize_except,
    separated_blobs,
)

__all__ = [
    "NucleusStudyRow",
    "nucleus_study",
    "NoiseStudyRow",
    "noise_study",
]

# rng streams derived from one experiment seed (imbalance_dataset grows
# the nucleus from seed + 1)
_RANDOMIZE_OFFSET = 2
_NOISE_OFFSET = 10

# the noise study's base layout: separated blobs of equal size
NOISE_STUDY_BLOBS = 4
NOISE_STUDY_POINTS = 200

# The separated four-blob layout leaves most of the expanded box empty, so
# background noise spread "uniformly in the data space" needs a wider field
# than the default bounding-box pad.
NOISE_STUDY_PAD = 0.75


@dataclass(frozen=True)
class NucleusStudyRow:
    nucleus_size: int
    micro_randomized: float
    macro_randomized: float
    micro_truth: float
    macro_truth: float


def nucleus_study(
    sizes=(100, 500, 1000, 2000, 5000, 10_000),
    *,
    seed: int = 0,
    threads: int | None = None,
) -> list[NucleusStudyRow]:
    """Micro/macro scores of the randomized-except-nucleus labeling and the
    ground-truth labeling, per nucleus size.

    The random relabeling of the non-nucleus points is drawn once (same
    seed and draw order at every size) and excludes the nucleus label, so
    the nucleus cluster stays pure while it grows: its mean silhouette, and
    therefore the macro average, is flat across sizes, while the micro
    average rises with the nucleus share of the points. The sizes run in
    turn, each scored on ``threads`` threads: the largest size is most of
    the work, so a pool over sizes would leave threads idle.
    """

    def one(size: int) -> NucleusStudyRow:
        data, truth = imbalance_dataset(size, seed=seed)
        rng = np.random.default_rng(seed + _RANDOMIZE_OFFSET)
        randomized = randomize_except(truth, NUCLEUS_CLUSTER, rng)
        rand_report = full_report(data, randomized, threads)
        truth_report = full_report(data, truth, threads)
        return NucleusStudyRow(
            nucleus_size=size,
            micro_randomized=rand_report.micro,
            macro_randomized=rand_report.macro,
            micro_truth=truth_report.micro,
            macro_truth=truth_report.macro,
        )

    return [one(size) for size in sizes]


@dataclass(frozen=True)
class NoiseStudyRow:
    level_pct: float
    n_noise: int
    estimate_micro: int
    estimate_macro: int


def noise_study(
    levels_pct=(0, 10, 20, 30, 40, 50),
    *,
    k_min: int = 2,
    k_max: int = 30,
    seed: int = 0,
    cluster_seed: int = 5,
    noise_pad: float = NOISE_STUDY_PAD,
    threads: int | None = None,
) -> list[NoiseStudyRow]:
    """Estimated number of clusters per background-noise level.

    For each level, noise is injected into the same separated-blob dataset,
    the clusterer sweeps k, and both aggregations pick their best k.
    """
    base, base_labels = separated_blobs(NOISE_STUDY_BLOBS, NOISE_STUDY_POINTS, seed)

    def one(item) -> NoiseStudyRow:
        index, level = item
        noisy = add_background_noise(
            base, base_labels, level / 100.0, seed + _NOISE_OFFSET + index, noise_pad
        )
        result = sweep(noisy, k_min, k_max, KMeansConfig(rng_seed=cluster_seed))
        return NoiseStudyRow(
            level_pct=float(level),
            n_noise=noisy.n - base.n,
            estimate_micro=result.argmax_micro,
            estimate_macro=result.argmax_macro,
        )

    return _parallel_map(one, enumerate(levels_pct), threads)
