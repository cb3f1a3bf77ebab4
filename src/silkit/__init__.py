"""silkit: clustering evaluation with micro- and macro-averaged silhouette
scores, cluster-balanced sampling, k-means machinery, and cluster-count
estimation."""

__version__ = "0.1.0"

from .clustering import KMeansConfig, KMeansResult, global_kmeanspp
from .core import Dataset, Labeling, canonicalize_labels
from .kselect import SweepResult, SweepRow, sweep
from .sampling import MonteCarloCell, SampleResult, monte_carlo_study, sample_and_score
from .silhouette import SilhouetteReport, SilhouetteUndefinedError, full_report
from .synth import (
    add_background_noise,
    generate_blobs,
    grow_nucleus,
    imbalance_dataset,
    randomize_except,
    separated_blobs,
)

__all__ = [
    "__version__",
    "Dataset",
    "Labeling",
    "canonicalize_labels",
    "SilhouetteReport",
    "SilhouetteUndefinedError",
    "full_report",
    "SampleResult",
    "MonteCarloCell",
    "sample_and_score",
    "monte_carlo_study",
    "KMeansConfig",
    "KMeansResult",
    "global_kmeanspp",
    "SweepRow",
    "SweepResult",
    "sweep",
    "generate_blobs",
    "grow_nucleus",
    "randomize_except",
    "add_background_noise",
    "imbalance_dataset",
    "separated_blobs",
]
