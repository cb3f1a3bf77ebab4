"""Estimating the number of clusters: sweep candidate k values, score each
solution with both silhouette aggregations, and pick the maximum.

Ties on the maximum resolve to the smallest k (a plateau of equal scores
should yield the most parsimonious model). Sweeps start at k=2 because the
silhouette needs a second cluster to compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import KMeansConfig, global_kmeanspp
from .core import Dataset
from .sampling import sample_and_score
from .silhouette import full_report

__all__ = ["SweepRow", "SweepResult", "sweep"]


@dataclass(frozen=True)
class SweepRow:
    k: int
    micro: float
    macro: float
    sse: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    @property
    def argmax_micro(self) -> int:
        """Smallest k attaining the maximum micro score."""
        return self.rows[int(np.argmax([r.micro for r in self.rows]))].k

    @property
    def argmax_macro(self) -> int:
        """Smallest k attaining the maximum macro score."""
        return self.rows[int(np.argmax([r.macro for r in self.rows]))].k


def sweep(
    data: Dataset,
    k_min: int,
    k_max: int,
    config: KMeansConfig,
    *,
    sample_size: int | None = None,
    sample_strategy: str = "balanced",
    threads: int | None = None,
) -> SweepResult:
    """Cluster for every k in [k_min, k_max] and score each solution.

    With ``sample_size`` set, each solution is scored on a subsample:
    macro is the subsample's macro and micro re-weights the cluster means by
    full cluster sizes. Each k draws its own subsample with seed
    ``config.rng_seed + k``. A sample of N or more points is an error,
    not a silent full scoring; the size is checked before any clustering.
    Without it, each solution's ``full_report`` runs on ``threads`` threads,
    which never changes a score.
    """
    if not 2 <= k_min <= k_max <= data.n - 1:
        raise ValueError(f"need 2 <= k_min <= k_max <= N-1, got [{k_min}, {k_max}] with N={data.n}")
    if sample_size is not None and not 2 <= sample_size < data.n:
        raise ValueError(
            f"sample size must be in [2, {data.n - 1}], below the dataset size {data.n} "
            f"(omit it to score in full), got {sample_size}"
        )
    solutions = global_kmeanspp(data, k_max, config)

    rows = []
    for k in range(k_min, k_max + 1):
        result = solutions[k]
        labeling = result.labeling
        if sample_size is not None:
            scored = sample_and_score(
                data, labeling, sample_strategy, sample_size, config.rng_seed + k
            )
            if not scored.defined:
                raise ValueError(f"subsample at k={k} lost all but one cluster; draw a larger sample")
            micro, macro = scored.micro_weighted, scored.report.macro
        else:
            report = full_report(data, labeling, threads)
            micro, macro = report.micro, report.macro
        rows.append(SweepRow(k=k, micro=float(micro), macro=float(macro), sse=result.sse))
    return SweepResult(rows=tuple(rows))
