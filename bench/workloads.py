"""The benchmark workloads: CLI arguments derived from a seed, and
correctness gates that read the written outputs.

The gates use numpy, the csv module and their own brute-force silhouette;
they import nothing from silkit, so a defect in the code under test cannot
also hide in its check.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

TOL = 1e-12
THREADS = 2  # the benchmark machine has 2 cores; the CLI default is os.cpu_count()
NUCLEUS_LABEL_COUNT = 12
STRATEGIES = ("uniform", "balanced")  # the order sample-study writes them in


def gen_argv(points_per_cluster: int, nucleus_extra: int, seed: int, path: Path) -> list[str]:
    """The 12-cluster imbalance demo with its nucleus grown by ``nucleus_extra``."""
    return [
        "gen", "blobs", "--k", str(NUCLEUS_LABEL_COUNT), "--n", str(points_per_cluster),
        "--nucleus-extra", str(nucleus_extra), "--seed", str(seed), "-o", str(path),
    ]


def read_points_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Points and integer labels of a dataset CSV (``#`` lines, header, rows)."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    body = rows[1:]
    points = np.array([[float(v) for v in row[:-1]] for row in body], dtype=np.float64)
    labels = np.array([int(row[-1]) for row in body], dtype=np.int64)
    return points, labels


def read_result_csv(path: Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Config header (``# key=value`` lines), column names and rows."""
    config = {}
    with path.open(newline="", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            config[key] = value
        elif line:
            body.append(line)
    rows = list(csv.reader(body))
    return config, rows[0], rows[1:]


def brute_force_silhouette(points: np.ndarray, labels: np.ndarray, rows) -> np.ndarray:
    """Silhouette of each listed row straight from the definition.

    A point alone in its cluster scores 0, and so does a = b = 0.
    """
    ids = np.unique(labels)
    members = {c: np.flatnonzero(labels == c) for c in ids}
    out = np.empty(len(rows), dtype=np.float64)
    for j, i in enumerate(rows):
        dist = np.sqrt(((points - points[i]) ** 2).sum(axis=1))
        own = labels[i]
        if len(members[own]) < 2:
            out[j] = 0.0
            continue
        a = dist[members[own]].sum() / (len(members[own]) - 1)
        b = min(dist[members[c]].sum() / len(members[c]) for c in ids if c != own)
        denom = max(a, b)
        out[j] = 0.0 if denom == 0.0 else (b - a) / denom
    return out


def first_occurrence_ids(labels: np.ndarray) -> np.ndarray:
    """Label values in order of first appearance (the report's cluster order)."""
    _, first = np.unique(labels, return_index=True)
    return labels[np.sort(first)]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


@dataclass(frozen=True)
class ScoreNucleus:
    """Exact ``silkit score`` on the 12-cluster imbalance dataset (N=11,100).

    The streamed distance kernel and per-cluster reduction do nearly all the
    work; clustering and sampling do none, so a k-means change reads as no
    change here.
    """

    name: ClassVar[str] = "score-nucleus"
    threads: ClassVar[int] = 1
    points_per_cluster: int = 100
    nucleus_extra: int = 9900
    checked_rows: int = 256

    def input_argv(self, path: Path, seed: int) -> list[str]:
        return gen_argv(self.points_per_cluster, self.nucleus_extra, seed, path)

    def job_argv(self, work: Path, seed: int) -> list[str]:
        data, out = str(work / "input.csv"), str(work / "report.json")
        return ["score", "--data", data, "--seed", str(seed), "-o", out]

    def outputs(self, work: Path) -> list[Path]:
        return [work / "report.json"]

    def check(self, work: Path, seed: int) -> list[str]:
        points, labels = read_points_csv(work / "input.csv")
        sizes = sorted(np.unique(labels, return_counts=True)[1].tolist())
        p = self.points_per_cluster
        expected_sizes = [p] * (NUCLEUS_LABEL_COUNT - 1) + [p + self.nucleus_extra]
        if sizes != expected_sizes:
            return [f"input cluster sizes {sizes}, expected {expected_sizes}"]
        payload = json.loads((work / "report.json").read_text(encoding="utf-8"))
        errors = []
        if payload["config"]["seed"] != seed:
            errors.append(f"config seed {payload['config']['seed']} != {seed}")
        report = payload["report"]
        per_point = np.array(report["per_point"], dtype=np.float64)
        if per_point.shape != (len(labels),):
            return errors + [f"{per_point.shape[0]} per-point scores for {len(labels)} rows"]
        rows = np.random.default_rng(seed).choice(len(labels), self.checked_rows, replace=False)
        expected = brute_force_silhouette(points, labels, rows)
        worst = float(np.abs(per_point[rows] - expected).max())
        if worst > TOL:
            errors.append(f"per_point differs from brute force by {worst:.3g}")
        ids = first_occurrence_ids(labels)
        per_cluster = np.array([per_point[labels == c].mean() for c in ids])
        got = np.array(report["per_cluster"], dtype=np.float64)
        if got.shape != per_cluster.shape or np.abs(got - per_cluster).max() > TOL:
            errors.append("per_cluster is not the per-cluster mean of per_point")
        if not close(report["micro"], float(per_point.mean())):
            errors.append("micro is not the mean of per_point")
        if not close(report["macro"], float(per_cluster.mean())):
            errors.append("macro is not the mean of per_cluster")
        return errors


@dataclass(frozen=True)
class SweepNucleus:
    """``silkit sweep`` k=2..30 with balanced sampled scoring per k.

    Global k-means++ (Lloyd) does nearly all the work and the streamed
    scoring path is never used. The imbalance dataset is scaled down to
    N=1,550 (nucleus 1,000): Lloyd time varies by about 15% between
    inputs, so a run needs many sweeps on distinct inputs for a steady
    median, and the N=11,100 sweep takes over 20 s.
    """

    name: ClassVar[str] = "sweep-nucleus"
    threads: ClassVar[int] = 1
    points_per_cluster: int = 50
    nucleus_extra: int = 950
    k_min: int = 2
    k_max: int = 30
    sample: int = 400

    def input_argv(self, path: Path, seed: int) -> list[str]:
        return gen_argv(self.points_per_cluster, self.nucleus_extra, seed, path)

    def job_argv(self, work: Path, seed: int) -> list[str]:
        return [
            "sweep", "--data", str(work / "input.csv"), "--k-min", str(self.k_min),
            "--k-max", str(self.k_max), "--sample", str(self.sample), "--strategy", "balanced",
            "--seed", str(seed + 1), "-o", str(work / "sweep.csv"),
        ]

    def outputs(self, work: Path) -> list[Path]:
        return [work / "sweep.csv"]

    def check(self, work: Path, seed: int) -> list[str]:
        config, header, rows = read_result_csv(work / "sweep.csv")
        errors = []
        if config.get("seed") != str(seed + 1):
            errors.append(f"config seed {config.get('seed')} != {seed + 1}")
        if header != ["k", "micro", "macro", "sse"]:
            return errors + [f"unexpected columns {header}"]
        ks = [int(r[0]) for r in rows]
        if ks != list(range(self.k_min, self.k_max + 1)):
            return errors + [f"rows are for k={ks}, expected one row per k in order"]
        micro, macro, sse = (np.array([float(r[i]) for r in rows]) for i in (1, 2, 3))
        for label, column in (("micro", micro), ("macro", macro)):
            if not (np.isfinite(column).all() and (np.abs(column) <= 1.0).all()):
                errors.append(f"{label} scores outside [-1, 1] or not finite")
        if not np.isfinite(sse).all() or (np.diff(sse) > 0).any():
            errors.append("sse increases with k")
        for label, column in (("micro", micro), ("macro", macro)):
            best = ks[int(np.argmax(column))]  # first maximum: the smallest k
            if config.get(f"argmax-{label}") != str(best):
                errors.append(f"argmax-{label}={config.get(f'argmax-{label}')}, rows give {best}")
        return errors


@dataclass(frozen=True)
class SampleStudy:
    """``silkit sample-study``: uniform vs balanced Monte Carlo at the
    acceptance sizes (L = 50..800, 30 runs each, nucleus of 10,000).

    About 300 small materialized scorings in a thread pool beside one
    streamed N=11,100 report; the only workload through the sampling layer.
    """

    name: ClassVar[str] = "sample-study"
    threads: ClassVar[int] = THREADS
    sizes: tuple[int, ...] = (50, 100, 200, 400, 800)
    runs: int = 30
    nucleus: int = 10_000

    def input_argv(self, path: Path, seed: int) -> None:
        return None  # the study generates its own dataset

    def job_argv(self, work: Path, seed: int) -> list[str]:
        return [
            "sample-study", "--sizes", ",".join(map(str, self.sizes)), "--runs", str(self.runs),
            "--nucleus", str(self.nucleus), "--threads", str(THREADS), "--seed", str(seed),
            "-o", str(work / "runs.csv"), "--summary", str(work / "summary.csv"),
        ]

    def outputs(self, work: Path) -> list[Path]:
        return [work / "runs.csv", work / "summary.csv"]

    @property
    def acceptance_size(self) -> bool:
        return self == SampleStudy()

    def check(self, work: Path, seed: int) -> list[str]:
        config, header, rows = read_result_csv(work / "runs.csv")
        errors = []
        if config.get("seed") != str(seed):
            errors.append(f"config seed {config.get('seed')} != {seed}")
        if header != ["L", "strategy", "run", "score", "defined"]:
            return errors + [f"unexpected run columns {header}"]
        expected_keys = [
            (size, strategy, run)
            for size in self.sizes
            for strategy in STRATEGIES
            for run in range(self.runs)
        ]
        keys = [(int(r[0]), r[1], int(r[2])) for r in rows]
        if keys != expected_keys:
            return errors + ["run rows do not cover every (L, strategy, run) once in order"]
        scores: dict[tuple[int, str], list[float]] = {}
        for size, strategy, _, score, defined in rows:
            if (defined == "True") != (score != ""):
                errors.append(f"L={size} {strategy}: defined flag disagrees with the score")
                continue
            value = float(score) if score else math.nan
            if score and not -1.0 <= value <= 1.0:
                errors.append(f"L={size} {strategy}: score {value} outside [-1, 1]")
            scores.setdefault((int(size), strategy), []).append(value)
        if errors:
            return errors
        full_score = float(config["full-score"])
        if not -1.0 <= full_score <= 1.0:
            errors.append(f"full-score {full_score} outside [-1, 1]")
        errors += self._check_summary(work, scores)
        if not errors and seed == 0 and self.acceptance_size:
            errors += criterion_4(scores, full_score)
        return errors

    def _check_summary(self, work: Path, scores) -> list[str]:
        _, header, rows = read_result_csv(work / "summary.csv")
        if [(int(r[0]), r[1]) for r in rows] != list(scores):
            return ["summary rows do not match the run cells"]
        errors = []
        for row in rows:
            size, strategy = int(row[0]), row[1]
            values = np.array(scores[(size, strategy)])
            defined = values[~np.isnan(values)]
            got = dict(zip(header, row))
            if int(got["undefined_runs"]) != len(values) - len(defined):
                errors.append(f"L={size} {strategy}: undefined_runs {got['undefined_runs']}")
            if len(defined) == 0:
                continue
            low, high = tukey_whiskers(defined)
            expected = {
                "median": float(np.median(defined)),
                "whisker_low": low,
                "whisker_high": high,
                "whisker_range": high - low,
            }
            for key, value in expected.items():
                if not close(float(got[key]), value):
                    errors.append(f"L={size} {strategy}: {key} {got[key]} != {value!r}")
        return errors


def tukey_whiskers(values: np.ndarray) -> tuple[float, float]:
    """Lowest and highest value within 1.5 IQR of the quartiles."""
    q1, q3 = np.percentile(values, [25, 75])
    fence = 1.5 * (q3 - q1)
    inside = values[(values >= q1 - fence) & (values <= q3 + fence)]
    return float(inside.min()), float(inside.max())


def criterion_4(scores, full_score: float) -> list[str]:
    """The sampling study's acceptance properties at seed 0."""
    errors = []
    sizes = sorted({size for size, _ in scores})

    def spread(size, strategy):
        values = np.array(scores[(size, strategy)])
        low, high = tukey_whiskers(values[~np.isnan(values)])
        return high - low

    for size in sizes:
        if spread(size, "balanced") > spread(size, "uniform"):
            errors.append(f"L={size}: balanced whiskers wider than uniform")
        if np.nanvar(scores[(size, "balanced")]) >= np.nanvar(scores[(size, "uniform")]):
            errors.append(f"L={size}: balanced variance not below uniform")
    for strategy in STRATEGIES:
        median = float(np.nanmedian(scores[(sizes[-1], strategy)]))
        if abs(median - full_score) > 0.02:
            errors.append(f"L={sizes[-1]} {strategy}: median {median} not within 0.02 of full")
    if not any(math.isnan(v) for v in scores[(sizes[0], "uniform")]):
        errors.append(f"L={sizes[0]} uniform: no undefined run")
    return errors


WORKLOADS = {w.name: w for w in (ScoreNucleus(), SweepNucleus(), SampleStudy())}
