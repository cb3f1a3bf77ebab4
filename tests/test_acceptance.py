"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a PASS line (run with ``pytest -v -s`` to see them live).
The real-data wine check skips with a notice when no CSV is supplied.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from silkit.cli import main as cli_main
from silkit.clustering import KMeansConfig
from silkit.core import Dataset, canonicalize_labels
from silkit.ingest import ColumnSchema, load_csv
from silkit.kselect import sweep
from silkit.sampling import monte_carlo_study
from silkit.silhouette import full_report
from silkit.synth import imbalance_dataset

from naive import naive_silhouette
from test_experiments import _study_rows

THREADS = os.cpu_count() or 2


def _report(criterion, elapsed, detail):
    print(f"\nACCEPTANCE {criterion} PASS ({elapsed:.1f}s): {detail}")


def _random_instance(rng):
    n = int(rng.integers(20, 201))
    d = int(rng.integers(1, 11))
    k = int(rng.integers(2, 9))
    k = min(k, n - 1)
    pts = rng.normal(scale=rng.uniform(0.5, 4.0), size=(n, d))
    raw = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(raw)
    return Dataset(pts), canonicalize_labels(raw)


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        data, labels = _random_instance(rng)
        report = full_report(data, labels)
        s, pc, micro, macro = naive_silhouette(data.points, labels.assignments)
        worst = max(
            worst,
            np.abs(report.per_point - s).max(),
            abs(report.micro - micro),
            abs(report.macro - macro),
        )
        assert np.allclose(report.per_point, s, atol=1e-12)
        assert abs(report.micro - micro) <= 1e-12
        assert abs(report.macro - macro) <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(1, elapsed, f"oracle equivalence on 100 instances, worst |diff| = {worst:.2e}")


def test_criterion_2_balanced_equality():
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 8))
        m = int(rng.integers(2, 26))
        d = int(rng.integers(1, 6))
        pts = rng.normal(scale=rng.uniform(0.5, 3.0), size=(k * m, d))
        labels = canonicalize_labels(np.repeat(np.arange(k), m))
        report = full_report(Dataset(pts), labels)
        worst = max(worst, abs(report.micro - report.macro))
        assert abs(report.micro - report.macro) <= 1e-12
    _report(2, time.time() - t0, f"micro == macro on 50 balanced instances, worst gap = {worst:.2e}")


def test_criterion_3_nucleus_growth(tmp_path):
    t0 = time.time()
    rows = _study_rows(tmp_path, ["nucleus-study", "--seed", "0", "--threads", str(THREADS)])
    base_optimal = rows[0].micro_truth
    base_randomized = rows[0].micro_randomized
    assert abs(base_optimal - 0.74) <= 0.10
    assert abs(base_randomized - (-0.20)) <= 0.10
    macros = [r.macro_randomized for r in rows]
    assert max(macros) - min(macros) <= 0.01
    micros = [r.micro_randomized for r in rows]
    assert all(b > a for a, b in zip(micros, micros[1:]))
    crossing = [r.nucleus_size for r in rows if r.micro_randomized >= base_optimal]
    assert crossing, "randomized micro never crossed the optimal score"
    assert 2000 <= crossing[0] <= 10_000
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(
        3,
        elapsed,
        f"optimal micro {base_optimal:.3f} (0.74 +/- 0.10), randomized {base_randomized:.3f} "
        f"(-0.20 +/- 0.10), macro flat within {max(macros) - min(macros):.4f}, "
        f"micro crosses at nucleus size {crossing[0]}",
    )


def test_criterion_4_sampling_monte_carlo():
    t0 = time.time()
    sizes = (50, 100, 200, 400, 800)
    result = monte_carlo_study(*imbalance_dataset(10_000, seed=0), sizes, 30, seed_base=10, threads=THREADS)
    cells = {(c.size, c.strategy): c for c in result.cells}
    for L in sizes:
        assert cells[(L, "balanced")].whisker_range <= cells[(L, "uniform")].whisker_range
    for strategy in ("balanced", "uniform"):
        assert abs(cells[(800, strategy)].median - result.full_score) <= 0.02
    assert cells[(50, "uniform")].undefined_runs >= 1
    # balanced variance strictly below uniform's at every L (all < N/2)
    for L in sizes:
        vb = np.nanvar(cells[(L, "balanced")].scores)
        vu = np.nanvar(cells[(L, "uniform")].scores)
        assert vb < vu
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(
        4,
        elapsed,
        f"balanced whiskers tighter at every L, medians at L=800 within "
        f"{max(abs(cells[(800, s)].median - result.full_score) for s in ('balanced', 'uniform')):.4f} "
        f"of full macro {result.full_score:.4f}, "
        f"{cells[(50, 'uniform')].undefined_runs} undefined uniform run(s) at L=50",
    )


def test_criterion_5_k_estimation_sweep():
    t0 = time.time()
    data, _ = imbalance_dataset(10_000, seed=0)
    result = sweep(data, 2, 30, KMeansConfig(rng_seed=1), sample_size=1200)
    micro_max = max(r.micro for r in result.rows)
    assert result.argmax_macro == 12
    assert result.argmax_micro != 12
    assert micro_max >= 0.90
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(
        5,
        elapsed,
        f"argmax_macro = 12, argmax_micro = {result.argmax_micro} (!= 12), "
        f"micro saturated at {micro_max:.3f}",
    )


def test_criterion_6_noise_levels(tmp_path):
    t0 = time.time()
    rows = _study_rows(tmp_path, ["noise-study", "--seed", "0", "--threads", str(THREADS)])
    by_level = {r.level_pct: r for r in rows}
    assert set(by_level) == {0.0, 10.0, 20.0, 30.0, 40.0, 50.0}
    for r in rows:
        assert r.estimate_macro == 4, f"macro failed at {r.level_pct}%"
    assert any(r.estimate_micro != 4 for r in rows if r.level_pct >= 25.0)
    assert by_level[0.0].estimate_micro == 4
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(
        6,
        elapsed,
        "macro estimates 4 at every noise level; micro estimates "
        + ", ".join(f"{r.level_pct:.0f}%:{r.estimate_micro}" for r in rows),
    )


def _wine_path():
    env = os.environ.get("SILKIT_WINE_CSV")
    candidates = [env] if env else []
    here = Path(__file__).resolve().parent
    candidates += [here / "data" / "wine.csv", here.parent / "data" / "wine.csv"]
    for c in candidates:
        if c and Path(c).is_file():
            return Path(c)
    return None


def test_criterion_7_wine_spot_check():
    path = _wine_path()
    if path is None:
        pytest.skip(
            "wine CSV not present: place the UCI wine data at data/wine.csv "
            "(first column = class label, 13 numeric features) or set SILKIT_WINE_CSV"
        )
    t0 = time.time()
    data = load_csv(path, ColumnSchema(("label",) + ("numeric",) * 13))
    result = sweep(data, 2, 30, KMeansConfig(rng_seed=0))
    assert result.argmax_micro == 3
    assert result.argmax_macro == 3
    _report(7, time.time() - t0, "wine sweep: argmax_micro = argmax_macro = 3")


def test_criterion_8_determinism(tmp_path):
    t0 = time.time()
    outputs = []
    for threads in ("1", str(max(2, THREADS))):
        runs_f = tmp_path / f"runs_{threads}.csv"
        summary_f = tmp_path / f"summary_{threads}.csv"
        rc = cli_main(
            ["sample-study", "--sizes", "50,100", "--runs", "6", "--nucleus", "500",
             "--seed", "3", "--threads", threads,
             "-o", str(runs_f), "--summary", str(summary_f)]
        )
        assert rc == 0
        outputs.append(runs_f.read_bytes() + summary_f.read_bytes())
    assert outputs[0] == outputs[1], "thread count changed the output bytes"

    # rebuild the command line from the recorded header and re-run
    header = {}
    first = tmp_path / "runs_1.csv"
    for line in first.read_text().splitlines():
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition("=")
        header[key] = value
    rerun_runs = tmp_path / "rerun.csv"
    rerun_summary = tmp_path / "rerun_summary.csv"
    rc = cli_main(
        ["sample-study",
         "--sizes", header["sizes"],
         "--runs", header["runs"],
         "--nucleus", header["nucleus"],
         "--statistic", header["statistic"],
         "--sample-seed-base", header["sample-seed-base"],
         "--seed", header["seed"],
         "--threads", "2",
         "-o", str(rerun_runs), "--summary", str(rerun_summary)]
    )
    assert rc == 0
    assert rerun_runs.read_bytes() == first.read_bytes()
    _report(8, time.time() - t0, "byte-identical outputs across threads and header-driven re-runs")
