"""Fast, scaled-down checks of the studies: the nucleus and noise studies
through the CLI, the Monte Carlo study through the library. The full-size
paper reproductions live in test_acceptance.py."""

import csv
from types import SimpleNamespace

import numpy as np
import pytest

from silkit.cli import main as cli_main
from silkit.sampling import monte_carlo_study
from silkit.synth import imbalance_dataset


def _study_rows(tmp_path, argv):
    """Run a study command; its CSV rows, with every cell read as a float."""
    out = tmp_path / "study.csv"
    assert cli_main([*argv, "-o", str(out)]) == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    return [SimpleNamespace(**{k: float(v) for k, v in row.items()}) for row in csv.DictReader(lines)]


def test_imbalance_dataset_sizes():
    data, labels = imbalance_dataset(nucleus_total=500, seed=0)
    assert data.n == 1100 + 500
    assert labels.cluster_sizes()[0] == 500
    assert labels.k == 12


def test_imbalance_dataset_nested_growth():
    small, _ = imbalance_dataset(nucleus_total=300, seed=0)
    large, _ = imbalance_dataset(nucleus_total=600, seed=0)
    # same seed: the smaller dataset is a prefix of the larger one
    assert np.array_equal(large.points[: small.n], small.points)


def test_nucleus_study_small_sizes(tmp_path):
    rows = _study_rows(tmp_path, ["nucleus-study", "--sizes", "100,300", "--seed", "0", "--threads", "2"])
    assert [r.nucleus_size for r in rows] == [100, 300]
    assert rows[1].micro_randomized > rows[0].micro_randomized
    assert rows[1].macro_randomized == pytest.approx(rows[0].macro_randomized, abs=0.01)
    for r in rows:
        assert -1.0 <= r.micro_randomized <= 1.0
        assert r.micro_truth > 0.5


def test_nucleus_study_thread_invariance(tmp_path):
    a, b = (
        _study_rows(tmp_path, ["nucleus-study", "--sizes", "100,200", "--seed", "1", "--threads", threads])
        for threads in ("1", "3")
    )
    assert a == b


def test_noise_study_zero_level_only(tmp_path):
    rows = _study_rows(
        tmp_path, ["noise-study", "--levels", "0", "--k-min", "2", "--k-max", "6", "--seed", "0", "--threads", "1"]
    )
    assert rows[0].n_noise == 0
    assert rows[0].estimate_micro == 4
    assert rows[0].estimate_macro == 4


def test_noise_study_counts(tmp_path):
    rows = _study_rows(
        tmp_path, ["noise-study", "--levels", "0,25", "--k-min", "2", "--k-max", "5", "--seed", "0", "--threads", "2"]
    )
    assert rows[1].n_noise == 267  # 0.25 * 800 / 0.75, rounded half-up


def test_sample_study_shapes():
    res = monte_carlo_study(*imbalance_dataset(400, seed=0), (60, 120), 4, seed_base=10, threads=2)
    assert len(res.cells) == 4  # 2 sizes x 2 strategies
    for cell in res.cells:
        assert len(cell.scores) == 4
    assert -1.0 <= res.full_score <= 1.0


def test_sample_study_thread_invariance():
    data, labels = imbalance_dataset(300, seed=2)
    a = monte_carlo_study(data, labels, (60,), 3, seed_base=10, threads=1)
    b = monte_carlo_study(data, labels, (60,), 3, seed_base=10, threads=4)
    assert a.full_score == b.full_score
    for ca, cb in zip(a.cells, b.cells):
        assert np.array_equal(ca.scores, cb.scores, equal_nan=True)
