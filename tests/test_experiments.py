"""Fast, scaled-down checks of the study drivers. The full-size paper
reproductions live in test_acceptance.py."""

import numpy as np
import pytest

from silkit.experiments import noise_study, nucleus_study
from silkit.sampling import monte_carlo_study
from silkit.synth import imbalance_dataset


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


def test_nucleus_study_small_sizes():
    rows = nucleus_study(sizes=(100, 300), seed=0, threads=2)
    assert [r.nucleus_size for r in rows] == [100, 300]
    assert rows[1].micro_randomized > rows[0].micro_randomized
    assert rows[1].macro_randomized == pytest.approx(rows[0].macro_randomized, abs=0.01)
    for r in rows:
        assert -1.0 <= r.micro_randomized <= 1.0
        assert r.micro_truth > 0.5


def test_nucleus_study_thread_invariance():
    a = nucleus_study(sizes=(100, 200), seed=1, threads=1)
    b = nucleus_study(sizes=(100, 200), seed=1, threads=3)
    assert a == b


def test_noise_study_zero_level_only():
    rows = noise_study(levels_pct=(0,), k_min=2, k_max=6, seed=0, threads=1)
    assert rows[0].n_noise == 0
    assert rows[0].estimate_micro == 4
    assert rows[0].estimate_macro == 4


def test_noise_study_counts():
    rows = noise_study(levels_pct=(0, 25), k_min=2, k_max=5, seed=0, threads=2)
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
