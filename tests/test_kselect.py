from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest

from silkit import kselect
from silkit.clustering import KMeansConfig
from silkit.core import Dataset
from silkit.kselect import SweepResult, SweepRow, sweep
from silkit.synth import separated_blobs


def make_sweep(rows):
    return SweepResult(rows=tuple(SweepRow(*r) for r in rows))


def test_single_k_sweep():
    data, _ = separated_blobs(5, 20, 0)
    result = sweep(data, 5, 5, KMeansConfig(rng_seed=1))
    assert len(result.rows) == 1
    assert result.argmax_micro == 5
    assert result.argmax_macro == 5


def test_estimate_monotone_column_returns_kmax():
    rows = [(k, k * 0.1, k * 0.1, 10.0 - k) for k in range(2, 7)]
    assert make_sweep(rows).argmax_micro == 6
    assert make_sweep(rows).argmax_macro == 6


def test_estimate_tie_returns_smaller_k():
    rows = [(2, 0.5, 0.5, 5.0), (3, 0.7, 0.7, 4.0), (4, 0.7, 0.7, 3.0)]
    assert make_sweep(rows).argmax_micro == 3
    assert make_sweep(rows).argmax_macro == 3


def test_sweep_finds_true_k_on_blobs():
    data, _ = separated_blobs(4, 60, 2)
    result = sweep(data, 2, 8, KMeansConfig(rng_seed=3))
    assert result.argmax_micro == 4
    assert result.argmax_macro == 4


def test_sweep_balanced_blobs_micro_equals_macro_argmax():
    data, _ = separated_blobs(3, 50, 4)
    result = sweep(data, 2, 6, KMeansConfig(rng_seed=5))
    assert result.argmax_micro == result.argmax_macro == 3


def test_sweep_reproducible_bitwise():
    data, _ = separated_blobs(3, 40, 6)
    a = sweep(data, 2, 6, KMeansConfig(rng_seed=7))
    b = sweep(data, 2, 6, KMeansConfig(rng_seed=7))
    assert a.rows == b.rows


def test_sweep_sample_of_every_row_raises():
    data, _ = separated_blobs(3, 10, 1)
    for size in (data.n, data.n + 1):
        with pytest.raises(ValueError, match="below the dataset size 30"):
            sweep(data, 2, 3, KMeansConfig(rng_seed=0), sample_size=size)


@pytest.mark.parametrize("size", [0, 1, 30, 31])
def test_sweep_checks_sample_size_before_clustering(size):
    data, _ = separated_blobs(3, 10, 1)
    with mock.patch.object(kselect, "global_kmeanspp", side_effect=AssertionError("clustered")):
        with pytest.raises(ValueError, match=r"sample size must be in \[2, 29\], below the dataset size 30"):
            sweep(data, 2, 3, KMeansConfig(rng_seed=0), sample_size=size)


def test_sweep_sampled_scoring():
    data, _ = separated_blobs(4, 100, 8)
    full = sweep(data, 2, 6, KMeansConfig(rng_seed=9))
    sampled = sweep(data, 2, 6, KMeansConfig(rng_seed=9), sample_size=120)
    assert sampled.argmax_macro == full.argmax_macro == 4
    # sampled scores track the full ones
    for fr, sr in zip(full.rows, sampled.rows):
        assert sr.sse == fr.sse
        assert abs(sr.macro - fr.macro) < 0.1


def test_sweep_threads_bit_identical():
    data, _ = separated_blobs(4, 60, 2)
    config = KMeansConfig(rng_seed=3)
    serial = sweep(data, 2, 7, config)
    threaded = sweep(data, 2, 7, config, threads=2)
    bits = [np.array([astuple(r) for r in result.rows]).tobytes() for result in (serial, threaded)]
    assert bits[0] == bits[1]


def test_sweep_rejects_bad_range():
    data, _ = separated_blobs(3, 10, 10)
    config = KMeansConfig(rng_seed=0)
    with pytest.raises(ValueError):
        sweep(data, 1, 5, config)
    with pytest.raises(ValueError):
        sweep(data, 5, 4, config)
    with pytest.raises(ValueError):
        sweep(data, 2, data.n, config)


def test_estimate_inside_range():
    data, _ = separated_blobs(3, 30, 11)
    result = sweep(data, 2, 7, KMeansConfig(rng_seed=12))
    assert 2 <= result.argmax_micro <= 7
    assert 2 <= result.argmax_macro <= 7


def test_sse_column_non_increasing():
    data, _ = separated_blobs(4, 30, 13)
    result = sweep(data, 2, 8, KMeansConfig(rng_seed=14))
    sses = [r.sse for r in result.rows]
    assert all(b <= a + 1e-9 for a, b in zip(sses, sses[1:]))
