import numpy as np
import pytest

from silkit.core import Labeling
from silkit.synth import (
    NUCLEUS_CLUSTER,
    add_background_noise,
    generate_blobs,
    grow_nucleus,
    imbalance_dataset,
    noise_count,
    randomize_except,
    separated_blobs,
)


def test_four_by_200_counts():
    data, labels = separated_blobs(4, 200, 1)
    assert data.n == 800
    assert labels.k == 4
    assert labels.cluster_sizes().tolist() == [200] * 4


def test_twelve_by_100_counts():
    data, labels = imbalance_dataset(100, 100, 1)
    assert data.n == 1200
    assert labels.k == 12


def test_tiny_stddev_concentrates():
    data, _ = generate_blobs(centers=((3.0, 4.0),), stddevs=(1e-4,), counts=(500,), seed=2)
    deviations = np.sqrt(((data.points - [3.0, 4.0]) ** 2).sum(axis=1))
    assert deviations.max() < 6e-4


def test_generate_bit_reproducible():
    a, _ = imbalance_dataset(50, 50, 9)
    b, _ = imbalance_dataset(50, 50, 9)
    assert np.array_equal(a.points, b.points)


def test_grow_zero_is_identity():
    data, labels = separated_blobs(3, 10, 3)
    grown, glabels = grow_nucleus(data, labels, 0, 0, 0.05, np.random.default_rng(0))
    assert grown is data
    assert glabels is labels


def test_grow_to_ten_thousand():
    data, labels = imbalance_dataset(100, 100, 4)
    grown, glabels = grow_nucleus(
        data, labels, NUCLEUS_CLUSTER, 9900, 0.05, np.random.default_rng(1)
    )
    assert grown.n == 11_100
    assert glabels.cluster_sizes()[NUCLEUS_CLUSTER] == 10_000


def test_grow_preserves_existing_rows():
    data, labels = separated_blobs(3, 10, 5)
    grown, _ = grow_nucleus(data, labels, 1, 25, 0.05, np.random.default_rng(2))
    assert np.array_equal(grown.points[: data.n], data.points)


def test_grow_monotone_imbalance():
    data, labels = separated_blobs(3, 10, 6)
    ratios = []
    for added in (0, 10, 50, 200):
        grown, glabels = grow_nucleus(data, labels, 0, added, 0.05, np.random.default_rng(3))
        sizes = glabels.cluster_sizes()
        ratios.append(sizes.min() / sizes.max())
    assert all(b <= a for a, b in zip(ratios, ratios[1:]))


def test_grow_unknown_cluster():
    data, labels = separated_blobs(3, 10, 7)
    with pytest.raises(ValueError):
        grow_nucleus(data, labels, 5, 10, 0.05, np.random.default_rng(0))


def test_randomize_keeps_kept_cluster_together():
    labels = Labeling(np.repeat([0, 1, 2], 50), k=3)
    out = randomize_except(labels, 1, np.random.default_rng(4))
    kept = out.assignments[50:100]
    assert len(np.unique(kept)) == 1


def test_randomize_keep_only_cluster_identity():
    # with one label there is no other label to draw from
    labels = Labeling(np.zeros(20, dtype=np.int64), k=1)
    with pytest.raises(ValueError, match="k >= 2"):
        randomize_except(labels, 0, np.random.default_rng(5))


def test_randomize_exclude_kept_label():
    labels = Labeling(np.repeat([0, 1, 2, 3], 25), k=4)
    out = randomize_except(labels, 0, np.random.default_rng(6))
    # the kept cluster label maps to some canonical id; no outside point has it
    kept_id = out.assignments[0]
    assert (out.assignments[:25] == kept_id).all()
    assert (out.assignments[25:] != kept_id).all()


def test_noise_count_values():
    assert noise_count(800, 0.0) == 0
    assert noise_count(800, 0.25) == 267  # 266.67 rounds half-up
    assert noise_count(800, 0.50) == 800


def test_noise_zero_identity():
    data, labels = separated_blobs(4, 25, 8)
    noisy = add_background_noise(data, labels, 0.0, 1, 0.10)
    assert noisy.n == data.n
    assert not (noisy.truth_labels == -1).any()


def test_noise_marks_rows_and_labels():
    data, labels = separated_blobs(4, 50, 9)
    noisy = add_background_noise(data, labels, 0.25, 2, 0.10)
    n = noise_count(200, 0.25)
    assert noisy.n == 200 + n
    assert (noisy.truth_labels[-n:] == -1).all()
    assert not (noisy.truth_labels[:200] == -1).any()
    assert np.array_equal(noisy.points[:200], data.points)


def test_noise_fraction_close_to_level():
    data, labels = separated_blobs(4, 200, 10)
    for level in (0.1, 0.25, 0.4):
        noisy = add_background_noise(data, labels, level, 3, 0.10)
        total = noisy.n
        achieved = (noisy.truth_labels == -1).sum() / total
        assert abs(achieved - level) <= 1.0 / total


def test_noise_default_box_pads_bounding_box():
    data, labels = separated_blobs(2, 50, 12)
    noisy = add_background_noise(data, labels, 0.5, 5, 0.10)
    lo, hi = data.points.min(0), data.points.max(0)
    span = hi - lo
    pts = noisy.points[noisy.truth_labels == -1]
    assert (pts >= lo - 0.10 * span - 1e-9).all()
    assert (pts <= hi + 0.10 * span + 1e-9).all()


def test_noise_level_validation():
    data, labels = separated_blobs(2, 10, 1)
    for level in (1.0, -0.1):
        with pytest.raises(ValueError, match="noise level must be in"):
            add_background_noise(data, labels, level, 0, 0.10)


def test_blob_spec_validation():
    with pytest.raises(ValueError):
        generate_blobs(centers=((0.0,),), stddevs=(1.0, 2.0), counts=(5,))
    with pytest.raises(ValueError):
        generate_blobs(centers=((0.0,),), stddevs=(0.0,), counts=(5,))
    with pytest.raises(ValueError):
        generate_blobs(centers=((0.0,), (1.0, 2.0)), stddevs=(1.0, 1.0), counts=(5, 5))
