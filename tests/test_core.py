import numpy as np
import pytest

from silkit.core import (
    Dataset,
    Labeling,
    _sq_distances,
    _unbuffered,
    canonicalize_labels,
    pairwise_distances,
)


def test_two_point_1d_distance():
    d = Dataset([[0.0], [3.0]])
    m = pairwise_distances(d)
    assert isinstance(m, np.ndarray)
    assert np.array_equal(m, [[0.0, 3.0], [3.0, 0.0]])


def test_diagonal_all_zeros():
    rng = np.random.default_rng(0)
    d = Dataset(rng.normal(size=(17, 3)))
    m = pairwise_distances(d)
    assert np.array_equal(np.diagonal(m), np.zeros(17))


def test_345_triangle():
    d = Dataset([[0.0, 0.0], [3.0, 4.0]])
    m = pairwise_distances(d)
    assert m[0, 1] == 5.0


def test_matrix_properties_random():
    rng = np.random.default_rng(1)
    d = Dataset(rng.normal(size=(40, 4)))
    m = pairwise_distances(d)
    assert np.array_equal(m, m.T)
    assert (m >= 0).all()
    # triangle inequality on sampled triples (allow fp slack)
    idx = rng.integers(0, 40, size=(200, 3))
    for i, j, k in idx:
        assert m[i, k] <= m[i, j] + m[j, k] + 1e-12


def test_row_equals_matrix_row_bitwise():
    rng = np.random.default_rng(2)
    d = Dataset(rng.normal(size=(20, 5)))
    m = pairwise_distances(d)
    cols_t = np.ascontiguousarray(d.points.T)
    for i in range(20):
        assert np.array_equal(np.sqrt(_sq_distances(cols_t, d.points[i : i + 1]))[:, 0], m[i])


def test_row_self_distance_zero():
    rng = np.random.default_rng(3)
    d = Dataset(rng.normal(size=(9, 2)))
    cols_t = np.ascontiguousarray(d.points.T)
    for i in range(9):
        assert _sq_distances(cols_t, d.points[i : i + 1])[i, 0] == 0.0


def test_kernel_run_axis_is_each_run_alone():
    # d x m x g columns against g x r x d rows: run j's columns against run
    # j's rows, with the bits of the one-run call
    rng = np.random.default_rng(4)
    cols, rows = rng.normal(size=(3, 7, 2)), rng.normal(size=(3, 5, 2))
    batched = _sq_distances(np.ascontiguousarray(cols.transpose(2, 1, 0)), rows)
    assert batched.shape == (7, 3, 5)
    for j in range(3):
        alone = _sq_distances(np.ascontiguousarray(cols[j].T), rows[j])
        assert batched[:, j].tobytes() == alone.tobytes()


def test_unbuffered_restores_buffer_size():
    default = np.getbufsize()
    np.setbufsize(16384)
    try:
        with _unbuffered():
            assert np.getbufsize() == 256
        assert np.getbufsize() == 16384
        with pytest.raises(ZeroDivisionError), _unbuffered():
            1 / 0
        assert np.getbufsize() == 16384
    finally:
        np.setbufsize(default)


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        Dataset([[np.nan], [1.0]])
    with pytest.raises(ValueError):
        Dataset([[np.inf], [1.0]])


def test_canonicalize_remaps_by_first_occurrence():
    lab = canonicalize_labels([5, 5, 2, 9])
    assert lab.assignments.tolist() == [0, 0, 1, 2]
    assert lab.k == 3


def test_canonicalize_already_canonical():
    lab = canonicalize_labels([0, 1, 0])
    assert lab.assignments.tolist() == [0, 1, 0]
    assert lab.k == 2


def test_canonicalize_single_point():
    lab = canonicalize_labels([7])
    assert lab.assignments.tolist() == [0]
    assert lab.k == 1


def test_canonicalize_idempotent():
    rng = np.random.default_rng(4)
    for _ in range(20):
        raw = rng.integers(-5, 10, size=rng.integers(1, 30))
        once = canonicalize_labels(raw)
        twice = canonicalize_labels(once.assignments)
        assert np.array_equal(once.assignments, twice.assignments)
        assert once.k == twice.k


def test_labeling_rejects_gaps():
    with pytest.raises(ValueError, match=r"exactly the ids 0..2; found \[0 2\]$"):
        Labeling(np.array([0, 2]), k=3)
    with pytest.raises(ValueError, match=r"found \[0 1\]$"):
        Labeling(np.array([0, 1]), k=1)
    with pytest.raises(ValueError, match=r"found \[-1  0  1\]$"):
        Labeling(np.array([1, -1, 0]), k=2)


def test_dataset_immutable():
    d = Dataset([[0.0], [1.0]])
    with pytest.raises(ValueError):
        d.points[0, 0] = 5.0
    assert d.points.flags.writeable is False
