import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from silkit.clustering import (
    KMeansConfig,
    _assign,
    _min_sq_dist,
    _next_center_index,
    global_kmeanspp,
    kmeanspp_seed,
    lloyd,
)
from silkit.core import Dataset
from silkit.synth import generate_blobs, separated_blobs_spec

from naive import broadcast_sq_distances


def test_lloyd_k1_is_mean_one_iteration():
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(30, 3)))
    result = lloyd(data, data.points[:1], KMeansConfig(k=1))
    assert np.allclose(result.centers[0], data.points.mean(axis=0))
    assert result.iterations == 1


def test_lloyd_two_pairs_hand_value():
    data = Dataset([[0.0], [1.0], [10.0], [11.0]])
    result = lloyd(data, np.array([[0.0], [10.0]]), KMeansConfig(k=2))
    assert sorted(result.centers[:, 0].tolist()) == [0.5, 10.5]
    assert result.sse == pytest.approx(1.0, abs=1e-12)
    assert result.labeling.assignments.tolist() == [0, 0, 1, 1]


def test_lloyd_sse_monotone_in_iterations():
    rng = np.random.default_rng(1)
    data = Dataset(rng.normal(size=(120, 2)) * 3)
    init = data.points[:5]
    sses = [
        lloyd(data, init, KMeansConfig(k=5, max_iters=m, tol=0.0)).sse
        for m in range(1, 12)
    ]
    assert all(b <= a + 1e-9 for a, b in zip(sses, sses[1:]))


def test_lloyd_rejects_k_above_n():
    data = Dataset([[0.0], [1.0]])
    with pytest.raises(ValueError):
        lloyd(data, np.zeros((3, 1)), KMeansConfig(k=3))


def test_lloyd_assigns_nearest_center():
    rng = np.random.default_rng(2)
    data = Dataset(rng.normal(size=(60, 2)))
    result = lloyd(data, data.points[:4], KMeansConfig(k=4))
    d2 = ((data.points[:, None, :] - result.centers[None]) ** 2).sum(-1)
    assert np.array_equal(result.labeling.assignments, d2.argmin(axis=1))


def test_lloyd_repairs_empty_clusters():
    # both centers start on top of one point; the far point must be seized
    data = Dataset([[0.0], [0.1], [50.0]])
    result = lloyd(data, np.array([[0.0], [0.0]]), KMeansConfig(k=2))
    assert result.labeling.k == 2
    assert len(np.unique(result.labeling.assignments)) == 2


@pytest.mark.parametrize(
    "points, init, expected",
    [
        # two clusters empty at once: they seize different points
        ([0.0, 0.1, 50.0, 60.0], [0.0, 1000.0, 2000.0], [0, 0, 2, 1]),
        # the second empty cluster skips the copy of the point the first took
        ([0.0, 0.1, 50.0, 50.0], [0.0, 1000.0, 2000.0], [0, 2, 1, 1]),
        # the farthest point is the last member of its cluster: not seized
        ([0.0, 1.0, 2.0, 100.0], [160.0, 1.0, 1000.0], [2, 1, 1, 0]),
    ],
)
def test_lloyd_repairs_empty_clusters_as_it_goes(points, init, expected):
    data = Dataset(np.array(points)[:, None])
    result = lloyd(data, np.array(init)[:, None], KMeansConfig(k=3))
    assert np.isfinite(result.centers).all()
    assert result.labeling.assignments.tolist() == expected


TWO_POINTS = Dataset([[0.0, 0.0]] * 4 + [[1.0, 1.0]] * 4)


def test_global_two_distinct_points_k2():
    result = global_kmeanspp(TWO_POINTS, 2, KMeansConfig())[2]
    assert np.isfinite(result.centers).all()
    assert sorted(result.centers.tolist()) == [[0.0, 0.0], [1.0, 1.0]]
    assert result.sse == 0.0


@pytest.mark.parametrize("k_max", [3, 4, 8])
def test_global_fewer_distinct_points_than_k_raises(k_max):
    with pytest.raises(ValueError, match="fewer than k=3 distinct points"):
        global_kmeanspp(TWO_POINTS, k_max, KMeansConfig())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 30),
    values=st.integers(1, 6),
    k=st.integers(1, 8),
)
def test_lloyd_valid_or_one_error_on_duplicates(seed, n, values, k):
    # points on a coarse grid collide often; initial centers may repeat
    assume(k <= n)
    rng = np.random.default_rng(seed)
    data = Dataset(rng.integers(0, values, size=(n, 2)).astype(float))
    init = data.points[rng.integers(0, n, size=k)]
    distinct = len(np.unique(data.points, axis=0))
    if distinct < k:
        with pytest.raises(ValueError, match="distinct points"):
            lloyd(data, init, KMeansConfig(k=k))
        return
    result = lloyd(data, init, KMeansConfig(k=k))
    assert np.isfinite(result.centers).all()
    assert (result.labeling.cluster_sizes() > 0).all()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), d=st.integers(1, 7), k=st.integers(1, 12))
def test_assign_bit_identical_to_broadcast_formula(seed, d, k):
    rng = np.random.default_rng(seed)
    points = rng.normal(scale=rng.uniform(0.1, 10.0), size=(int(rng.integers(1, 80)), d))
    centers = rng.normal(size=(k, d))
    centers[0] = points[0]
    expected = broadcast_sq_distances(points, centers)
    labels, d2 = _assign(np.ascontiguousarray(points.T), centers)
    assert np.array_equal(d2, expected)
    assert np.array_equal(labels, expected.argmin(axis=1))
    assert np.array_equal(_min_sq_dist(points, centers), expected.min(axis=1))


def test_kmeanspp_k1_uniform():
    rng = np.random.default_rng(3)
    data = Dataset(np.arange(10, dtype=float)[:, None])
    centers = kmeanspp_seed(data, 1, rng)
    assert centers.shape == (1, 1)
    assert centers[0, 0] in data.points[:, 0]


def test_kmeanspp_duplicate_never_reselected():
    # both rows identical: after the first pick, the duplicate has zero mass
    data = Dataset([[5.0, 5.0], [5.0, 5.0], [9.0, 9.0]])
    rng = np.random.default_rng(4)
    for _ in range(50):
        centers = kmeanspp_seed(data, 2, rng)
        assert not np.array_equal(centers[0], centers[1])


def test_next_center_probability_proportional_to_d2():
    # line {0, 1, 10} with the first center at 0: squared distances 1 and 100
    data = Dataset([[0.0], [1.0], [10.0]])
    centers = np.array([[0.0]])
    rng = np.random.default_rng(5)
    picks = np.array([_next_center_index(data.points, centers, rng) for _ in range(10_000)])
    freq_10 = (picks == 2).mean()
    assert freq_10 == pytest.approx(100 / 101, abs=0.01)
    assert (picks == 0).sum() == 0  # zero-distance point is never drawn


def test_kmeanspp_k_above_n_rejected():
    data = Dataset([[0.0], [1.0]])
    with pytest.raises(ValueError):
        kmeanspp_seed(data, 3, np.random.default_rng(0))


def test_global_k1_mean():
    rng = np.random.default_rng(6)
    data = Dataset(rng.normal(size=(50, 2)))
    results = global_kmeanspp(data, 1, KMeansConfig(k=1, rng_seed=0))
    assert np.allclose(results[1].centers[0], data.points.mean(axis=0))
    expected_sse = ((data.points - data.points.mean(axis=0)) ** 2).sum()
    assert results[1].sse == pytest.approx(expected_sse, rel=1e-12)


def _ari(a, b):
    """Adjusted Rand index via the pair-counting formula."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = len(a)
    contingency = np.zeros((a.max() + 1, b.max() + 1), dtype=np.int64)
    for x, y in zip(a, b):
        contingency[x, y] += 1

    def comb2(v):
        return v * (v - 1) // 2

    sum_ij = sum(comb2(v) for v in contingency.ravel())
    sum_a = sum(comb2(v) for v in contingency.sum(axis=1))
    sum_b = sum(comb2(v) for v in contingency.sum(axis=0))
    expected = sum_a * sum_b / comb2(n)
    maximum = (sum_a + sum_b) / 2
    return (sum_ij - expected) / (maximum - expected)


def test_global_recovers_separated_blobs():
    data, truth = generate_blobs(separated_blobs_spec(4, 50, rng_seed=7))
    results = global_kmeanspp(data, 4, KMeansConfig(k=4, rng_seed=1))
    assert _ari(results[4].labeling.assignments, truth.assignments) == pytest.approx(1.0)


def test_global_sse_non_increasing_in_k():
    rng = np.random.default_rng(8)
    data = Dataset(rng.normal(size=(90, 2)) * 4)
    results = global_kmeanspp(data, 10, KMeansConfig(k=10, rng_seed=2))
    sses = [results[k].sse for k in range(1, 11)]
    assert all(b <= a + 1e-9 for a, b in zip(sses, sses[1:]))


def test_global_deterministic():
    rng = np.random.default_rng(9)
    data = Dataset(rng.normal(size=(70, 3)))
    r1 = global_kmeanspp(data, 6, KMeansConfig(k=6, rng_seed=11))
    r2 = global_kmeanspp(data, 6, KMeansConfig(k=6, rng_seed=11))
    for k in range(1, 7):
        assert np.array_equal(r1[k].centers, r2[k].centers)
        assert np.array_equal(r1[k].labeling.assignments, r2[k].labeling.assignments)
        assert r1[k].sse == r2[k].sse


def test_global_labelings_canonical_nonempty():
    rng = np.random.default_rng(10)
    data = Dataset(rng.normal(size=(40, 2)))
    results = global_kmeanspp(data, 8, KMeansConfig(k=8, rng_seed=3))
    for k, result in results.items():
        sizes = result.labeling.cluster_sizes()
        assert len(sizes) == k
        assert (sizes > 0).all()


def test_result_json_fields():
    import json

    data = Dataset([[0.0], [1.0], [10.0], [11.0]])
    result = lloyd(data, np.array([[0.0], [10.0]]), KMeansConfig(k=2))
    payload = json.loads(result.to_json())
    assert set(payload) == {"k", "sse", "iterations", "centers", "labels"}
    assert payload["k"] == 2


def test_config_validation():
    with pytest.raises(ValueError):
        KMeansConfig(k=0)
    with pytest.raises(ValueError):
        KMeansConfig(max_iters=0)
    with pytest.raises(ValueError):
        KMeansConfig(tol=-1.0)
    with pytest.raises(ValueError):
        KMeansConfig(n_candidates=0)
