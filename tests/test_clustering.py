import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from silkit import clustering, core
from silkit.clustering import (
    KMeansConfig,
    _assign,
    global_kmeanspp,
    lloyd,
)
from silkit.core import Dataset, _sq_distances
from silkit.synth import separated_blobs

from naive import broadcast_sq_distances, reference_global_kmeanspp, reference_lloyd


def test_lloyd_k1_is_mean_one_iteration():
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(30, 3)))
    result = lloyd(data, data.points[:1], KMeansConfig())
    assert np.allclose(result.centers[0], data.points.mean(axis=0))
    assert result.iterations == 1


def test_lloyd_two_pairs_hand_value():
    data = Dataset([[0.0], [1.0], [10.0], [11.0]])
    result = lloyd(data, np.array([[0.0], [10.0]]), KMeansConfig())
    assert sorted(result.centers[:, 0].tolist()) == [0.5, 10.5]
    assert result.sse == pytest.approx(1.0, abs=1e-12)
    assert result.labeling.assignments.tolist() == [0, 0, 1, 1]


def test_lloyd_sse_monotone_in_iterations():
    rng = np.random.default_rng(1)
    data = Dataset(rng.normal(size=(120, 2)) * 3)
    init = data.points[:5]
    sses = []
    for m in range(1, 12):
        with mock.patch.multiple(KMeansConfig, max_iters=m, tol=0.0):
            sses.append(lloyd(data, init, KMeansConfig()).sse)
    assert all(b <= a + 1e-9 for a, b in zip(sses, sses[1:]))


def test_lloyd_rejects_k_above_n():
    data = Dataset([[0.0], [1.0]])
    with pytest.raises(ValueError):
        lloyd(data, np.zeros((3, 1)), KMeansConfig())


def test_lloyd_assigns_nearest_center():
    rng = np.random.default_rng(2)
    data = Dataset(rng.normal(size=(60, 2)))
    result = lloyd(data, data.points[:4], KMeansConfig())
    d2 = ((data.points[:, None, :] - result.centers[None]) ** 2).sum(-1)
    assert np.array_equal(result.labeling.assignments, d2.argmin(axis=1))


def test_lloyd_repairs_empty_clusters():
    # both centers start on top of one point; the far point must be seized
    data = Dataset([[0.0], [0.1], [50.0]])
    result = lloyd(data, np.array([[0.0], [0.0]]), KMeansConfig())
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
    result = lloyd(data, np.array(init)[:, None], KMeansConfig())
    assert np.isfinite(result.centers).all()
    assert result.labeling.assignments.tolist() == expected


def _lloyd_case(seed, d, kind):
    """Points and initial centers (some repeated or off the data) of one kind:
    continuous, few distinct points, an integer grid at a large offset,
    integer steps along a random line, where exact ties are common and the
    triangle inequality behind the bounds holds with equality, or clusters
    mirror-symmetric about lattice points, which are then their exact means,
    so a point is often exactly as far from a data point as from a center."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    if kind == "continuous":
        points = rng.normal(size=(n, d)) * 10 ** rng.uniform(-7, 6)
    elif kind == "duplicates":
        distinct = rng.normal(size=(int(rng.integers(1, 8)), d))
        points = distinct[rng.integers(0, len(distinct), size=n)]
    elif kind == "grid":
        points = rng.integers(0, 5, size=(n, d)) * 10.0 ** rng.integers(-3, 4) + rng.choice([0.0, 1e8, -3e5])
    elif kind == "line":
        points = rng.integers(-4, 5, size=(n, 1)) * rng.normal(size=d)
    else:
        centers = rng.integers(-3, 4, size=(int(rng.integers(1, 5)), d)) * 10.0
        half = rng.integers(-2, 3, size=(int(rng.integers(1, 6)), d))
        points = (centers[:, None] + np.vstack([half, -half])).reshape(-1, d)
        n = len(points)
    k = int(rng.integers(1, min(n, 12) + 1))
    init = points[rng.integers(0, n, size=k)]
    if rng.random() < 0.25:
        init = init + rng.normal(size=init.shape) * np.ptp(points, axis=0)
    return points, init


KINDS = st.sampled_from(["continuous", "duplicates", "grid", "line", "mirror"])


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 13),
    kind=KINDS,
    tol=st.sampled_from([0.0, 1e-6]),
    max_iters=st.sampled_from([1, 2, 5, 300]),
)
def test_lloyd_bit_identical_to_reference(seed, d, kind, tol, max_iters):
    points, init = _lloyd_case(seed, d, kind)
    data, config = Dataset(points), KMeansConfig()
    try:
        centers, labels, sse, iterations = reference_lloyd(points, init, max_iters, tol)
    except ValueError:
        with pytest.raises(ValueError, match="distinct points"):
            with mock.patch.multiple(KMeansConfig, max_iters=max_iters, tol=tol):
                lloyd(data, init, config)
        return
    with mock.patch.multiple(KMeansConfig, max_iters=max_iters, tol=tol):
        result = lloyd(data, init, config)
    assert np.array_equal(result.centers, centers)
    assert np.array_equal(result.labeling.assignments, labels)
    assert result.sse == sse
    assert result.iterations == iterations


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=KINDS,
    tol=st.sampled_from([0.0, 1e-6]),
    max_iters=st.sampled_from([1, 2, 5, 300]),
)
def test_lloyd_one_dim_matches_reference(seed, kind, tol, max_iters):
    # for d = 1 the masked mean sums pairwise and bincount in index order, so
    # centers move in the last ulp and can flip an exact tie; a zero second
    # column makes the reference sum in index order with the same distances
    points, init = _lloyd_case(seed, 1, kind)
    data, config = Dataset(points), KMeansConfig()
    padded = [np.hstack([a, np.zeros_like(a)]) for a in (points, init)]
    try:
        centers, labels, sse, iterations = reference_lloyd(*padded, max_iters, tol)
    except ValueError:
        with pytest.raises(ValueError, match="distinct points"):
            with mock.patch.multiple(KMeansConfig, max_iters=max_iters, tol=tol):
                lloyd(data, init, config)
        return
    with mock.patch.multiple(KMeansConfig, max_iters=max_iters, tol=tol):
        result = lloyd(data, init, config)
    assert np.array_equal(result.centers[:, 0], centers[:, 0])
    assert np.array_equal(result.labeling.assignments, labels)
    assert result.sse == pytest.approx(sse, rel=1e-12, abs=1e-300)
    assert result.iterations == iterations
    if kind == "continuous":
        centers, labels, sse, iterations = reference_lloyd(points, init, max_iters, tol)
        assert np.abs(result.centers - centers).max() <= 1e-12 * np.abs(points).max()
        assert np.array_equal(result.labeling.assignments, labels)
        assert result.iterations == iterations


def test_lloyd_tie_after_centers_move_goes_to_smaller_id():
    # on the line t * (1, 5) the centers start at t = -3 and 0 and reach
    # t = -1.5 and 1.5 in the second update: the points at t = 0, labelled 1
    # until then, are exactly as far from both and must go to 0. Their lower
    # bound to center 0, sqrt(234) - sqrt(26) - sqrt(6.5), rounds one ulp
    # above their distance sqrt(58.5) to center 1; only delta catches that
    t = np.array([-2.0, -1.0, 0.0, 0.0, 2.0, 4.0])
    data = Dataset(t[:, None] * np.array([1.0, 5.0]))
    result = lloyd(data, np.array([[-3.0, -15.0], [0.0, 0.0]]), KMeansConfig())
    assert result.labeling.assignments.tolist() == [0, 0, 0, 0, 1, 1]
    assert result.centers.tolist() == [[-0.75, -3.75], [3.0, 15.0]]


def test_lloyd_converged_flag():
    rng = np.random.default_rng(12)
    data = Dataset(rng.normal(size=(200, 2)))
    init = data.points[:6]
    assert lloyd(data, init, KMeansConfig()).converged
    with mock.patch.multiple(KMeansConfig, max_iters=1, tol=0.0):
        short = lloyd(data, init, KMeansConfig())
    assert short.iterations == 1
    assert not short.converged
    assert "converged" not in short.to_dict()
    results = global_kmeanspp(data, 3, KMeansConfig(rng_seed=0))
    assert all(result.converged for result in results.values())


def test_global_calls_lloyd_by_name_per_candidate(monkeypatch):
    # the benchmark times clustering.lloyd by wrapping this module attribute
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return lloyd(*args, **kwargs)

    monkeypatch.setattr(clustering, "lloyd", counting)
    rng = np.random.default_rng(13)
    data = Dataset(rng.normal(size=(60, 2)))
    global_kmeanspp(data, 6, KMeansConfig(n_candidates=4, rng_seed=0))
    assert len(calls) == 4 * (6 - 1)


class _BufferSizes:
    """numpy for the kernel's module, except that subtract records the
    ufunc buffer size it runs at (and raises when told to)."""

    def __init__(self):
        self.seen, self.fail = [], False

    def __getattr__(self, name):
        return getattr(np, name)

    def subtract(self, *args, **kwargs):
        self.seen.append(np.getbufsize())
        if self.fail:
            raise MemoryError
        return np.subtract(*args, **kwargs)


def test_global_kernel_calls_unbuffered_and_buffer_restored(monkeypatch):
    # every kernel call global k-means++ makes (the nearest-center and the
    # candidate distances of each k, and its Lloyd runs') runs with numpy's
    # ufunc buffer at 256 elements; the caller keeps its own size, also when
    # a call raises
    spy, calls = _BufferSizes(), []

    def recording(cols_t, rows_t, work=None):
        before, start = np.getbufsize(), len(spy.seen)
        try:
            return _sq_distances(cols_t, rows_t, work)
        finally:
            calls.append((rows_t.shape[-1], cols_t.shape[1], before, set(spy.seen[start:]), np.getbufsize()))

    monkeypatch.setattr(core, "np", spy)
    monkeypatch.setattr(clustering, "_sq_distances", recording)
    data = Dataset(np.random.default_rng(5).normal(size=(60, 2)))
    default = np.getbufsize()
    np.setbufsize(16384)
    try:
        global_kmeanspp(data, 5, KMeansConfig(n_candidates=3, rng_seed=0))
        assert np.getbufsize() == 16384
        assert calls and all(call[2:] == (16384, {256}, 16384) for call in calls)
        # the two N-long calls per k come in order among Lloyd's
        n_long = iter([(rows, cols) for rows, cols, *_ in calls if rows == 60])
        assert all(pair in n_long for k in range(2, 6) for pair in ((60, k - 1), (60, 3)))

        spy.fail = True
        with pytest.raises(MemoryError):
            global_kmeanspp(data, 3, KMeansConfig(rng_seed=0))
        assert np.getbufsize() == 16384 and spy.seen[-1] == 256
    finally:
        np.setbufsize(default)


def _assert_global_matches_cold_reference(data, k_max, config):
    try:
        expected = reference_global_kmeanspp(data, k_max, config)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            global_kmeanspp(data, k_max, config)
        return
    results = global_kmeanspp(data, k_max, config)
    assert sorted(results) == sorted(expected)
    for k, result in results.items():
        assert np.array_equal(result.centers, expected[k].centers)
        assert np.array_equal(result.labeling.assignments, expected[k].labeling.assignments)
        assert result.sse == expected[k].sse
        assert result.iterations == expected[k].iterations
        assert result.converged == expected[k].converged


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 13),
    kind=KINDS,
    n_candidates=st.integers(1, 10),
    tol=st.sampled_from([0.0, 1e-6]),
    max_iters=st.sampled_from([1, 2, 300]),
)
def test_global_bit_identical_to_cold_reference(seed, d, kind, n_candidates, tol, max_iters):
    # every candidate's warm first assignment must be the cold one's bits
    points, init = _lloyd_case(seed, d, kind)
    config = KMeansConfig(rng_seed=seed, n_candidates=n_candidates)
    with mock.patch.multiple(KMeansConfig, max_iters=max_iters, tol=tol):
        _assert_global_matches_cold_reference(Dataset(points), len(init), config)


@pytest.mark.parametrize("rng_seed", range(8))
def test_global_warm_start_tie_goes_to_base_center(rng_seed):
    # on the line t * (1, 2) + 1e8 the k=1 center is t = 4; the candidates at
    # t = 0 and 8 are drawn with probability 0.8, and then the point at t = 2
    # or 6 is exactly as far from that candidate as from the base center, so
    # it starts in cluster 0, and Lloyd takes one more iteration to move it
    t = np.array([0.0, 4.0, 8.0, 2.0, 6.0])
    data = Dataset(t[:, None] * np.array([1.0, 2.0]) + 1e8)
    _assert_global_matches_cold_reference(data, 3, KMeansConfig(rng_seed=rng_seed, n_candidates=1))


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


def test_global_raises_before_lloyd_when_every_point_is_a_center(monkeypatch):
    # at k=3 both distinct points are centers, so no candidate can start a
    # third cluster: global k-means++ raises without a Lloyd run of 3 centers
    started = []

    def recording(data, initial_centers, config, first=None):
        started.append(len(initial_centers))
        return lloyd(data, initial_centers, config, first)

    monkeypatch.setattr(clustering, "lloyd", recording)
    with pytest.raises(ValueError, match="^the data has fewer than k=3 distinct points$"):
        global_kmeanspp(TWO_POINTS, 4, KMeansConfig())
    assert started and 3 not in started


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
            lloyd(data, init, KMeansConfig())
        return
    result = lloyd(data, init, KMeansConfig())
    assert np.isfinite(result.centers).all()
    assert (result.labeling.cluster_sizes() > 0).all()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 30),
    d=st.integers(1, 3),
    values=st.integers(1, 6),
    k_max=st.integers(1, 8),
    candidates=st.integers(1, 4),
)
def test_global_valid_for_every_k_or_one_error(seed, n, d, values, k_max, candidates):
    # a coarse grid makes duplicates, and often fewer distinct points than k_max
    assume(k_max <= n)
    rng = np.random.default_rng(seed)
    data = Dataset(rng.integers(0, values, size=(n, d)).astype(float))
    config = KMeansConfig(rng_seed=seed, n_candidates=candidates)
    if len(np.unique(data.points, axis=0)) < k_max:
        with pytest.raises(ValueError, match="distinct points"):
            global_kmeanspp(data, k_max, config)
        return
    results = global_kmeanspp(data, k_max, config)
    assert sorted(results) == list(range(1, k_max + 1))
    for k, result in results.items():
        assert result.labeling.k == k and result.labeling.n == n
        assert (result.labeling.cluster_sizes() > 0).all()
        assert result.centers.shape == (k, d) and np.isfinite(result.centers).all()
        assert isinstance(result.converged, bool)
    sse = [results[k].sse for k in range(1, k_max + 1)]
    assert all(b <= a for a, b in zip(sse, sse[1:]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), d=st.integers(1, 7), k=st.integers(1, 12))
def test_assign_bit_identical_to_broadcast_formula(seed, d, k):
    rng = np.random.default_rng(seed)
    points = rng.normal(scale=rng.uniform(0.1, 10.0), size=(int(rng.integers(1, 80)), d))
    centers = rng.normal(size=(k, d))
    centers[0] = points[0]
    expected = broadcast_sq_distances(points, centers)
    labels, d2 = _assign(points, centers)
    assert np.array_equal(d2, expected)
    assert np.array_equal(labels, expected.argmin(axis=1))


def test_kmeanspp_k_above_n_rejected():
    data = Dataset([[0.0], [1.0]])
    with pytest.raises(ValueError, match="k_max=3 exceeds the number of points 2"):
        global_kmeanspp(data, 3, KMeansConfig())
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        global_kmeanspp(data, 0, KMeansConfig())


def test_next_center_probability_proportional_to_d2():
    # line {0, 1, 10}: the k=1 center is the mean 11/3, so point 10 holds
    # 40.1 of the 60.7 squared-distance mass. Lloyd keeps the drawn point's
    # cluster second: its center is 10 exactly when 10 was drawn. At k=3,
    # 10 is a center with zero mass and is never drawn, so the third center
    # is 0 or 1.
    data = Dataset([[0.0], [1.0], [10.0]])
    drew_10, third = [], set()
    for seed in range(2000):
        results = global_kmeanspp(data, 3, KMeansConfig(rng_seed=seed, n_candidates=1))
        drew_10.append(results[2].centers[1, 0] == 10.0)
        third.add(float(results[3].centers[2, 0]))
    d2 = (np.array([0.0, 1.0, 10.0]) - 11 / 3) ** 2
    assert np.mean(drew_10) == pytest.approx(d2[2] / d2.sum(), abs=0.04)
    assert third == {0.0, 1.0}


def test_global_k1_mean():
    rng = np.random.default_rng(6)
    data = Dataset(rng.normal(size=(50, 2)))
    results = global_kmeanspp(data, 1, KMeansConfig(rng_seed=0))
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
    data, truth = separated_blobs(4, 50, 7)
    results = global_kmeanspp(data, 4, KMeansConfig(rng_seed=1))
    assert _ari(results[4].labeling.assignments, truth.assignments) == pytest.approx(1.0)


def test_global_sse_non_increasing_in_k():
    rng = np.random.default_rng(8)
    data = Dataset(rng.normal(size=(90, 2)) * 4)
    results = global_kmeanspp(data, 10, KMeansConfig(rng_seed=2))
    sses = [results[k].sse for k in range(1, 11)]
    assert all(b <= a + 1e-9 for a, b in zip(sses, sses[1:]))


def test_global_deterministic():
    rng = np.random.default_rng(9)
    data = Dataset(rng.normal(size=(70, 3)))
    r1 = global_kmeanspp(data, 6, KMeansConfig(rng_seed=11))
    r2 = global_kmeanspp(data, 6, KMeansConfig(rng_seed=11))
    for k in range(1, 7):
        assert np.array_equal(r1[k].centers, r2[k].centers)
        assert np.array_equal(r1[k].labeling.assignments, r2[k].labeling.assignments)
        assert r1[k].sse == r2[k].sse


def test_global_labelings_canonical_nonempty():
    rng = np.random.default_rng(10)
    data = Dataset(rng.normal(size=(40, 2)))
    results = global_kmeanspp(data, 8, KMeansConfig(rng_seed=3))
    for k, result in results.items():
        sizes = result.labeling.cluster_sizes()
        assert len(sizes) == k
        assert (sizes > 0).all()


def test_result_json_fields():
    import json

    data = Dataset([[0.0], [1.0], [10.0], [11.0]])
    result = lloyd(data, np.array([[0.0], [10.0]]), KMeansConfig())
    payload = json.loads(json.dumps(result.to_dict()))
    assert set(payload) == {"k", "sse", "iterations", "centers", "labels"}
    assert payload["k"] == 2


def test_config_validation():
    with pytest.raises(ValueError):
        KMeansConfig(n_candidates=0)


def test_stopping_rule_is_constant():
    # no caller varies Lloyd's stopping rule, so it is not a setting
    assert [f.name for f in dataclasses.fields(KMeansConfig)] == ["rng_seed", "n_candidates"]
    assert KMeansConfig().max_iters == 300 and KMeansConfig().tol == 1e-6
    with pytest.raises(TypeError):
        KMeansConfig(max_iters=5)
