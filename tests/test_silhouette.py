import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from silkit import silhouette
from silkit.core import Dataset, Labeling, _workers, canonicalize_labels
from silkit.silhouette import SilhouetteUndefinedError, full_report
from silkit.synth import imbalance_dataset

from naive import gathered_cluster_sums, naive_silhouette

# two tight pairs far apart: points 0,1 in one cluster, 10,11 in the other
PAIRS = Dataset([[0.0], [1.0], [10.0], [11.0]])
PAIRS_LABELS = Labeling(np.array([0, 0, 1, 1]), k=2)


def scores(points, assignments) -> np.ndarray:
    labels = Labeling(np.array(assignments), k=max(assignments) + 1)
    return full_report(Dataset(points), labels).per_point


def test_inner_distance_hand_value():
    # every point has a = 1 (its partner); b is 10.5 at the ends, 9.5 inside
    expected = [(10.5 - 1.0) / 10.5, (9.5 - 1.0) / 9.5, (9.5 - 1.0) / 9.5, (10.5 - 1.0) / 10.5]
    assert full_report(PAIRS, PAIRS_LABELS).per_point.tolist() == expected


def test_inner_distance_duplicates_zero():
    # a = 0 against a positive b scores exactly 1
    assert scores([[2.0, 2.0], [2.0, 2.0], [9.0, 9.0]], [0, 0, 1])[0] == 1.0


def test_inner_distance_mean_of_two():
    # cluster of 3 with distances 2 and 4 from point 0: a = 3, b = 50
    assert scores([[0.0], [2.0], [4.0], [50.0]], [0, 0, 0, 1])[0] == (50 - 3) / 50


def test_outer_distance_hand_value():
    # foreign cluster means 10.5 and 20.5 from point 0: b is the nearer one
    s = scores([[0.0], [1.0], [10.0], [11.0], [-20.0], [-21.0]], [0, 0, 1, 1, 2, 2])
    assert s[0] == (10.5 - 1.0) / 10.5


def test_outer_distance_coincident_foreign_singleton():
    # a = 1, b = 0 (a foreign singleton on top of point 0)
    assert scores([[3.0], [3.0], [4.0]], [0, 1, 0])[0] == -1.0


def test_outer_distance_requires_two_clusters():
    d = Dataset([[2.0], [2.0], [2.0]])
    with pytest.raises(SilhouetteUndefinedError):
        full_report(d, canonicalize_labels([4, 4, 4]))


def test_point_score_hand_value():
    s = full_report(PAIRS, PAIRS_LABELS).per_point
    assert s[0] == pytest.approx(9.5 / 10.5, abs=1e-12)


def test_point_score_singleton_is_zero():
    assert scores([[0.0], [5.0], [6.0]], [0, 1, 1])[0] == 0.0


def test_point_score_misassignment_negative():
    # {0 | 1, 10}: the point at 1 sits right next to the other cluster
    s = scores([[0.0], [1.0], [10.0]], [0, 1, 1])
    assert s[1] == pytest.approx(-8.0 / 9.0, abs=1e-12)


def test_point_score_all_coincident_zero():
    assert (scores([[1.0], [1.0], [1.0], [1.0]], [0, 0, 1, 1]) == 0.0).all()


def test_micro_average_hand_value():
    micro = full_report(PAIRS, PAIRS_LABELS).micro
    expected = (9.5 / 10.5 + 8.5 / 9.5 + 8.5 / 9.5 + 9.5 / 10.5) / 4
    assert micro == pytest.approx(expected, abs=1e-12)
    assert micro == pytest.approx(0.899749, abs=1e-6)


def test_micro_average_all_singletons_zero():
    d = Dataset([[0.0], [4.0], [9.0]])
    lab = Labeling(np.array([0, 1, 2]), k=3)
    assert full_report(d, lab).micro == 0.0


def test_cluster_mean_hand_value():
    s0 = full_report(PAIRS, PAIRS_LABELS).per_cluster[0]
    assert s0 == pytest.approx((9.5 / 10.5 + 8.5 / 9.5) / 2, abs=1e-12)


def test_cluster_mean_vs_singleton():
    # {0} | {5, 6}: pair scores 0.8 and 5/6
    d = Dataset([[0.0], [5.0], [6.0]])
    lab = Labeling(np.array([0, 1, 1]), k=2)
    per_cluster = full_report(d, lab).per_cluster
    assert per_cluster[1] == pytest.approx((0.8 + 5.0 / 6.0) / 2, abs=1e-12)
    assert per_cluster[1] == pytest.approx(0.81667, abs=1e-5)
    assert per_cluster[0] == 0.0


def test_macro_average_balanced_equals_micro():
    report = full_report(PAIRS, PAIRS_LABELS)
    assert report.macro == pytest.approx(report.micro, abs=1e-12)


def test_macro_micro_diverge_under_imbalance():
    d = Dataset([[0.0], [5.0], [6.0]])
    lab = Labeling(np.array([0, 1, 1]), k=2)
    report = full_report(d, lab)
    assert report.micro == pytest.approx(0.54444, abs=1e-5)
    assert report.macro == pytest.approx(0.40833, abs=1e-5)


def test_full_report_matches_pointwise_ops():
    report = full_report(PAIRS, PAIRS_LABELS)
    assert report.micro == pytest.approx(0.899749373, abs=1e-9)
    assert report.macro == pytest.approx(report.micro, abs=1e-12)
    assert np.allclose(report.per_cluster, report.micro, atol=1e-12)
    assert report.singleton_count == 0


def test_full_report_singleton_count():
    d = Dataset([[0.0], [5.0], [6.0]])
    lab = Labeling(np.array([0, 1, 1]), k=2)
    assert full_report(d, lab).singleton_count == 1


def test_full_report_requires_two_clusters():
    d = Dataset([[0.0], [1.0]])
    with pytest.raises(SilhouetteUndefinedError):
        full_report(d, Labeling(np.array([0, 0]), k=1))


def _random_instance(rng, n_max=200, d_max=10, k_max=8):
    n = int(rng.integers(10, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    k = int(rng.integers(2, min(k_max, n - 1) + 1))
    pts = rng.normal(scale=rng.uniform(0.5, 5.0), size=(n, d))
    raw = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(raw)
    return Dataset(pts), canonicalize_labels(raw)


def test_full_report_matches_oracle_small():
    rng = np.random.default_rng(5)
    data, labels = _random_instance(rng, n_max=50, k_max=3)
    report = full_report(data, labels)
    s, pc, micro, macro = naive_silhouette(data.points, labels.assignments)
    assert np.allclose(report.per_point, s, atol=1e-12)
    assert report.micro == pytest.approx(micro, abs=1e-12)
    assert report.macro == pytest.approx(macro, abs=1e-12)


def test_full_report_block_heights_bit_identical(monkeypatch):
    rng = np.random.default_rng(6)
    for _ in range(3):
        data, labels = _random_instance(rng, n_max=120)
        # one row per block, ragged blocks of 7, a lone last row, one block
        runs = []
        for height in (1, 7, data.n - 1, data.n):
            monkeypatch.setattr(silhouette, "BLOCK_ROWS", height)
            runs.append(full_report(data, labels))
        for report in runs[1:]:
            assert np.array_equal(report.per_point, runs[0].per_point)
            assert report.micro == runs[0].micro and report.macro == runs[0].macro
        s, _, micro, macro = naive_silhouette(data.points, labels.assignments)
        assert np.allclose(runs[0].per_point, s, rtol=0, atol=1e-12)
        assert runs[0].micro == pytest.approx(micro, abs=1e-12)
        assert runs[0].macro == pytest.approx(macro, abs=1e-12)


def test_full_report_threads_bit_identical(monkeypatch):
    # each block writes only its own rows, so the thread count (and the block
    # height it implies) cannot change a bit of any output
    rng = np.random.default_rng(9)
    for _ in range(3):
        data, labels = _random_instance(rng, n_max=120)
        for height in (2, 7, data.n - 1):
            monkeypatch.setattr(silhouette, "BLOCK_ROWS", height)
            runs = [full_report(data, labels, threads) for threads in (1, 2, 3)]
            for report in runs[1:]:
                assert report.per_point.tobytes() == runs[0].per_point.tobytes()
                assert report.per_cluster.tobytes() == runs[0].per_cluster.tobytes()
                assert report.micro == runs[0].micro and report.macro == runs[0].macro
    # stress: blocks big enough for numpy to drop the interpreter lock, more
    # threads than cores, and frequent thread switches
    data, labels = _random_instance(rng, n_max=120)
    data = Dataset(np.tile(data.points, (20, 1)) + rng.normal(scale=1e-3, size=(20 * data.n, data.dim)))
    labels = canonicalize_labels(np.tile(labels.assignments, 20))
    monkeypatch.setattr(silhouette, "BLOCK_ROWS", 64)
    serial = full_report(data, labels).per_point
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert full_report(data, labels, 8).per_point.tobytes() == serial.tobytes()
    finally:
        sys.setswitchinterval(interval)


def _kernel_instance(seed, d, height_frac, n=None):
    """Random instance (duplicates and singleton clusters included), of n
    rows or a drawn 3..59, and a block height between 2 and n."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 60)) if n is None else n
    k = int(rng.integers(2, min(6, n) + 1))
    pts = rng.normal(scale=rng.uniform(0.1, 10.0), size=(n, d))
    if seed % 3 == 0:
        pts[: n // 3] = pts[-1]
    raw = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    if seed % 4 == 0:
        raw[raw == k - 1] = 0
        raw[-1] = k - 1
    rng.shuffle(raw)
    height = 2 + int(height_frac * (n - 2))
    return Dataset(pts), canonicalize_labels(raw), height


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), d=st.integers(1, 7), height_frac=st.floats(0.0, 1.0))
def test_full_report_bit_identical_to_broadcast_formula(seed, d, height_frac):
    # below 8 coordinates the kernel adds them in numpy's own order, and a
    # slab sum runs in member order like a gathered one
    data, labels, height = _kernel_instance(seed, d, height_frac)
    with mock.patch.object(silhouette, "BLOCK_ROWS", height):
        report = full_report(data, labels)
    own, counts = labels.assignments, labels.cluster_sizes()
    sums = gathered_cluster_sums(data.points, own, labels.k)
    assert np.array_equal(report.per_point, silhouette._scores_from_sums(sums, own, counts))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 150),
    d=st.integers(1, 7),
    height=st.floats(0.0, 1.0),
    width=st.floats(0.0, 1.0),
    threads=st.integers(1, 3),
)
def test_full_report_tiles_bit_identical(seed, n, d, height, width, threads):
    # a slab cut by tile edges is folded into one member-order chain, so any
    # block height, tile width and thread count gives the gathered sums' bits
    data, labels, _ = _kernel_instance(seed, d, 0.0, n)
    rows = 1 + int(height * (n - 1))
    # one thread scores max(2, rows)-row blocks, so the tile is 1..n columns
    tile_elems = (1 + int(width * (n - 1))) * max(2, rows)
    with (
        mock.patch.object(silhouette, "BLOCK_ROWS", rows),
        mock.patch.object(silhouette, "TILE_ELEMS", tile_elems),
    ):
        report = full_report(data, labels, threads)
    own, counts = labels.assignments, labels.cluster_sizes()
    sums = gathered_cluster_sums(data.points, own, labels.k)
    assert report.per_point.tobytes() == silhouette._scores_from_sums(sums, own, counts).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    g=st.integers(1, 4),
    n=st.integers(2, 40),
    d=st.integers(1, 3),
    k=st.integers(2, 5),
    height=st.integers(1, 40),
    width=st.floats(0.0, 1.0),
    threads=st.integers(1, 3),
)
def test_score_runs_bit_identical_to_each_run_alone(seed, g, n, d, k, height, width, threads):
    # g runs of row indices into one point matrix, each a shuffle of one
    # label multiset (the kernel scores only runs that share their cluster
    # counts), scored at once, with rows shared between runs and clusters
    # absent from every run, give every run the bits of its own full_report
    # at any block height, tile width and thread count
    rng = np.random.default_rng(seed)
    points = rng.integers(-3, 4, size=(n + 5, d)).astype(np.float64)
    rows = np.stack([rng.choice(len(points), size=n, replace=False) for _ in range(g)])
    ids = np.delete(np.arange(k + 1), rng.integers(k + 1))  # one of k + 1 clusters absent, maybe more
    labels = rng.choice(ids, size=n)
    labels[:2] = rng.permutation(ids)[:2]  # two clusters in every run
    own = np.stack([rng.permutation(labels) for _ in range(g)])
    tile_elems = (1 + int(width * (n - 1))) * g * max(2, height)
    with (
        mock.patch.object(silhouette, "BLOCK_ROWS", g * height),
        mock.patch.object(silhouette, "TILE_ELEMS", tile_elems),
    ):
        per_point = silhouette._score_runs(points, rows, own, np.bincount(labels, minlength=k + 1), threads)
    for j in range(g):
        alone = full_report(Dataset(points[rows[j]]), canonicalize_labels(own[j]))
        assert per_point[j].tobytes() == alone.per_point.tobytes()


@pytest.mark.parametrize("threads", [None, 3])
def test_full_report_restores_ufunc_buffer_size(threads):
    # each block shrinks numpy's ufunc buffer and restores it when done
    default = np.getbufsize()
    full_report(PAIRS, PAIRS_LABELS, threads)
    assert np.getbufsize() == default
    np.setbufsize(16384)
    try:
        full_report(PAIRS, PAIRS_LABELS, threads)
        assert np.getbufsize() == 16384
        with pytest.raises(SilhouetteUndefinedError):
            full_report(PAIRS, Labeling(np.zeros(4, dtype=np.int64), k=1), threads)
        assert np.getbufsize() == 16384
    finally:
        np.setbufsize(default)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), d=st.integers(8, 30), height_frac=st.floats(0.0, 1.0))
def test_full_report_matches_oracle_high_dim(seed, d, height_frac):
    data, labels, height = _kernel_instance(seed, d, height_frac)
    with mock.patch.object(silhouette, "BLOCK_ROWS", height):
        report = full_report(data, labels)
    s, _, micro, macro = naive_silhouette(data.points, labels.assignments)
    assert np.allclose(report.per_point, s, rtol=0, atol=1e-12)
    assert report.micro == pytest.approx(micro, abs=1e-12)
    assert report.macro == pytest.approx(macro, abs=1e-12)


def test_scores_in_range_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        data, labels = _random_instance(rng, n_max=80)
        report = full_report(data, labels)
        assert (report.per_point >= -1.0).all()
        assert (report.per_point <= 1.0).all()


def test_balanced_clusters_micro_equals_macro():
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(2, 15))
        pts = rng.normal(size=(k * m, 3))
        labels = Labeling(np.repeat(np.arange(k), m), k=k)
        report = full_report(Dataset(pts), labels)
        assert report.micro == pytest.approx(report.macro, abs=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(9)
    data, labels = _random_instance(rng)
    report = full_report(data, labels)
    perm = rng.permutation(data.n)
    permuted = full_report(
        Dataset(data.points[perm]), Labeling(labels.assignments[perm], labels.k)
    )
    assert np.allclose(permuted.per_point, report.per_point[perm], atol=1e-12)
    assert permuted.micro == pytest.approx(report.micro, abs=1e-12)
    assert permuted.macro == pytest.approx(report.macro, abs=1e-12)
    assert np.allclose(permuted.per_cluster, report.per_cluster, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 2**16))
def test_scale_invariance(scale, seed):
    rng = np.random.default_rng(seed)
    data, labels = _random_instance(rng, n_max=40, d_max=4, k_max=4)
    base = full_report(data, labels)
    scaled = full_report(Dataset(data.points * scale), labels)
    assert np.allclose(scaled.per_point, base.per_point, atol=1e-9)


def test_pointwise_ops_agree_with_report():
    # the aggregates are plain means of the per-point scores
    rng = np.random.default_rng(10)
    data, labels = _random_instance(rng, n_max=60, k_max=4)
    report = full_report(data, labels)
    assert report.micro == pytest.approx(report.per_point.mean(), abs=1e-12)
    for c in range(labels.k):
        members = report.per_point[labels.assignments == c]
        assert report.per_cluster[c] == pytest.approx(members.mean(), abs=1e-12)
    assert report.macro == pytest.approx(report.per_cluster.mean(), abs=1e-12)


def test_report_json_roundtrip():
    import json

    report = full_report(PAIRS, PAIRS_LABELS)
    payload = json.loads(json.dumps(report.to_dict()))
    assert set(payload) == {"micro", "macro", "per_cluster", "per_point", "singleton_count"}
    assert payload["micro"] == report.micro
    assert len(payload["per_point"]) == 4


@pytest.mark.parametrize("threads", [1, 2])
def test_full_report_memory_is_two_mb_per_thread(threads):
    # each block allocates its two ~1 MB kernel buffers for itself, so the
    # peak is a small base plus ~2 MB per block in flight, one per thread
    data, labels = imbalance_dataset(10_000)
    tracemalloc.start()
    try:
        full_report(data, labels, threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 + 2.5 * _workers(threads)) * 2**20, peak
