import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from silkit import sampling, silhouette
from silkit.core import Dataset, Labeling, canonicalize_labels
from silkit.sampling import (
    balanced_allocation,
    monte_carlo_study,
    sample_and_score,
    tukey_whiskers,
)
from silkit.silhouette import full_report
from silkit.synth import imbalance_dataset, separated_blobs


def blob_instance(k=4, n=40, seed=0):
    return separated_blobs(k, n, seed)


def test_uniform_full_size_equals_full_report():
    data, labels = blob_instance()
    result = sample_and_score(data, labels, "uniform", data.n, 1)
    full = full_report(data, labels)
    assert result.defined
    assert result.report.micro == full.micro
    assert result.report.macro == full.macro
    assert np.array_equal(result.indices, np.arange(data.n))


def test_uniform_deterministic():
    data, labels = blob_instance()
    a = sample_and_score(data, labels, "uniform", 20, 9)
    b = sample_and_score(data, labels, "uniform", 20, 9)
    assert np.array_equal(a.indices, b.indices)
    assert a.report.micro == b.report.micro


def test_uniform_can_go_undefined_on_imbalance():
    # one dominant cluster: small uniform samples often miss the minor one
    pts = np.concatenate([np.zeros(500), np.full(4, 100.0)])[:, None]
    data = Dataset(pts)
    labels = Labeling(np.repeat([0, 1], [500, 4]), k=2)
    undefined_seeds = [
        s
        for s in range(40)
        if not sample_and_score(data, labels, "uniform", 5, s).defined
    ]
    assert undefined_seeds, "expected at least one all-one-cluster sample"


def test_uniform_rejects_oversize():
    data, labels = blob_instance()
    with pytest.raises(ValueError):
        sample_and_score(data, labels, "uniform", data.n + 1, 0)


def test_balanced_exact_division():
    data, labels = blob_instance(k=4, n=40)
    result = sample_and_score(data, labels, "balanced", 40, 2)
    assert result.drawn_counts.tolist() == [10, 10, 10, 10]


def test_balanced_allocation_small_cluster_redistribution():
    # quota 10 each; the 5-point cluster caps and the leftovers go to the
    # clusters with the most unsampled points, ties to the smaller id
    alloc = balanced_allocation(np.array([5, 100, 100]), 30)
    assert alloc.tolist() == [5, 13, 12]


def test_balanced_allocation_exhausts_all_points():
    alloc = balanced_allocation(np.array([3, 4]), 10)
    assert alloc.tolist() == [3, 4]


def test_balanced_covers_every_cluster():
    data, labels = blob_instance(k=5, n=30)
    result = sample_and_score(data, labels, "balanced", 7, 3)
    assert (result.drawn_counts >= 1).all()


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 50), min_size=2, max_size=8),
    budget_frac=st.floats(0.1, 1.0),
    seed=st.integers(0, 1000),
)
def test_balanced_counts_sum_property(sizes, budget_frac, seed):
    total = sum(sizes)
    budget = max(2, int(total * budget_frac))
    alloc = balanced_allocation(np.array(sizes), budget)
    assert alloc.sum() == min(budget, total)
    assert (alloc <= np.array(sizes)).all()
    if budget >= len(sizes):
        assert (alloc >= 1).all()


def _allocation_by_single_indices(sizes, budget):
    """The reference allocation: quotas, then the leftover budget one index
    at a time to the cluster with the most room, ties to the smaller id."""
    sizes = np.asarray(sizes, dtype=np.int64)
    alloc = np.minimum(sizes, budget // len(sizes))
    remaining = budget - int(alloc.sum())
    while remaining > 0:
        room = sizes - alloc
        c = int(room.argmax())
        if room[c] == 0:
            break
        alloc[c] += 1
        remaining -= 1
    return alloc


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 300), min_size=1, max_size=12),
    budget=st.integers(2, 4000),
)
def test_balanced_allocation_matches_single_index_reference(sizes, budget):
    expected = _allocation_by_single_indices(sizes, budget)
    assert np.array_equal(balanced_allocation(np.array(sizes), budget), expected)


def test_balanced_allocation_one_huge_cluster():
    alloc = balanced_allocation(np.array([1_000_000] + [100] * 50), 500_000)
    assert alloc.tolist() == [495_000] + [100] * 50


def test_balanced_deterministic():
    data, labels = blob_instance()
    a = sample_and_score(data, labels, "balanced", 30, 5)
    b = sample_and_score(data, labels, "balanced", 30, 5)
    assert np.array_equal(a.indices, b.indices)


def test_sample_drops_absent_clusters():
    pts = np.concatenate([np.zeros(6), np.full(6, 10.0), np.full(2, 30.0)])[:, None]
    data = Dataset(pts)
    labels = Labeling(np.repeat([0, 1, 2], [6, 6, 2]), k=3)
    # force a sample from the first two clusters only
    result = sample_and_score(data, labels, "uniform", 12, 17)
    if 2 not in labels.assignments[result.indices]:
        assert len(result.surviving_clusters) == 2
        assert result.defined


def test_micro_weighted_matches_full_when_sample_is_everything():
    data, labels = blob_instance(k=3, n=20)
    # unequal clusters whose first rows come in id order 2, 0, 1
    rng = np.random.default_rng(11)
    shuffled = Labeling(np.repeat([2, 0, 1], [3, 10, 5]), k=3)
    for data, labels in [(data, labels), (Dataset(rng.normal(size=(18, 2))), shuffled)]:
        result = sample_and_score(data, labels, "balanced", data.n, 1)
        full = full_report(data, labels)
        assert result.micro_weighted == pytest.approx(full.micro, abs=1e-12)


def test_tukey_whiskers_plain():
    values = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
    lo, hi = tukey_whiskers(values)
    assert lo == 1.0
    assert hi == 4.0  # 100 lies beyond the 1.5 IQR fence


def test_monte_carlo_full_size_zero_spread():
    data, labels = blob_instance(k=3, n=20)
    cells = monte_carlo_study(data, labels, [data.n], runs=5, seed_base=0).cells
    full = full_report(data, labels)
    for cell in cells:
        assert cell.whisker_range == 0.0
        assert cell.median == pytest.approx(full.macro, abs=1e-12)
        assert cell.undefined_runs == 0


def test_monte_carlo_balanced_tighter_than_uniform():
    # imbalanced instance: balanced sampling has far lower spread
    rng = np.random.default_rng(0)
    pts = np.concatenate(
        [rng.normal(0, 0.1, 400), rng.normal(10, 1.0, 50), rng.normal(20, 1.0, 50)]
    )[:, None]
    data = Dataset(pts)
    labels = Labeling(np.repeat([0, 1, 2], [400, 50, 50]), k=3)
    cells = monte_carlo_study(data, labels, [30, 60], runs=20, seed_base=3).cells
    by_key = {(c.size, c.strategy): c for c in cells}
    for size in (30, 60):
        assert (
            by_key[(size, "balanced")].whisker_range
            <= by_key[(size, "uniform")].whisker_range
        )


def test_monte_carlo_thread_invariance():
    data, labels = blob_instance(k=3, n=30)
    serial = monte_carlo_study(data, labels, [12, 24], runs=6, seed_base=1, threads=1).cells
    threaded = monte_carlo_study(data, labels, [12, 24], runs=6, seed_base=1, threads=4).cells
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.scores, b.scores, equal_nan=True)
        assert a.median == b.median


def test_spec_validation():
    data, labels = blob_instance(k=2, n=10)
    with pytest.raises(ValueError, match="strategy must be one of"):
        sample_and_score(data, labels, "stratified", 10, 0)
    for size in (0, 1, data.n + 1):
        with pytest.raises(ValueError, match="sample size must be in"):
            sample_and_score(data, labels, "uniform", size, 0)


def _one_at_a_time(data, labels, cell, runs, seed_base, statistic):
    scores = []
    for run in range(runs):
        result = sample_and_score(data, labels, cell.strategy, cell.size, seed_base + run)
        if not result.defined:
            scores.append(float("nan"))
        else:
            scores.append(result.report.macro if statistic == "macro" else result.micro_weighted)
    return np.array(scores)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    cluster_sizes=st.lists(st.integers(1, 40), min_size=2, max_size=5),
    d=st.integers(1, 3),
    sample_sizes=st.lists(st.integers(2, 70), min_size=1, max_size=3),
    runs=st.integers(1, 7),
    statistic=st.sampled_from(["macro", "micro"]),
    block_rows=st.sampled_from([4, 16, 1024]),
    threads=st.sampled_from([1, 2]),
)
def test_monte_carlo_cells_bit_equal_to_single_runs(
    seed, cluster_sizes, d, sample_sizes, runs, statistic, block_rows, threads
):
    # each cell draws its runs in groups of BLOCK_ROWS // L and scores the
    # runs of a group that share their counts through one kernel call; every
    # score keeps the bits of the run scored alone. Singleton clusters,
    # duplicate points (integer coordinates), runs that lose all but one
    # cluster, L > BLOCK_ROWS and run counts that are no multiple of the
    # group size all occur.
    rng = np.random.default_rng(seed)
    n = sum(cluster_sizes)
    data = Dataset(rng.integers(-3, 4, size=(n, d)).astype(np.float64))
    own = rng.permutation(np.repeat(np.arange(len(cluster_sizes)), cluster_sizes))
    labels = Labeling(own, k=len(cluster_sizes))
    sizes = sorted({min(size, n) for size in sample_sizes})
    with (
        mock.patch.object(silhouette, "BLOCK_ROWS", block_rows),
        mock.patch.object(sampling, "BLOCK_ROWS", block_rows),
    ):
        cells = monte_carlo_study(
            data, labels, sizes, runs, seed_base=seed, statistic=statistic, threads=threads
        ).cells
        for cell in cells:
            expected = _one_at_a_time(data, labels, cell, runs, seed, statistic)
            assert cell.scores.tobytes() == expected.tobytes()
            assert cell.undefined_runs == int(np.isnan(expected).sum())


def _counting_score_runs(calls):
    """``_score_runs`` that records each call's run count and counts."""
    real = sampling._score_runs

    def counting(points, rows, own, counts, threads=None):
        calls.append((len(rows), counts.tolist()))
        return real(points, rows, own, counts, threads)

    return counting


def test_score_draws_groups_equal_counts_in_input_order():
    # draws with counts A, B, A and an undefined draw: one kernel call for
    # each count vector (A's two runs together), and every draw comes back
    # in its input place with the bits of its own full_report
    rng = np.random.default_rng(3)
    raw = rng.permutation(np.repeat([0, 1, 2], 10))
    data, labels = Dataset(rng.normal(size=(30, 2))), Labeling(raw, 3)
    members = [labels.members(c) for c in range(3)]

    def draw(counts):
        return np.sort(np.concatenate([rng.choice(m, size=q, replace=False) for m, q in zip(members, counts)]))

    draws = [draw((3, 2, 1)), draw((2, 3, 1)), draw((3, 2, 1)), draw((2, 0, 0))]
    calls = []
    with mock.patch.object(sampling, "_score_runs", _counting_score_runs(calls)):
        scored = sampling._score_draws(data, labels, draws)
    assert calls == [(2, [3, 2, 1]), (1, [2, 3, 1])]
    assert scored[3] is None
    for rows, (report, _) in zip(draws, scored[:3]):
        alone = full_report(Dataset(data.points[rows]), canonicalize_labels(raw[rows]))
        assert report.per_point.tobytes() == alone.per_point.tobytes()
        assert report.per_cluster.tobytes() == alone.per_cluster.tobytes()


def test_monte_carlo_kernel_calls_per_cell():
    # every balanced draw of a cell has the cell's counts, so L=50 scores its
    # 30 runs in two calls (BLOCK_ROWS // 50 = 20 runs, then 10); uniform
    # draws with distinct counts are one call each
    data, labels = imbalance_dataset(1000, seed=0)
    runs, seed_base = 30, 1
    uniform = sampling._sampler(data, labels, "uniform", 50)
    own = labels.assignments
    drawn = {tuple(np.bincount(own[uniform(seed_base + r)], minlength=labels.k)) for r in range(runs)}
    assert len(drawn) == runs
    calls = []
    with mock.patch.object(sampling, "_score_runs", _counting_score_runs(calls)):
        monte_carlo_study(data, labels, [50], runs, seed_base=seed_base)
    balanced = balanced_allocation(labels.cluster_sizes(), 50).tolist()
    assert [g for g, counts in calls if counts == balanced] == [20, 10]
    assert [g for g, counts in calls if counts != balanced] == [1] * runs


def test_monte_carlo_cells_past_one_block_bit_equal_to_single_runs():
    # L > BLOCK_ROWS at the real block height: one run per group, scored
    # in row blocks; uniform runs at L=3 on the imbalance set go undefined
    data, labels = imbalance_dataset(1000, seed=2)
    sizes, runs = [3, 1100], 3
    cells = monte_carlo_study(data, labels, sizes, runs, seed_base=4, statistic="micro", threads=2).cells
    for cell in cells:
        expected = _one_at_a_time(data, labels, cell, runs, 4, "micro")
        assert cell.scores.tobytes() == expected.tobytes()
    assert cells[0].undefined_runs > 0


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_cell_memory_within_one_report():
    # a group holds at most BLOCK_ROWS rows, so scoring a cell of 30 runs
    # costs about one L=800 report's kernel buffers; scoring all 30 runs of
    # the L=800 cell as one batch takes ~1.6x (their points, columns and
    # scores at once)
    data, labels = imbalance_dataset(1000, seed=0)
    sample = sample_and_score(data, labels, "uniform", 800, 1)
    sub_data = Dataset(data.points[sample.indices])
    sub_labels = canonicalize_labels(labels.assignments[sample.indices])
    single = _peak_bytes(lambda: full_report(sub_data, sub_labels))
    for size in (800, 50):
        cell = _peak_bytes(lambda: monte_carlo_study(data, labels, [size], runs=30, seed_base=1))
        assert cell <= 1.25 * single, (size, cell, single)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    cluster_sizes=st.lists(st.integers(1, 40), min_size=2, max_size=5),
    d=st.integers(1, 3),
    size=st.integers(2, 200),
    strategy=st.sampled_from(sampling.STRATEGIES),
    block_rows=st.sampled_from([4, 16, 1024]),
)
def test_sample_and_score_equals_full_report_of_the_subsample(
    seed, cluster_sizes, d, size, strategy, block_rows
):
    # sample_and_score scores the draw in place over the full labeling's
    # cluster ids; its report must be the one of the subsample scored as a
    # dataset of its own. Singleton clusters, duplicate points (integer
    # coordinates), undefined draws and L > BLOCK_ROWS all occur.
    rng = np.random.default_rng(seed)
    n = sum(cluster_sizes)
    data = Dataset(rng.integers(-3, 4, size=(n, d)).astype(np.float64))
    own = rng.permutation(np.repeat(np.arange(len(cluster_sizes)), cluster_sizes))
    labels = Labeling(own, k=len(cluster_sizes))
    with mock.patch.object(silhouette, "BLOCK_ROWS", block_rows):
        result = sample_and_score(data, labels, strategy, min(size, n), seed)
        sub_raw = own[result.indices]
        if len(np.unique(sub_raw)) < 2:
            assert not result.defined and result.micro_weighted is None
            return
        expected = full_report(Dataset(data.points[result.indices]), canonicalize_labels(sub_raw))
    report = result.report
    assert report.per_point.tobytes() == expected.per_point.tobytes()
    assert report.per_cluster.tobytes() == expected.per_cluster.tobytes()
    assert (report.micro, report.macro) == (expected.micro, expected.macro)
    assert report.singleton_count == expected.singleton_count
    _, first = np.unique(sub_raw, return_index=True)
    full_sizes = labels.cluster_sizes()[sub_raw[np.sort(first)]]
    assert result.micro_weighted == float((expected.per_cluster * full_sizes).sum() / full_sizes.sum())
