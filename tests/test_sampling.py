import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from silkit.core import Dataset, Labeling
from silkit.sampling import (
    SampleSpec,
    balanced_allocation,
    balanced_sample,
    monte_carlo_study,
    tukey_whiskers,
    uniform_sample,
)
from silkit.silhouette import full_report
from silkit.synth import generate_blobs, separated_blobs_spec


def blob_instance(k=4, n=40, seed=0):
    return generate_blobs(separated_blobs_spec(k, n, rng_seed=seed))


def test_uniform_full_size_equals_full_report():
    data, labels = blob_instance()
    result = uniform_sample(data, labels, SampleSpec("uniform", data.n, 1))
    full = full_report(data, labels)
    assert result.defined
    assert result.report.micro == full.micro
    assert result.report.macro == full.macro
    assert np.array_equal(result.indices, np.arange(data.n))


def test_uniform_deterministic():
    data, labels = blob_instance()
    a = uniform_sample(data, labels, SampleSpec("uniform", 20, 9))
    b = uniform_sample(data, labels, SampleSpec("uniform", 20, 9))
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
        if not uniform_sample(data, labels, SampleSpec("uniform", 5, s)).defined
    ]
    assert undefined_seeds, "expected at least one all-one-cluster sample"


def test_uniform_rejects_oversize():
    data, labels = blob_instance()
    with pytest.raises(ValueError):
        uniform_sample(data, labels, SampleSpec("uniform", data.n + 1, 0))


def test_balanced_exact_division():
    data, labels = blob_instance(k=4, n=40)
    result = balanced_sample(data, labels, SampleSpec("balanced", 40, 2))
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
    result = balanced_sample(data, labels, SampleSpec("balanced", 7, 3))
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
    a = balanced_sample(data, labels, SampleSpec("balanced", 30, 5))
    b = balanced_sample(data, labels, SampleSpec("balanced", 30, 5))
    assert np.array_equal(a.indices, b.indices)


def test_sample_drops_absent_clusters():
    pts = np.concatenate([np.zeros(6), np.full(6, 10.0), np.full(2, 30.0)])[:, None]
    data = Dataset(pts)
    labels = Labeling(np.repeat([0, 1, 2], [6, 6, 2]), k=3)
    # force a sample from the first two clusters only
    result = uniform_sample(data, labels, SampleSpec("uniform", 12, 17))
    if 2 not in labels.assignments[result.indices]:
        assert len(result.surviving_clusters) == 2
        assert result.defined


def test_micro_weighted_matches_full_when_sample_is_everything():
    data, labels = blob_instance(k=3, n=20)
    # unequal clusters whose first rows come in id order 2, 0, 1
    rng = np.random.default_rng(11)
    shuffled = Labeling(np.repeat([2, 0, 1], [3, 10, 5]), k=3)
    for data, labels in [(data, labels), (Dataset(rng.normal(size=(18, 2))), shuffled)]:
        result = balanced_sample(data, labels, SampleSpec("balanced", data.n, 1))
        full = full_report(data, labels)
        assert result.micro_weighted == pytest.approx(full.micro, abs=1e-12)


def test_tukey_whiskers_plain():
    values = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
    lo, hi = tukey_whiskers(values)
    assert lo == 1.0
    assert hi == 4.0  # 100 lies beyond the 1.5 IQR fence


def test_monte_carlo_full_size_zero_spread():
    data, labels = blob_instance(k=3, n=20)
    cells = monte_carlo_study(data, labels, [data.n], runs=5, seed_base=0)
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
    cells = monte_carlo_study(data, labels, [30, 60], runs=20, seed_base=3)
    by_key = {(c.size, c.strategy): c for c in cells}
    for size in (30, 60):
        assert (
            by_key[(size, "balanced")].whisker_range
            <= by_key[(size, "uniform")].whisker_range
        )


def test_monte_carlo_thread_invariance():
    data, labels = blob_instance(k=3, n=30)
    serial = monte_carlo_study(data, labels, [12, 24], runs=6, seed_base=1, threads=1)
    threaded = monte_carlo_study(data, labels, [12, 24], runs=6, seed_base=1, threads=4)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.scores, b.scores, equal_nan=True)
        assert a.median == b.median


def test_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec("stratified", 10)
    with pytest.raises(ValueError):
        SampleSpec("uniform", 1)
