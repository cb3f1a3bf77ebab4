import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from silkit import clustering, core, sampling, silhouette
from silkit.clustering import KMeansConfig, global_kmeanspp, lloyd
from silkit.core import (
    Dataset,
    Labeling,
    _sq_distances,
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
        assert np.array_equal(np.sqrt(_sq_distances(cols_t, cols_t[:, i : i + 1]))[:, 0], m[i])


def test_row_self_distance_zero():
    rng = np.random.default_rng(3)
    d = Dataset(rng.normal(size=(9, 2)))
    cols_t = np.ascontiguousarray(d.points.T)
    for i in range(9):
        assert _sq_distances(cols_t, cols_t[:, i : i + 1])[i, 0] == 0.0


def test_kernel_run_axis_is_each_run_alone():
    # d x m x g columns against d x g x r rows: run j's columns against run
    # j's rows, with the bits of the one-run call
    rng = np.random.default_rng(4)
    cols, rows = rng.normal(size=(3, 7, 2)), rng.normal(size=(3, 5, 2))
    cols_t, rows_t = (np.ascontiguousarray(a.transpose(2, i, 1 - i)) for a, i in ((cols, 1), (rows, 0)))
    batched = _sq_distances(cols_t, rows_t)
    assert batched.shape == (7, 3, 5)
    for j in range(3):
        alone = _sq_distances(np.ascontiguousarray(cols[j].T), np.ascontiguousarray(rows[j].T))
        assert batched[:, j].tobytes() == alone.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), d=st.integers(1, 13), m=st.integers(1, 9), r=st.integers(1, 40))
def test_kernel_bytes_do_not_depend_on_operand_layout(seed, d, m, r):
    # strided views (the transposes of m x d and r x d matrices) and their
    # C-contiguous copies take different numpy loops, with the same bytes
    rng = np.random.default_rng(seed)
    cols, rows = rng.normal(size=(m, d)), rng.normal(scale=rng.uniform(0.1, 10.0), size=(r, d))
    strided = _sq_distances(cols.T, rows.T)
    contiguous = _sq_distances(np.ascontiguousarray(cols.T), np.ascontiguousarray(rows.T))
    assert strided.tobytes() == contiguous.tobytes()
    work = np.empty(2 * m * r + 3)
    assert _sq_distances(cols.T, np.ascontiguousarray(rows.T), work).tobytes() == contiguous.tobytes()


def test_every_kernel_call_reads_contiguous_rows(monkeypatch):
    # each subtraction streams a C-contiguous coordinate row of rows_t in
    # full_report, sampled draws (uniform ones scored alone, equal-count
    # balanced ones together, d x g x h rows), lloyd (with an empty-cluster
    # repair) and global k-means++
    calls, run_counts = [], []

    def recording(cols_t, rows_t, work=None):
        calls.append(all(row.flags.c_contiguous for row in rows_t))
        run_counts.append(rows_t.shape[1] if rows_t.ndim == 3 else 1)
        return _sq_distances(cols_t, rows_t, work)

    for module in (silhouette, clustering):
        monkeypatch.setattr(module, "_sq_distances", recording)
    rng = np.random.default_rng(6)
    points, raw = rng.normal(size=(90, 3)), np.repeat([0, 1, 2], 30)
    data, labels = Dataset(points), Labeling(raw, 3)
    silhouette.full_report(data, labels, threads=2)
    draws = [np.sort(rng.choice(90, size=12, replace=False)) for _ in range(4)]
    draws += [sampling._sampler(data, labels, "balanced", 12)(seed) for seed in range(3)]
    assert all(len(np.unique(raw[rows])) > 1 for rows in draws)
    sampling._score_draws(data, labels, draws)
    n_scoring = len(calls)
    assert max(run_counts) == 3
    lloyd(data, points[[0, 0, 40]], KMeansConfig())  # the two equal centers empty a cluster
    global_kmeanspp(data, 4, KMeansConfig(n_candidates=3))
    assert n_scoring >= 2 and len(calls) > n_scoring + 2
    assert all(calls)


class _BufferSpy:
    """numpy for the kernel's module, except that subtract and multiply
    record the ufunc buffer size they run at (and raise when told to)."""

    def __init__(self):
        self.seen, self.fail = [], False

    def __getattr__(self, name):
        return getattr(np, name)

    def _record(self, ufunc, *args, **kwargs):
        self.seen.append(np.getbufsize())
        if self.fail:
            raise MemoryError
        return ufunc(*args, **kwargs)

    def subtract(self, *args, **kwargs):
        return self._record(np.subtract, *args, **kwargs)

    def multiply(self, *args, **kwargs):
        return self._record(np.multiply, *args, **kwargs)


def test_unbuffered_restores_buffer_size(monkeypatch):
    # the kernel runs its subtractions and squares with numpy's ufunc buffer
    # at 256 elements and hands the caller back its own size, also when it
    # raises
    spy = _BufferSpy()
    monkeypatch.setattr(core, "np", spy)
    points = np.random.default_rng(7).normal(size=(20, 3))
    default = np.getbufsize()
    np.setbufsize(16384)
    try:
        assert np.array_equal(_sq_distances(points.T, points.T), _sq_distances(points.T, points.T))
        assert set(spy.seen) == {256} and np.getbufsize() == 16384
        spy.fail = True
        with pytest.raises(MemoryError):
            _sq_distances(points.T, points.T)
        assert np.getbufsize() == 16384 and spy.seen[-1] == 256
    finally:
        np.setbufsize(default)


def test_kernel_runs_its_calls_unbuffered_and_restores_the_callers(monkeypatch):
    # every kernel call runs its subtractions and squares with numpy's
    # ufunc buffer at 256 elements, in full_report's tiles, sampled draws
    # and lloyd (with an empty-cluster repair), and hands the caller
    # back its own size, also when it raises
    spy, calls = _BufferSpy(), []

    def recording(cols_t, rows_t, work=None):
        before, start = np.getbufsize(), len(spy.seen)
        try:
            return _sq_distances(cols_t, rows_t, work)
        finally:
            calls.append((before, set(spy.seen[start:]), np.getbufsize()))

    monkeypatch.setattr(core, "np", spy)
    for module in (silhouette, clustering):
        monkeypatch.setattr(module, "_sq_distances", recording)
    rng = np.random.default_rng(6)
    points, raw = rng.normal(size=(90, 3)), np.repeat([0, 1, 2], 30)
    data, labels = Dataset(points), Labeling(raw, 3)
    draws = [rng.choice(90, size=12, replace=False) for _ in range(4)]
    assert len({tuple(np.bincount(raw[rows], minlength=3)) for rows in draws}) > 1  # several calls
    default = np.getbufsize()
    np.setbufsize(16384)
    try:
        with mock.patch.object(silhouette, "TILE_ELEMS", 90 * 20):
            silhouette.full_report(data, labels)
        n_full = len(calls)
        sampling._score_draws(data, labels, draws)
        n_scoring = len(calls)
        lloyd(data, points[[0, 0, 40]], KMeansConfig())  # the two equal centers empty a cluster
        assert n_full > 2 and n_scoring > n_full and len(calls) > n_scoring + 2
        assert calls == [(16384, {256}, 16384)] * len(calls)

        spy.fail = True
        with pytest.raises(MemoryError):
            silhouette.full_report(data, labels)
        assert np.getbufsize() == 16384 and spy.seen[-1] == 256
    finally:
        np.setbufsize(default)


def _buffer_instance(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(6, 60)), int(rng.integers(1, 5))
    k = int(rng.integers(2, 5))
    points = rng.normal(scale=rng.uniform(0.1, 10.0), size=(n, d))
    if seed % 3 == 0:
        points[: n // 3] = points[-1]
    raw = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(raw)
    draws = [rng.choice(n, size=n // 2, replace=False) for _ in range(3)]
    return Dataset(points), canonicalize_labels(raw), draws


def _buffer_outputs(data, labels, draws) -> list[bytes]:
    out = []
    for threads in (1, 2):
        report = silhouette.full_report(data, labels, threads)
        out += [report.per_point.tobytes(), report.per_cluster.tobytes()]
    for scored in sampling._score_draws(data, labels, draws):
        out.append(b"" if scored is None else scored[0].per_point.tobytes())
    for result in global_kmeanspp(data, 3, KMeansConfig(n_candidates=3)).values():
        out += [result.centers.tobytes(), result.labeling.assignments.tobytes()]
    return out


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_results_do_not_depend_on_the_callers_ufunc_buffer(seed):
    # only the kernel's elementwise work runs at its small buffer; scoring's
    # square roots and slab sums and Lloyd's reductions run at the caller's,
    # and give the same bytes at any size
    data, labels, draws = _buffer_instance(seed)
    default = np.getbufsize()
    outputs = []
    try:
        for size in (256, 8192, 16384):
            np.setbufsize(size)
            outputs.append(_buffer_outputs(data, labels, draws))
    finally:
        np.setbufsize(default)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_report_reads_the_core_count_once(monkeypatch):
    reads = []

    def counting():
        reads.append(1)
        return 2

    monkeypatch.setattr(os, "cpu_count", counting)
    data = Dataset(np.random.default_rng(3).normal(size=(40, 2)))
    silhouette.full_report(data, Labeling(np.arange(40) % 2, 2), threads=2)
    assert len(reads) == 1


def test_threads_above_the_cores_run_on_the_cores(monkeypatch):
    # threads=10**6 asks for no more workers than there are cores, in blocks
    # as tall as at threads=cores; the stand-in pool runs its tasks inline,
    # so no thread starts
    cores = os.cpu_count() or 1
    rng = np.random.default_rng(8)
    data = Dataset(rng.normal(size=(300, 2)))
    labels = Labeling(np.repeat([0, 1, 2], 100), 3)

    def pools_and_blocks(run):
        pools, blocks = [], []

        class InlinePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        def recording(cols_t, rows_t, work=None):
            blocks.append(rows_t.shape[-1])
            return _sq_distances(cols_t, rows_t, work)

        with (
            mock.patch.object(core, "ThreadPoolExecutor", InlinePool),
            mock.patch.object(silhouette, "_sq_distances", recording),
        ):
            run()
        return pools, sorted(blocks)

    for run in (
        lambda threads: silhouette.full_report(data, labels, threads),
        lambda threads: sampling.monte_carlo_study(data, labels, [20], 3, threads=threads),
    ):
        pools, blocks = pools_and_blocks(lambda: run(10**6))
        assert all(workers <= cores for workers in pools), pools
        assert (pools, blocks) == pools_and_blocks(lambda: run(cores))


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
