"""Brute-force silhouette oracle, kept deliberately independent of the
library's accumulation path: per-point loops, per-cluster masks, plain
means. Used to pin down expected values in the tests.

Also the broadcast distance formula the library's per-coordinate kernel
replaced, kept as the bitwise reference for d < 8, and the unbounded Lloyd
loop, kept as the bitwise reference for the bounded one."""

import numpy as np


def naive_silhouette(points, labels):
    """Per-point scores, per-cluster means, micro and macro averages."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    ids = np.unique(labels)
    if len(ids) < 2:
        raise ValueError("need at least two clusters")
    n = len(points)
    scores = np.zeros(n)
    for i in range(n):
        row = np.sqrt(((points - points[i]) ** 2).sum(axis=1))
        own = labels == labels[i]
        if own.sum() < 2:
            scores[i] = 0.0
            continue
        a = row[own].sum() / (own.sum() - 1)
        b = min(row[labels == c].mean() for c in ids if c != labels[i])
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    per_cluster = np.array([scores[labels == c].mean() for c in ids])
    return scores, per_cluster, scores.mean(), per_cluster.mean()


def broadcast_sq_distances(a, b):
    """len(a) x len(b) squared distances from one len(a) x len(b) x d
    difference temporary, summed over its last axis."""
    diff = a[:, None, :] - b[None, :, :]
    return (diff * diff).sum(-1)


def gathered_cluster_sums(points, labels, k):
    """n x k sums of each point's distances to every cluster, gathered
    cluster by cluster from the full broadcast distance matrix."""
    dist = np.sqrt(broadcast_sq_distances(points, points))
    return np.stack([dist[:, np.flatnonzero(labels == c)].sum(axis=1) for c in range(k)], axis=1)


def reference_lloyd(points, initial_centers, max_iters, tol):
    """The Lloyd loop the bounded one replaced: a full assignment every
    iteration, one masked mean per cluster, and a trailing assignment.
    Returns centers, labels, SSE and iterations."""
    from silkit.clustering import _assign, _repair_empty

    points = np.asarray(points, dtype=np.float64)
    centers = np.array(initial_centers, dtype=np.float64, copy=True)
    prev_sse = None
    labels = None
    iterations = 0
    while iterations < max_iters:
        new_labels, d2 = _assign(points, centers)
        new_labels = _repair_empty(points, centers, new_labels, d2)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        iterations += 1
        for c in range(len(centers)):
            centers[c] = points[labels == c].mean(axis=0)
        sse = float(((points - centers[labels]) ** 2).sum())
        if prev_sse is not None and prev_sse - sse <= tol * prev_sse:
            break
        prev_sse = sse
    final_labels, d2 = _assign(points, centers)
    final_labels = _repair_empty(points, centers, final_labels, d2)
    sse = float(((points - centers[final_labels]) ** 2).sum())
    return centers, final_labels, sse, iterations
