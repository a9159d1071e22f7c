"""Seeded k-means on small in-memory point sets.

Deliberately dependency-free: determinism under a fixed seed is a hard
requirement for proxy initialisation and marginal estimation, and the point
sets involved are tiny (a few hundred vectors).
"""
from __future__ import annotations

import numpy as np

# Lloyd iterations at most; most runs stop earlier, when the labels settle.
_MAX_ITERS = 100


def kmeans(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding.

    Returns (labels, centers). Clusters that lose all points keep their
    center and end with size 0; no re-initialization.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n < k:
        raise ValueError(f"need at least {k} points, got {n}")
    centers = _kmeanspp_init(points, k, rng)
    labels = np.full(n, -1)  # no assignment: the first always differs
    for _ in range(_MAX_ITERS):
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            mask = labels == c
            if np.any(mask):
                centers[c] = points[mask].mean(axis=0)
    return labels, centers


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers
