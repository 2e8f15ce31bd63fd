"""Seeded Lloyd's algorithm with k-means++ initialization.

Fully deterministic for a fixed seed: initialization draws come from a
PCG64 generator, assignment ties go to the lowest centroid index, and empty
clusters are re-seeded to the point currently farthest from its centroid.
Lloyd passes stop when the assignments repeat, or after ``MAX_ITER`` passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ITER = 100


@dataclass
class KMeansResult:
    assignments: np.ndarray      # (N,) int64
    centroids: np.ndarray        # (k, D)
    iterations: int


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all remaining mass at distance zero; fall back to a uniform draw
            idx = int(rng.integers(n))
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((points - points[idx]) ** 2, axis=1))
    return points[chosen].copy()


def kmeans(points: np.ndarray, k: int, seed) -> KMeansResult:
    """Cluster ``points`` (N, D) into ``k`` groups.

    ``seed`` may be an int or a sequence of ints (handy for deriving
    independent child clusterings from one master seed).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be (N, D), got shape {points.shape}")
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        raise ValueError(f"points row {bad[0]} is not finite")
    n = points.shape[0]
    if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
        raise ValueError(f"k must be a positive int, got {k!r}")
    if n < k:
        raise ValueError(f"need at least k={k} points, have {n}")

    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(points, k, rng)

    assignments = None
    iterations = 0
    for _ in range(MAX_ITER):
        iterations += 1
        d2 = _sq_dists(points, centroids)
        new_assign = np.argmin(d2, axis=1)  # ties resolve to the lowest index
        if assignments is not None and np.array_equal(new_assign, assignments):
            break
        assignments = new_assign

        taken = np.zeros(n, dtype=bool)
        point_d2 = d2[np.arange(n), assignments]
        for c in range(k):
            members = assignments == c
            if members.any():
                centroids[c] = points[members].mean(axis=0)
            else:
                # re-seed to the farthest not-yet-taken point
                cand = np.where(~taken, point_d2, -np.inf)
                far = int(np.argmax(cand))
                taken[far] = True
                centroids[c] = points[far]

    return KMeansResult(assignments.astype(np.int64), centroids, iterations)
