"""Lloyd's algorithm: determinism, monotonicity, and recovery of planted blobs."""

import re

import numpy as np
import pytest

from facerel import kmeans as kmeans_module
from facerel.kmeans import kmeans


def sse(points, res) -> float:
    """Sum of squared distances of the points to their assigned centroids."""
    return float(np.sum((points - res.centroids[res.assignments]) ** 2))


def test_each_point_its_own_centroid():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(6, 3))
    res = kmeans(pts, 6, seed=1)
    assert sse(pts, res) == 0.0
    assert sorted(res.assignments) == list(range(6))


def test_two_blob_recovery_matches_brute_force():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(10, 2)) * 0.05 + np.array([0.0, 0.0])
    b = rng.normal(size=(10, 2)) * 0.05 + np.array([10.0, 10.0])
    pts = np.vstack([a, b])
    res = kmeans(pts, 2, seed=3)

    # brute-force oracle: best of the two blob labelings on this tiny instance
    best = None
    for labels in ([0] * 10 + [1] * 10, [1] * 10 + [0] * 10):
        labels = np.array(labels)
        cost = 0.0
        for c in (0, 1):
            mu = pts[labels == c].mean(axis=0)
            cost += np.sum((pts[labels == c] - mu) ** 2)
        if best is None or cost < best[0]:
            best = (cost, labels)

    assert np.isclose(sse(pts, res), best[0])
    same = np.array_equal(res.assignments, best[1])
    flipped = np.array_equal(1 - res.assignments, best[1])
    assert same or flipped
    for c in range(2):
        blob = a if np.allclose(res.centroids[c], a.mean(axis=0), atol=1.0) else b
        np.testing.assert_allclose(res.centroids[c], blob.mean(axis=0), atol=1e-9)


def test_same_seed_bit_identical():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(40, 5))
    r1 = kmeans(pts, 4, seed=9)
    r2 = kmeans(pts, 4, seed=9)
    np.testing.assert_array_equal(r1.assignments, r2.assignments)
    np.testing.assert_array_equal(r1.centroids, r2.centroids)
    assert r1.iterations == r2.iterations


def test_objective_never_increases_across_many_instances(monkeypatch):
    # the objective after each Lloyd pass, read off runs stopped there
    rng = np.random.default_rng(5)
    for trial in range(100):
        n = int(rng.integers(8, 40))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(n, 6) + 1))
        pts = rng.normal(size=(n, d))
        passes = kmeans(pts, k, seed=trial).iterations
        objective = []
        for stop in range(1, passes + 1):
            monkeypatch.setattr(kmeans_module, "MAX_ITER", stop)
            objective.append(sse(pts, kmeans(pts, k, seed=trial)))
        monkeypatch.undo()
        diffs = np.diff(objective)
        assert np.all(diffs <= 1e-9), f"objective increased on trial {trial}"


def test_terminates_within_max_iter(monkeypatch):
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(50, 2))
    assert kmeans(pts, 5, seed=0).iterations > 3
    monkeypatch.setattr(kmeans_module, "MAX_ITER", 3)
    assert kmeans(pts, 5, seed=0).iterations == 3


def test_rejects_bad_k():
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError, match="positive"):
        kmeans(pts, 0, seed=0)
    with pytest.raises(ValueError, match="at least"):
        kmeans(pts, 5, seed=0)
    for bad in (True, 2.5):
        with pytest.raises(ValueError, match=re.escape(f"k must be a positive int, got {bad!r}")):
            kmeans(pts, bad, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_points(bad):
    pts = np.random.default_rng(0).normal(size=(6, 2))
    pts[3, 1] = bad
    pts[5, 0] = bad
    with pytest.raises(ValueError, match="row 3 is not finite"):
        kmeans(pts, 2, seed=0)


def test_duplicate_points_still_terminate():
    pts = np.zeros((10, 2))
    res = kmeans(pts, 3, seed=0)
    assert sse(pts, res) == 0.0
