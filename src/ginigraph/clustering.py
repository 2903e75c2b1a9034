"""k-means with greedy farthest-point seeding and an elbow rule for k.

The elbow rule is the 10% criterion: the chosen k is the smallest k whose
relative WCSS drop to k+1 falls below 0.10 (a zero WCSS short-circuits to
that k, covering identical-point inputs at k = 1).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, check_int

Array = np.ndarray

LLOYD_ITERATIONS = 50
ELBOW_DROP = 0.10


def _seed_centers(x: Array, k: int, rng: np.random.Generator) -> Array:
    """First center uniform at random, then greedy farthest-point picks."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    dist = np.sum((x - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        nxt = int(np.argmax(dist))
        centers[c] = x[nxt]
        dist = np.minimum(dist, np.sum((x - centers[c]) ** 2, axis=1))
    return centers


def kmeans(x: Array, k: int, seed: int = 0) -> tuple[Array, Array, float]:
    """Lloyd iterations from farthest-point seeds.

    Returns (assignments, centers, wcss). Deterministic for a fixed seed;
    empty clusters keep their previous center.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0 or not np.isfinite(x).all():
        raise ContractError("x must be a nonempty (n, d) matrix of finite numbers")
    n = x.shape[0]
    if check_int(k, "k", 1) > n:
        raise ContractError(f"k must lie in [1, {n}], got {k}")
    rng = np.random.default_rng(check_int(seed, "seed"))
    centers = _seed_centers(x, k, rng)
    assign = np.zeros(n, dtype=np.int64)
    for it in range(LLOYD_ITERATIONS):
        d2 = (
            np.sum(x * x, axis=1)[:, None]
            - 2.0 * x @ centers.T
            + np.sum(centers * centers, axis=1)[None, :]
        )
        new_assign = np.argmin(d2, axis=1)
        if it > 0 and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = assign == c
            if np.any(members):
                centers[c] = x[members].mean(axis=0)
    wcss = float(np.sum((x - centers[assign]) ** 2))
    return assign, centers, wcss


def kmeans_elbow(x: Array, k_max: int, seed: int = 0) -> tuple[int, list[float]]:
    """Choose k by the 10% relative-drop rule; returns (k, WCSS for k=1..k_max)."""
    x = np.asarray(x, dtype=np.float64)
    if check_int(k_max, "k_max", 2) > x.shape[0]:
        raise ContractError("k_max cannot exceed the number of points")
    wcss = [kmeans(x, k, seed)[2] for k in range(1, k_max + 1)]
    for k in range(1, k_max):
        if wcss[k - 1] == 0.0:
            return k, wcss
        drop = (wcss[k - 1] - wcss[k]) / wcss[k - 1]
        if drop < ELBOW_DROP:
            return k, wcss
    return k_max, wcss
