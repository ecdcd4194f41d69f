"""Slow-path oracles that the tests compare the production code against.

These are the k-means solver's former implementations: the direct-form
k-means++ seeding and the Lloyd loop that recomputes its distance matrix and
boolean member masks every iteration. ``fpbits.codebook.kmeans_train`` must
reproduce them bit for bit.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from fpbits.errors import PoolTooSmall
from fpbits.subspace_fusion import stack_fused


def distances_oracle(matrix: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Plain Euclidean distance matrix, each term a new array."""
    sq = (
        (matrix * matrix).sum(axis=1)[:, None]
        - 2.0 * matrix @ centroids.T
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return np.sqrt(np.maximum(sq, 0.0))


def kmeanspp_init_oracle(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding with squared distances in direct form."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = x[first]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = x[idx]
        d2 = np.minimum(d2, ((x - centroids[j]) ** 2).sum(axis=1))
    return centroids


def kmeans_train_oracle(
    pool,
    k: int,
    max_iters: int = 100,
    seed: int = 0,
    trace: Optional[List[float]] = None,
) -> np.ndarray:
    """Lloyd's algorithm with a fresh distance matrix and a mask per cluster."""
    x = stack_fused(pool)
    n = x.shape[0]
    if k < 1:
        raise PoolTooSmall(f"k must be >= 1, got {k}")
    if n < k:
        raise PoolTooSmall(f"pool of {n} vectors cannot support {k} clusters")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    centroids = kmeanspp_init_oracle(x, k, rng)

    prev_assign: Optional[np.ndarray] = None
    for _ in range(max_iters):
        d = distances_oracle(x, centroids)
        assign = d.argmin(axis=1)  # ties resolve to the smallest index

        counts = np.bincount(assign, minlength=k)
        if (counts == 0).any():
            own = d[np.arange(n), assign].copy()
            for empty in np.flatnonzero(counts == 0):
                eligible = counts[assign] >= 2
                if not eligible.any():
                    break
                cand = np.where(eligible, own, -np.inf)
                far = int(cand.argmax())
                counts[assign[far]] -= 1
                assign[far] = empty
                counts[empty] = 1
                own[far] = -np.inf

        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign

        for j in range(k):
            centroids[j] = x[assign == j].mean(axis=0)
        if trace is not None:
            trace.append(float((distances_oracle(x, centroids).min(axis=1) ** 2).sum()))

    return centroids
