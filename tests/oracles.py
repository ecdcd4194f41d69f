"""Slow-path oracles that the tests compare the production code against.

* The k-means solver's former implementations: the direct-form k-means++
  seeding and the Lloyd loop that recomputes its distance matrix and boolean
  member masks every iteration. ``fpbits.codebook.kmeans_train`` must
  reproduce them bit for bit.
* The one-pass fit: ``train_model_oracle`` extracts every descriptor row of
  both families into two full matrices, fits each subspace on a copied row
  subsample and projects each impression's rows with ``project``, as
  ``encode`` does. ``fpbits.pipeline.train_model`` must save the same bytes
  when every row is subsampled.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from fpbits.codebook import (
    Codebook,
    cardinality_weights,
    cluster_cardinalities,
    distance_vector,
    estimate_radii,
    global_mean,
    kmeans_train,
)
from fpbits.errors import EmptyTrainingSet, PoolTooSmall
from fpbits.local_structures import StructureGeometry
from fpbits.model_store import PipelineModel
from fpbits.pipeline import _STREAM_PCA_SUBSAMPLE, raw_structures
from fpbits.subspace_fusion import fuse_matrix, project, train_pca_inplace
from fpbits.synth import keyed_rng


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
    max_iters: int,
    seed: int,
    trace: Optional[List[float]] = None,
) -> np.ndarray:
    """Lloyd's algorithm with a fresh distance matrix and a mask per cluster."""
    x = np.asarray(pool, dtype=np.float64)
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


def subsample_oracle(matrix: np.ndarray, cap: int, seed: int) -> np.ndarray:
    """At most ``cap`` rows of ``matrix`` (all when ``cap`` is 0), as a new array."""
    if cap <= 0 or matrix.shape[0] <= cap:
        return matrix.copy()
    rng = keyed_rng(seed, _STREAM_PCA_SUBSAMPLE)
    idx = np.sort(rng.choice(matrix.shape[0], size=cap, replace=False))
    return matrix[idx]


def train_model_oracle(items, config) -> PipelineModel:
    """The one-pass fit: both full descriptor matrices, then one family at a time."""
    if not items:
        raise EmptyTrainingSet("training dataset is empty")
    geometry = StructureGeometry.from_config(config)
    keys = sorted(items.keys())
    counts = [len(items[key][0].minutiae) for key in keys]
    m_matrix = np.empty((sum(counts), geometry.n_m))
    t_matrix = np.empty((sum(counts), geometry.n_t))
    bounds = np.concatenate([[0], np.cumsum(counts)])
    for key, lo, hi in zip(keys, bounds[:-1], bounds[1:]):
        template, image = items[key]
        m_matrix[lo:hi], t_matrix[lo:hi] = raw_structures(template, image, geometry)

    def project_each(pca, matrix):
        # one product per impression, as encode_impression forms it
        return np.concatenate(
            [project(pca, matrix[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
        )

    pca_m = train_pca_inplace(
        subsample_oracle(m_matrix, config.pca_subsample, config.seed), config.n_p
    )
    proj_m = project_each(pca_m, m_matrix)
    del m_matrix
    pca_t = train_pca_inplace(
        subsample_oracle(t_matrix, config.pca_subsample, config.seed), config.n_p
    )
    proj_t = project_each(pca_t, t_matrix)
    del t_matrix
    fused = fuse_matrix(proj_m, proj_t, config.omega_M, config.omega_T)

    centroids = kmeans_train(
        fused, config.K, max_iters=config.kmeans_max_iters, seed=config.seed
    )
    radii = estimate_radii(fused, centroids, config.N_c)
    cardinalities = cluster_cardinalities(fused, centroids, radii)
    codebook = Codebook(
        centroids=centroids,
        radii=radii,
        cardinalities=cardinalities,
        weights=cardinality_weights(cardinalities),
    )
    model = PipelineModel(config=config, pca_m=pca_m, pca_t=pca_t, codebook=codebook)
    groups: Dict[str, list] = {}
    offset = 0
    for key, n in zip(keys, counts):
        vals = fused[offset : offset + n]
        offset += n
        if n == 0:
            continue
        groups.setdefault(key[0], []).append(
            distance_vector(vals, codebook, subject_id=key[0], impression_id=key[1])
        )
    codebook.global_mean = global_mean([groups[s] for s in sorted(groups.keys())])
    return model
