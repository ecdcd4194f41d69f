"""Cluster codebook over fused vectors, and conversion to bit-strings.

The codebook is a K-means vocabulary fitted on a pool of fused minutia
vectors. Each cluster additionally carries a boundary radius (how far its
nearest outside neighbors sit), a cardinality (how many pool vectors it
claims under radius-adjusted assignment), and a weight derived from that
cardinality (rare clusters discriminate better and weigh more).

An impression's set of fused vectors becomes a K-bit string: each vector
votes for its radius-adjusted nearest clusters, and a vote sets the bit when
the adjusted distance clears a fixed threshold. The same impression also
yields a K-length real distance vector (nearest plain distance per cluster)
used by enrollment-time bit selection.

The records check their arrays and :func:`kmeans_train` its pool. The steps
after k-means read matrices the pipeline builds from checked records: they
check nothing, and the package does not export them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from .errors import (
    ArrayRecord,
    DegeneratePool,
    LengthMismatch,
    MalformedHeader,
    PoolTooSmall,
    check_arrays,
)

# the expanded squared distance ||x||^2 - 2 x.c + ||c||^2 rounds by at most
# about 2 (dim + 2) eps (||x||^2 + ||c||^2). k-means++ recomputes in direct
# form every one within twice that, this factor times (dim + 2) eps, of 0
_EXPANDED_ROUNDING = 4.0


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

@dataclass(eq=False, frozen=True)
class BitString(ArrayRecord):
    """Fixed-length binary template: a 1-d, read-only bool row."""

    bits: np.ndarray

    def __post_init__(self):
        check_arrays(self, MalformedHeader, bits=(bool, None))

    def __len__(self) -> int:
        return self.bits.shape[0]

    def __repr__(self) -> str:
        return f"BitString({self.ones}/{len(self)} set)"

    @property
    def ones(self) -> int:
        """Number of set bits."""
        return int(self.bits.sum())


@dataclass(eq=False, frozen=True)
class DistanceVector(ArrayRecord):
    """Per-impression nearest plain distance to every cluster centroid."""

    values: np.ndarray

    def __post_init__(self):
        check_arrays(self, MalformedHeader, values=(float, None))

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(eq=False, frozen=True)
class Codebook(ArrayRecord):
    """Fitted cluster vocabulary; bit conversion's parameters come from the config.

    ``weights`` is derived from ``cardinalities`` by
    :func:`cardinality_weights`, so the two cannot disagree.
    """

    centroids: np.ndarray  # (K, dim)
    radii: np.ndarray  # (K,)
    cardinalities: np.ndarray  # (K,) int
    weights: np.ndarray = field(init=False)  # (K,) in [0, 1]

    def __post_init__(self):
        check_arrays(self, MalformedHeader, freeze=False, centroids=(float, "K", None),
                     radii=(float, "K"), cardinalities=(int, "K"))
        if self.k < 1 or (self.cardinalities < 0).any():
            raise MalformedHeader(f"need K >= 1 and cardinalities >= 0, got {self.cardinalities}")
        object.__setattr__(self, "weights", cardinality_weights(self.cardinalities))
        check_arrays(self, MalformedHeader, centroids=(float, "K", None), radii=(float, "K"),
                     cardinalities=(int, "K"), weights=(float, "K"))

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


def _sq_norms(matrix: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every row."""
    return (matrix * matrix).sum(axis=1)


def centroid_distances(
    matrix: np.ndarray,
    centroids: np.ndarray,
    sq_norms: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Plain Euclidean distance matrix, rows = vectors, columns = clusters.

    ``||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2``, clipped at 0 against
    rounding, evaluated in place in one ``(n, K)`` array: ``out`` when given.
    ``sq_norms`` are the rows' squared norms (:func:`_sq_norms`), when the
    caller already has them. Scaling the product by -2 after the matmul
    rather than before is exact, so the values do not depend on ``out``.
    """
    # the memory layout picks the BLAS kernel: keep the one rows always had
    matrix = np.ascontiguousarray(matrix)
    if sq_norms is None:
        sq_norms = _sq_norms(matrix)
    d = np.matmul(matrix, centroids.T, out=out)
    d *= -2.0
    d += sq_norms[:, None]
    d += _sq_norms(centroids)[None, :]
    np.maximum(d, 0.0, out=d)
    return np.sqrt(d, out=d)


# ---------------------------------------------------------------------------
# K-means
# ---------------------------------------------------------------------------

def _kmeanspp_init(
    x: np.ndarray, sq_norms: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii, SODA 2007).

    The first centroid is a uniform draw. Each next one is drawn with
    probability proportional to the squared distance to the nearest centroid
    chosen so far; when every point coincides with a chosen centroid, the
    draw is uniform again.

    Each new centroid's squared distances come in expanded form, one matvec
    against the cached ``sq_norms`` clamped at 0, rather than from an
    ``(n, dim)`` difference matrix. A row whose expanded value is within its
    rounding bound ``_EXPANDED_ROUNDING * (dim + 2) * eps * (||x||^2 +
    ||c||^2)`` of 0 may be an exact copy of the centroid, and is recomputed
    from the difference: a point equal to a chosen centroid therefore gets
    exactly 0, as in the direct form. Every other distance differs from the
    direct form ``((x - c) ** 2).sum(axis=1)`` only in its last bits, and each
    draw consumes the same random numbers. A different index than the direct
    form would pick can only come from a uniform draw that falls within that
    rounding of a cumulative-probability boundary.
    """
    n, dim = x.shape
    centroids = np.empty((k, dim), dtype=np.float64)
    rounding = _EXPANDED_ROUNDING * (dim + 2) * np.finfo(np.float64).eps
    norm_bound = rounding * sq_norms
    d2 = np.empty(n, dtype=np.float64)
    new = np.empty(n, dtype=np.float64)
    idx = int(rng.integers(n))
    for j in range(k):
        if j:
            total = float(d2.sum())
            if total <= 0.0:
                idx = int(rng.integers(n))
            else:
                idx = int(rng.choice(n, p=d2 / total))
        c = centroids[j] = x[idx]
        if j == k - 1:
            break
        dist = d2 if j == 0 else new
        np.matmul(x, c, out=dist)
        dist *= -2.0
        dist += sq_norms
        dist += sq_norms[idx]
        np.maximum(dist, 0.0, out=dist)
        near = np.flatnonzero(dist <= norm_bound + rounding * sq_norms[idx])
        if near.size:
            diff = x[near] - c
            dist[near] = (diff * diff).sum(axis=1)
        if j:
            np.minimum(d2, new, out=d2)
    return centroids


def kmeans_objective(matrix: np.ndarray, centroids: np.ndarray) -> float:
    """Sum of squared distances from each vector to its nearest centroid."""
    d = centroid_distances(matrix, centroids)
    return float((d.min(axis=1) ** 2).sum())


def kmeans_train(
    pool: np.ndarray,
    k: int,
    max_iters: int,
    seed: int,
    trace: Optional[List[float]] = None,
) -> np.ndarray:
    """Fit K centroids to the ``(n, dim)`` pool with seeded K-means.

    Initialization is k-means++ driven entirely by ``seed``; iteration is
    Lloyd's algorithm until the assignment reaches a fixpoint or
    ``max_iters`` passes. A cluster left empty by an assignment step is
    reseeded with the point currently farthest from its own centroid (taken
    from a cluster that keeps at least one member), so every centroid always
    has support. The whole procedure is deterministic in (pool, k, seed).

    ``trace``, when given, receives the objective after every update step;
    it is non-increasing.

    Raises:
        PoolTooSmall: ``k < 1``, or fewer pool vectors than ``k``.
        LengthMismatch: ``pool`` is not a finite matrix, or its norms overflow.
    """
    if k < 1:
        raise PoolTooSmall(f"k must be >= 1, got {k}")
    if np.iterable(pool) and len(pool) < k:
        raise PoolTooSmall(f"pool of {len(pool)} vectors cannot support {k} clusters")
    [x] = check_arrays(locals(), LengthMismatch, pool=(float, None, None))
    x = np.ascontiguousarray(x)
    n = x.shape[0]

    with np.errstate(over="ignore"):
        sq_norms = _sq_norms(x)
        # a squared distance is at most 2 ||x||^2 + 2 ||c||^2: every sum the fit forms is less
        bound = 4.0 * (n + 1) * sq_norms.sum()
    if not np.isfinite(bound):
        raise LengthMismatch("pool's squared row norms overflow float64")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    centroids = _kmeanspp_init(x, sq_norms, k, rng)

    d = np.empty((n, k), dtype=np.float64)  # every iteration's distances
    prev_assign: Optional[np.ndarray] = None
    for _ in range(max_iters):
        centroid_distances(x, centroids, sq_norms, out=d)
        assign = d.argmin(axis=1)  # ties resolve to the smallest index

        counts = np.bincount(assign, minlength=k)
        if (counts == 0).any():
            own = d[np.arange(n), assign]
            for empty in np.flatnonzero(counts == 0):
                # n >= k: each empty cluster leaves another with two or more members
                cand = np.where(counts[assign] >= 2, own, -np.inf)
                far = int(cand.argmax())
                counts[assign[far]] -= 1
                assign[far] = empty
                counts[empty] = 1
                own[far] = -np.inf  # each reseed takes a distinct point

        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign

        # a stable sort keeps each cluster's members in pool order, so every
        # slice averages the same rows in the same order as x[assign == j]
        members = x[np.argsort(assign, kind="stable")]
        ends = np.cumsum(counts)
        for j, (lo, hi) in enumerate(zip((ends - counts).tolist(), ends.tolist())):
            centroids[j] = members[lo:hi].mean(axis=0)
        if trace is not None:
            trace.append(kmeans_objective(x, centroids))

    return centroids


# ---------------------------------------------------------------------------
# boundary radii, assignment, cardinalities
# ---------------------------------------------------------------------------

def estimate_radii(d: np.ndarray, n_boundary: int) -> np.ndarray:
    """Boundary radius per cluster: mean distance of its nearest outsiders.

    ``d`` is the pool's ``(n, K)`` :func:`centroid_distances` matrix. For
    cluster j, take every pool vector plainly assigned elsewhere, sort
    their distances to centroid j ascending, and average the smallest
    ``n_boundary`` (or all of them when fewer exist).

    Raises:
        DegeneratePool: some cluster has no external vector at all.
    """
    assign = d.argmin(axis=1)
    k = d.shape[1]
    radii = np.empty(k, dtype=np.float64)
    for j in range(k):
        external = d[assign != j, j]
        if external.size == 0:
            raise DegeneratePool(
                f"cluster {j} has no external pool vectors to place its boundary"
            )
        external = np.sort(external)
        radii[j] = float(external[: min(n_boundary, external.size)].mean())
    return radii


def cluster_cardinalities(d: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """How many pool vectors each cluster claims under adjusted assignment.

    ``d`` is the pool's ``(n, K)`` :func:`centroid_distances` matrix.
    """
    adj = d - radii[None, :]
    return np.bincount(adj.argmin(axis=1), minlength=d.shape[1])


def cardinality_weights(cardinalities: np.ndarray) -> np.ndarray:
    """Affine map of cardinalities onto [0, 1], rarest cluster weighing 1.

    When every cluster has the same cardinality there is nothing to rank and
    all weights are 1.
    """
    lo, hi = float(cardinalities.min()), float(cardinalities.max())
    if hi == lo:
        return np.ones(cardinalities.shape)
    return 1.0 - (cardinalities - lo) / (hi - lo)


# ---------------------------------------------------------------------------
# conversion
# ---------------------------------------------------------------------------

def encode_bitstring(
    d: np.ndarray,
    radii: np.ndarray,
    tau_s: float,
    top_t: int,
    gate_all: bool,
) -> BitString:
    """Convert one impression into a K-bit string.

    ``d`` is the impression's ``(n, K)`` :func:`centroid_distances` matrix
    and ``radii`` the codebook's. Each vector ranks clusters by adjusted
    distance and nominates the best ``top_t``. With ``gate_all`` every
    nominated cluster's bit is set only when its own adjusted distance is
    below ``tau_s``; without it just the rank-1 nomination is gated and the
    rest are set outright. The three conversion parameters are the config's
    ``tau_s``, ``top_t`` and ``gate_all``. An impression with no vectors
    maps to the all-zero string.
    """
    bits = np.zeros(d.shape[1], dtype=bool)
    adj = d - radii[None, :]
    # ties in adjusted distance nominate the smaller cluster index first
    nominated = np.argsort(adj, axis=1, kind="stable")[:, :top_t]
    passes = np.take_along_axis(adj, nominated, axis=1) < tau_s
    if not gate_all:
        passes[:, 1:] = True
    bits[nominated[passes]] = True
    return BitString(bits)


def distance_vector(d: np.ndarray) -> DistanceVector:
    """Nearest plain distance from any of the impression's vectors, per cluster.

    ``d`` is the impression's ``(n, K)`` :func:`centroid_distances` matrix,
    ``n >= 1``.
    """
    return DistanceVector(d.min(axis=0))


def global_mean(groups: Iterable[np.ndarray]) -> np.ndarray:
    """Two-stage mean of distance vectors: within finger, then across fingers.

    ``groups`` holds one ``(n_f, K)`` distance matrix per finger, a row per
    impression. Each finger contributes its row mean regardless of how many
    impressions it has, so heavily sampled fingers do not dominate.
    """
    return np.mean([rows.mean(axis=0) for rows in groups], axis=0)
