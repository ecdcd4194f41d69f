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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegeneratePool,
    EmptyImage,
    EmptyTrainingSet,
    LengthMismatch,
    PoolTooSmall,
)
from .subspace_fusion import FusedVector, stack_fused

GATE_PER_CANDIDATE = "per-candidate"
GATE_BEST_ONLY = "best-only"


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

class BitString:
    """Fixed-length binary template.

    ``template_length`` is the length the string had before any folding, so
    two strings are only ever compared when both their current and original
    lengths agree.
    """

    __slots__ = ("bits", "template_length")

    def __init__(self, bits: np.ndarray, template_length: Optional[int] = None):
        self.bits = np.asarray(bits, dtype=bool).ravel()
        self.template_length = (
            int(template_length) if template_length is not None else self.bits.shape[0]
        )

    def __len__(self) -> int:
        return self.bits.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return (
            self.template_length == other.template_length
            and len(self) == len(other)
            and bool(np.array_equal(self.bits, other.bits))
        )

    def __repr__(self) -> str:
        return f"BitString({self.ones}/{len(self)} set, template_length={self.template_length})"

    @property
    def ones(self) -> int:
        """Number of set bits."""
        return int(self.bits.sum())


@dataclass
class DistanceVector:
    """Per-impression nearest plain distance to every cluster centroid."""

    values: np.ndarray
    subject_id: str = ""
    impression_id: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass
class Codebook:
    """Trained cluster vocabulary plus everything bit conversion needs."""

    centroids: np.ndarray  # (K, dim)
    radii: np.ndarray  # (K,)
    cardinalities: np.ndarray  # (K,) int
    weights: np.ndarray  # (K,) in [0, 1]
    tau_s: float
    top_t: int
    n_boundary: int
    global_mean: Optional[np.ndarray] = None  # (K,), set once training data is seen

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


def _distances(matrix: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Plain Euclidean distance matrix, rows = vectors, columns = clusters."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2, clipped against rounding
    sq = (
        (matrix * matrix).sum(axis=1)[:, None]
        - 2.0 * matrix @ centroids.T
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return np.sqrt(np.maximum(sq, 0.0))


# ---------------------------------------------------------------------------
# K-means
# ---------------------------------------------------------------------------

def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


def kmeans_objective(matrix: np.ndarray, centroids: np.ndarray) -> float:
    """Sum of squared distances from each vector to its nearest centroid."""
    d = _distances(matrix, centroids)
    return float((d.min(axis=1) ** 2).sum())


def kmeans_train(
    pool: Sequence[FusedVector] | np.ndarray,
    k: int,
    max_iters: int = 100,
    seed: int = 0,
    trace: Optional[List[float]] = None,
) -> np.ndarray:
    """Fit K centroids to the pool with seeded K-means.

    Initialization is k-means++ driven entirely by ``seed``; iteration is
    Lloyd's algorithm until the assignment reaches a fixpoint or
    ``max_iters`` passes. A cluster left empty by an assignment step is
    reseeded with the point currently farthest from its own centroid (taken
    from a cluster that keeps at least one member), so every centroid always
    has support. The whole procedure is deterministic in (pool, k, seed).

    ``trace``, when given, receives the objective after every update step;
    it is non-increasing.
    """
    x = stack_fused(pool)
    n = x.shape[0]
    if k < 1:
        raise PoolTooSmall(f"k must be >= 1, got {k}")
    if n < k:
        raise PoolTooSmall(f"pool of {n} vectors cannot support {k} clusters")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    centroids = _kmeanspp_init(x, k, rng)

    prev_assign: Optional[np.ndarray] = None
    for _ in range(max_iters):
        d = _distances(x, centroids)
        assign = d.argmin(axis=1)  # ties resolve to the smallest index

        counts = np.bincount(assign, minlength=k)
        if (counts == 0).any():
            own = d[np.arange(n), assign].copy()
            for empty in np.flatnonzero(counts == 0):
                eligible = counts[assign] >= 2
                if not eligible.any():
                    break  # cannot happen while n >= k, kept as a guard
                cand = np.where(eligible, own, -np.inf)
                far = int(cand.argmax())
                counts[assign[far]] -= 1
                assign[far] = empty
                counts[empty] = 1
                own[far] = -np.inf  # each reseed takes a distinct point

        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign

        for j in range(k):
            centroids[j] = x[assign == j].mean(axis=0)
        if trace is not None:
            trace.append(kmeans_objective(x, centroids))

    return centroids


# ---------------------------------------------------------------------------
# boundary radii, assignment, cardinalities
# ---------------------------------------------------------------------------

def estimate_radii(
    pool: Sequence[FusedVector] | np.ndarray,
    centroids: np.ndarray,
    n_boundary: int = 300,
) -> np.ndarray:
    """Boundary radius per cluster: mean distance of its nearest outsiders.

    For cluster d, take every pool vector plainly assigned elsewhere, sort
    their distances to centroid d ascending, and average the smallest
    ``n_boundary`` (or all of them when fewer exist).

    Raises:
        DegeneratePool: some cluster has no external vector at all.
    """
    x = stack_fused(pool)
    if n_boundary < 1:
        raise ValueError(f"n_boundary must be >= 1, got {n_boundary}")
    d = _distances(x, centroids)
    assign = d.argmin(axis=1)
    k = centroids.shape[0]
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


def nearest_cluster(
    vector: np.ndarray | FusedVector,
    centroids: np.ndarray,
    radii: np.ndarray,
) -> Tuple[int, float]:
    """Radius-adjusted nearest cluster: argmin of distance minus radius.

    Subtracting the boundary radius lets a wide cluster claim a vector that
    is absolutely nearer to a tight one. Ties resolve to the smallest index.
    Returns ``(cluster_index, adjusted_distance)``.
    """
    v = vector.values if isinstance(vector, FusedVector) else np.asarray(vector)
    adj = _distances(v.reshape(1, -1).astype(np.float64), centroids)[0] - radii
    best = int(adj.argmin())
    return best, float(adj[best])


def cluster_cardinalities(
    pool: Sequence[FusedVector] | np.ndarray,
    centroids: np.ndarray,
    radii: np.ndarray,
) -> np.ndarray:
    """How many pool vectors each cluster claims under adjusted assignment."""
    x = stack_fused(pool)
    adj = _distances(x, centroids) - radii[None, :]
    return np.bincount(adj.argmin(axis=1), minlength=centroids.shape[0])


def cardinality_weights(cardinalities: np.ndarray) -> np.ndarray:
    """Affine map of cardinalities onto [0, 1], rarest cluster weighing 1.

    When every cluster has the same cardinality there is nothing to rank and
    all weights are 1.
    """
    h = np.asarray(cardinalities, dtype=np.float64)
    lo, hi = float(h.min()), float(h.max())
    if hi == lo:
        return np.ones_like(h)
    return 1.0 - (h - lo) / (hi - lo)


# ---------------------------------------------------------------------------
# conversion
# ---------------------------------------------------------------------------

def encode_bitstring(
    vectors: Sequence[FusedVector] | np.ndarray,
    codebook: Codebook,
    gate_mode: str = GATE_PER_CANDIDATE,
) -> BitString:
    """Convert one impression's fused vectors into a K-bit string.

    Each vector ranks clusters by adjusted distance and nominates the best
    ``top_t``. In ``per-candidate`` mode every nominated cluster's bit is set
    only when its own adjusted distance is below ``tau_s``; in ``best-only``
    mode just the rank-1 nomination is gated and the rest are set outright.
    An impression with no vectors maps to the all-zero string.
    """
    if gate_mode not in (GATE_PER_CANDIDATE, GATE_BEST_ONLY):
        raise ValueError(f"unknown gate mode {gate_mode!r}")
    bits = np.zeros(codebook.k, dtype=bool)
    x = stack_fused(vectors)
    if x.size == 0:
        return BitString(bits)
    adj = _distances(x, codebook.centroids) - codebook.radii[None, :]
    # ties in adjusted distance nominate the smaller cluster index first
    nominated = np.argsort(adj, axis=1, kind="stable")[:, : codebook.top_t]
    passes = np.take_along_axis(adj, nominated, axis=1) < codebook.tau_s
    if gate_mode == GATE_BEST_ONLY:
        passes[:, 1:] = True
    bits[nominated[passes]] = True
    return BitString(bits)


def distance_vector(
    vectors: Sequence[FusedVector] | np.ndarray,
    codebook: Codebook,
    subject_id: str = "",
    impression_id: str = "",
) -> DistanceVector:
    """Nearest plain distance from any of the impression's vectors, per cluster.

    Raises:
        EmptyImage: the impression produced no fused vectors.
    """
    x = stack_fused(vectors)
    if x.size == 0:
        raise EmptyImage("impression has no fused vectors to measure")
    d = _distances(x, codebook.centroids)
    return DistanceVector(d.min(axis=0), subject_id, impression_id)


def global_mean(groups: Iterable[Sequence[DistanceVector]]) -> np.ndarray:
    """Two-stage mean of distance vectors: within finger, then across fingers.

    Each finger contributes one averaged vector regardless of how many
    impressions it has, so heavily sampled fingers do not dominate.

    Raises:
        EmptyTrainingSet: no groups, or a group with no vectors.
        LengthMismatch: vectors of different lengths are mixed.
    """
    finger_means: List[np.ndarray] = []
    length: Optional[int] = None
    for i, group in enumerate(groups):
        vals = [dv.values for dv in group]
        if not vals:
            raise EmptyTrainingSet(f"finger group {i} has no distance vectors")
        for v in vals:
            if length is None:
                length = v.shape[0]
            elif v.shape[0] != length:
                raise LengthMismatch(
                    f"distance vector length {v.shape[0]} != {length}"
                )
        finger_means.append(np.mean(vals, axis=0))
    if not finger_means:
        raise EmptyTrainingSet("no finger groups supplied")
    return np.mean(finger_means, axis=0)
