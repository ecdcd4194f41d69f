"""Slow-path oracles that the tests compare the production code against.

Each stage has one implementation in ``fpbits``, and it works on matrices.
The forms here are the ones it replaced, kept so that every exactness test
compares the production path with an independent computation, never with
itself. The public one-row views in ``fpbits`` (``build_mbls``,
``extract_tbls``, ``fuse``, ``intersection_score``, ``masked_score`` and
``fvc_pairs``) call the matrix path, so no test may use them as oracles.

* The object form of a minutia: the frozen ``Minutia``, whose direction
  ``wrap_angle`` maps onto [0, 2*pi) with ``math.fmod`` one angle at a time.
  ``minutia_array`` and ``minutia_objects`` convert between it and a
  template's ``MINUTIA_DTYPE`` rows. ``fpbits.template_io.MinutiaTemplate``
  must wrap every direction as ``wrap_angle`` does, bit for bit.
* The per-minutia descriptors: ``local_frame``, ``gaussian_response`` and
  ``build_mbls`` rasterize one bump at a time in direct form.
  ``fpbits.local_structures.mbls_matrix`` must match ``build_mbls`` row by
  row within ``MBLS_TOL`` (its expanded exponent rounds differently).
  ``bilinear_sample`` and ``extract_tbls`` sample one minutia's disc through
  the off-grid mask; ``tbls_matrix`` must equal ``extract_tbls`` at
  ``fill = 0.0`` bit for bit.
* The per-vector subspace forms: ``project_vector``, ``znorm`` and ``fuse``.
  ``project`` and ``fuse_matrix`` must match them row by row within the
  rounding of a different summation order.
* The one-pair bit scorers ``intersection_score`` and ``masked_score``,
  with their own length checks. ``intersection_scores`` and
  ``masked_scores`` must give bit-identical values and common-bit counts.
* The loop form of ``fvc_pairs``. ``fvc_pair_rows`` must list the same
  attempts in the same order.
* The k-means solver's former implementations: the direct-form k-means++
  seeding and the Lloyd loop that recomputes its distance matrix and boolean
  member masks every iteration. ``fpbits.codebook.kmeans_train`` must
  reproduce them bit for bit.
* The one-pass fit: ``train_model_oracle`` extracts every descriptor row of
  both families into two full matrices, fits each subspace on a copied row
  subsample and projects each impression's rows with ``project``, as
  ``encode`` does. ``fpbits.pipeline.train_model`` must save the same bytes
  when every row is subsampled.
* The per-object bit training: ``interclass_variance`` and ``reliability``
  loop over one finger's ``DistanceVector`` and ``BitString`` objects,
  ``global_mean`` over each finger's list of distance vectors, and
  ``enrolled_reference`` ORs the enrollment strings one at a time.
  ``fpbits.bit_training`` and ``fpbits.codebook.global_mean`` work on
  ``(n, K)`` matrices and must give identical arrays, as must the reference
  ``fpbits.pipeline.enroll_subject`` builds.
* The dict-of-matrices ``lgs`` evaluation: ``evaluate_fvc_lgs_oracle``
  extracts every impression's fused matrix in sorted key order, then scores
  each attempt through ``lgs_match``, the config-bound ``lgs_score``.
  ``fpbits.pipeline.evaluate_fvc_lgs`` must give identical score arrays.
* The vector-taking codebook statistics ``estimate_radii``,
  ``cluster_cardinalities``, ``encode_bitstring`` and ``distance_vector``,
  each computing its own distance matrix, and the sorted-greedy
  ``lgs_score``, which ranks all cross distances with a stable argsort and
  skips used vectors. The ``fpbits.codebook`` stages read one
  ``centroid_distances`` matrix and must give identical arrays;
  ``fpbits.matching.lgs_score`` picks by argmin and must return an equal
  ``MatchScore``. ``train_model_oracle`` and ``lgs_match`` call these forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from fpbits.bit_training import FingerModel
from fpbits.codebook import (
    BitString,
    Codebook,
    DistanceVector,
    centroid_distances,
    kmeans_train,
)
from fpbits.config import PipelineConfig
from fpbits.errors import (
    DegeneratePool,
    EmptyEnrollment,
    EmptyImage,
    EmptyScores,
    EmptyTrainingSet,
    LengthMismatch,
    PoolTooSmall,
)
from fpbits.local_structures import StructureGeometry
from fpbits.matching import KIND_INTERSECTION, KIND_LGS, MatchScore, lgs_pair_budget
from fpbits.model_store import PipelineModel
from fpbits.pipeline import (
    _STREAM_PCA_SUBSAMPLE,
    DatasetDict,
    _grid_keys,
    fused_vectors,
    raw_structures,
)
from fpbits.protocol import (
    POLARITY_DISSIMILARITY,
    Pair,
    ProtocolReport,
    compute_eer,
    fvc_pair_rows,
)
from fpbits.subspace_fusion import PcaModel, fuse_matrix, project, train_pca_inplace
from fpbits.synth import (
    _STREAM_IMPRESSION,
    _STREAM_NOISE,
    OrientationField,
    SubjectMaster,
    SynthParams,
    _transform_point,
    impression_id,
    keyed_rng,
    make_master,
    subject_id,
)
from fpbits.template_io import MINUTIA_DTYPE, TWO_PI, GrayImage, MinutiaTemplate


# ---------------------------------------------------------------------------
# the object form of a minutia
# ---------------------------------------------------------------------------

def wrap_angle(theta: float) -> float:
    """Map an angle in radians onto [0, 2*pi)."""
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    # fmod can round back up to the period itself for tiny negatives
    if theta >= TWO_PI:
        theta = 0.0
    return theta


@dataclass(frozen=True)
class Minutia:
    """One minutia point: position in pixels, direction in radians, kind letter.

    ``theta`` is stored wrapped onto [0, 2*pi), as a template stores it.
    """

    x: float
    y: float
    theta: float
    kind: str = "O"
    quality: int = 0

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(self.theta))


def minutia_array(minutiae: Sequence[Minutia]) -> np.ndarray:
    """The ``MINUTIA_DTYPE`` rows of object-form minutiae, in order."""
    rows = [(m.x, m.y, m.theta, m.kind, m.quality) for m in minutiae]
    return np.array(rows, dtype=MINUTIA_DTYPE)


def minutia_objects(minutiae: np.ndarray) -> List[Minutia]:
    """The object form of each row of a ``MINUTIA_DTYPE`` array."""
    return [Minutia(*row) for row in minutiae.tolist()]


# ---------------------------------------------------------------------------
# per-minutia descriptors
# ---------------------------------------------------------------------------

def local_frame(ref: Minutia, other: Minutia) -> Tuple[float, float, float]:
    """Express ``other``'s position in ``ref``'s local frame.

    The frame is translated to ``ref`` and rotated by ``-ref.theta``, so a
    minutia straight ahead of the reference direction lands on the positive
    u axis. Returns ``(u, v, rho)`` with ``rho`` the Euclidean center
    distance (which rotation leaves unchanged).
    """
    dx = other.x - ref.x
    dy = other.y - ref.y
    c, s = math.cos(ref.theta), math.sin(ref.theta)
    u = c * dx + s * dy
    v = -s * dx + c * dy
    return u, v, math.hypot(dx, dy)


def gaussian_response(
    points: np.ndarray,
    mu: Tuple[float, float],
    sigma: Tuple[float, float],
    theta_i: float,
) -> np.ndarray:
    """Anisotropic 2-d Gaussian bump, evaluated at an (n, 2) point array.

    ``sigma[0]`` spreads along the axis rotated by ``theta_i`` from the
    x axis, ``sigma[1]`` across it. Peak value is 1 at ``mu``; there is no
    normalizing prefactor.
    """
    sx2 = 2.0 * sigma[0] * sigma[0]
    sy2 = 2.0 * sigma[1] * sigma[1]
    cos_t, sin_t = math.cos(theta_i), math.sin(theta_i)
    sin_2t = math.sin(2.0 * theta_i)
    a = cos_t * cos_t / sx2 + sin_t * sin_t / sy2
    b = -sin_2t / (2.0 * sx2) + sin_2t / (2.0 * sy2)
    c = sin_t * sin_t / sx2 + cos_t * cos_t / sy2

    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    dx = pts[:, 0] - mu[0]
    dy = pts[:, 1] - mu[1]
    return np.exp(-(a * dx * dx + 2.0 * b * dx * dy + c * dy * dy))


def build_mbls(
    ref: Minutia,
    minutiae: Sequence[Minutia],
    geometry: StructureGeometry,
) -> np.ndarray:
    """Minutia-descriptor vector for ``ref`` within its impression.

    Every other minutia whose center distance is at most ``r_m`` contributes
    one Gaussian bump at its local-frame position, oriented across the
    center-to-neighbor ray (tangentially), with the geometry's spreads at
    its distance. Positions and spreads are then shrunk by the geometry's
    area downscale and rasterized over ``lattice_m``. The sum is
    L2-normalized; a minutia with no neighbors in range yields a zero vector.
    """
    scale = geometry.position_scale
    lattice = geometry.lattice_m.astype(np.float64)

    acc = np.zeros(geometry.n_m, dtype=np.float64)
    hit = False
    for m in minutiae:
        if m is ref:
            continue
        u, v, rho = local_frame(ref, m)
        if rho > geometry.config.r_m:
            continue
        sig_t = geometry.config.sigma_t0 + geometry.config.sigma_t_slope * rho
        sig_r = geometry.config.sigma_r0 + geometry.config.sigma_r_slope * rho
        theta_i = math.atan2(v, u) + math.pi / 2.0
        acc += gaussian_response(
            lattice,
            (u * scale, v * scale),
            (sig_t * scale, sig_r * scale),
            theta_i,
        )
        hit = True

    if not hit:
        return acc
    return acc / np.linalg.norm(acc)


def bilinear_sample(
    img: np.ndarray, xs: np.ndarray, ys: np.ndarray, fill: float
) -> np.ndarray:
    """Sample ``img`` at real coordinates; points off the pixel grid get ``fill``.

    ``xs`` and ``ys`` may have any (matching) shape; the result has it too.
    Off-grid points are interpolated at the origin and then replaced, so
    every point goes through one flat gather per corner.
    """
    h, w = img.shape
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    inside = (xs >= 0.0) & (xs <= w - 1) & (ys >= 0.0) & (ys <= h - 1)
    if not inside.any():
        return np.full(xs.shape, fill, dtype=np.float64)
    x = np.where(inside, xs, 0.0)
    y = np.where(inside, ys, 0.0)
    # clip the base corner so x0+1 stays a valid column even at the far edge
    x0 = np.minimum(np.floor(x), max(w - 2, 0))
    y0 = np.minimum(np.floor(y), max(h - 2, 0))
    tx = x - x0
    ty = y - y0
    one_tx = 1.0 - tx
    one_ty = 1.0 - ty
    corner = (y0 * w + x0).astype(np.intp)
    step_x = 1 if w > 1 else 0
    step_y = w if h > 1 else 0
    flat = np.ascontiguousarray(img, dtype=np.float64).ravel()

    val = flat.take(corner)
    val *= one_tx
    val *= one_ty
    for offset, wx, wy in (
        (step_x, tx, one_ty),
        (step_y, one_tx, ty),
        (step_x + step_y, tx, ty),
    ):
        term = flat.take(corner + offset)
        term *= wx
        term *= wy
        val += term
    return np.where(inside, val, fill)


def extract_tbls(
    ref: Minutia,
    image: np.ndarray,
    geometry: StructureGeometry,
    fill: float = 0.0,
) -> np.ndarray:
    """Texture-descriptor vector: the disc around ``ref``, direction-aligned.

    Each lattice offset is rotated by ``ref.theta`` and added to the minutia
    position; the (already normalized) image is sampled there bilinearly.
    Samples outside the image take ``fill``, which callers set to the
    normalization target mean so off-image area carries no information.
    """
    c, s = math.cos(ref.theta), math.sin(ref.theta)
    lat = geometry.lattice_t.astype(np.float64)
    xs = ref.x + lat[:, 0] * c - lat[:, 1] * s
    ys = ref.y + lat[:, 0] * s + lat[:, 1] * c
    return bilinear_sample(np.asarray(image, dtype=np.float64), xs, ys, fill)


# ---------------------------------------------------------------------------
# per-vector projection and fusion
# ---------------------------------------------------------------------------

def project_vector(model: PcaModel, vector: np.ndarray) -> np.ndarray:
    """Center one vector on the model mean and project it onto the basis."""
    v = np.asarray(vector, dtype=np.float64).ravel()
    if v.shape[0] != model.dim:
        raise LengthMismatch(f"vector length {v.shape[0]} != model dim {model.dim}")
    return model.basis.T @ (v - model.mean)


def znorm(vector: np.ndarray) -> np.ndarray:
    """Standardize a vector to mean 0, population-std 1 over its own entries.

    A constant vector has no scale to recover and maps to all zeros.
    """
    v = np.asarray(vector, dtype=np.float64).ravel()
    if v.shape[0] < 2:
        raise LengthMismatch(f"z-normalization needs length >= 2, got {v.shape[0]}")
    std = float(v.std())
    if std == 0.0:
        return np.zeros_like(v)
    return (v - v.mean()) / std


def fuse(
    minutia_part: np.ndarray,
    texture_part: np.ndarray,
    weight_m: float,
    weight_t: float,
) -> np.ndarray:
    """Fuse the two projected descriptors of one minutia.

    Both parts are z-normalized independently, scaled by their fusion
    weights, and concatenated (minutia part first). The parts must have the
    same length, so either half can be recovered by position.
    """
    a = np.asarray(minutia_part, dtype=np.float64).ravel()
    b = np.asarray(texture_part, dtype=np.float64).ravel()
    if a.shape[0] != b.shape[0]:
        raise LengthMismatch(
            f"projected parts differ in length: {a.shape[0]} vs {b.shape[0]}"
        )
    return np.concatenate([weight_m * znorm(a), weight_t * znorm(b)])


# ---------------------------------------------------------------------------
# one-pair bit scorers and the pairing loop
# ---------------------------------------------------------------------------

def intersection_score(a: BitString, b: BitString) -> MatchScore:
    """Size-normalized common-bit similarity in [0, 1].

    ``(n_a + n_b) * common / (n_a^2 + n_b^2)`` where ``n_a``/``n_b`` are the
    set-bit counts and ``common`` counts positions set in both. Equal to 1
    exactly for identical strings, 0 for disjoint ones; two empty strings
    share nothing and score 0.

    Raises:
        LengthMismatch: strings of different lengths.
    """
    if len(a) != len(b):
        raise LengthMismatch(f"bit-strings disagree in length: {len(a)} vs {len(b)}")
    n_a = a.ones
    n_b = b.ones
    if n_a == 0 and n_b == 0:
        return MatchScore(value=0.0, kind=KIND_INTERSECTION, support=0)
    common = int(np.logical_and(a.bits, b.bits).sum())
    value = (n_a + n_b) * common / (n_a * n_a + n_b * n_b)
    return MatchScore(value=float(value), kind=KIND_INTERSECTION, support=common)


def masked_score(query: BitString, finger: FingerModel, mask_both: bool) -> MatchScore:
    """Intersection score against a finger's reference under its trained mask.

    With ``mask_both`` the mask is applied to both strings; without it only
    the enrolled side is restricted (a query from an unknown sensor keeps
    all its bits).

    Raises:
        LengthMismatch: mask length does not fit the strings.
    """
    enrolled = BitString(finger.reference)
    if finger.k != len(query) or finger.k != len(enrolled):
        raise LengthMismatch(
            f"mask of length {finger.k} cannot gate strings of lengths "
            f"{len(query)} and {len(enrolled)}"
        )
    if mask_both:
        query = BitString(query.bits & finger.mask)
    enrolled = BitString(enrolled.bits & finger.mask)
    return intersection_score(query, enrolled)


def fvc_pairs(n_subjects: int, n_impressions: int) -> Tuple[List[Pair], List[Pair]]:
    """Enumerate genuine and impostor attempts over an S x m dataset.

    Subjects and impressions are 0-based indices; callers map them onto ids.
    Returns ``(genuine, impostor)`` where each attempt is
    ``((subject_a, impression_a), (subject_b, impression_b))`` with the
    lexicographically smaller endpoint first.
    """
    if n_subjects < 1 or n_impressions < 1:
        raise EmptyScores(
            f"cannot pair {n_subjects} subjects x {n_impressions} impressions"
        )
    genuine: List[Pair] = []
    for s in range(n_subjects):
        for i in range(n_impressions):
            for j in range(i + 1, n_impressions):
                genuine.append(((s, i), (s, j)))
    impostor: List[Pair] = []
    for a in range(n_subjects):
        for b in range(a + 1, n_subjects):
            impostor.append(((a, 0), (b, 0)))
    return genuine, impostor


# ---------------------------------------------------------------------------
# per-object bit training
# ---------------------------------------------------------------------------

def interclass_variance(
    vectors: Sequence[DistanceVector], population_mean: np.ndarray
) -> np.ndarray:
    """Below-mean spread of a finger's distances, per cluster.

    Only the side where the finger comes *closer* to a cluster than the
    population does carries identity information, so deviations above the
    population mean are clipped to zero before squaring:
    ``mean_j(min(v_j - mu, 0)^2)``.

    Raises:
        EmptyEnrollment: no distance vectors supplied.
    """
    if len(vectors) == 0:
        raise EmptyEnrollment("interclass variance needs at least one impression")
    mu = np.asarray(population_mean, dtype=np.float64).ravel()
    acc = np.zeros_like(mu)
    for dv in vectors:
        if dv.values.shape[0] != mu.shape[0]:
            raise LengthMismatch(
                f"distance vector length {dv.values.shape[0]} != mean length {mu.shape[0]}"
            )
        below = np.minimum(dv.values - mu, 0.0)
        acc += below * below
    return acc / len(vectors)


def reliability(bitstrings: Sequence[BitString]) -> np.ndarray:
    """Fraction of enrollment strings that set each bit.

    Raises:
        EmptyEnrollment: no bit-strings supplied.
        LengthMismatch: enrollment strings of differing lengths.
    """
    if len(bitstrings) == 0:
        raise EmptyEnrollment("reliability needs at least one bit-string")
    length = len(bitstrings[0])
    acc = np.zeros(length, dtype=np.float64)
    for bs in bitstrings:
        if len(bs) != length:
            raise LengthMismatch(f"bit-string length {len(bs)} != {length}")
        acc += bs.bits
    return acc / len(bitstrings)


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


def enrolled_reference(bitstrings: Sequence[BitString], k: int) -> BitString:
    """The OR of the enrollment strings, one string at a time."""
    merged = np.zeros(k, dtype=bool)
    for bs in bitstrings:
        merged |= bs.bits
    return BitString(merged)


# ---------------------------------------------------------------------------
# vector-taking codebook statistics and the sorted-greedy lgs
# ---------------------------------------------------------------------------

def estimate_radii(
    pool: np.ndarray,
    centroids: np.ndarray,
    n_boundary: int,
) -> np.ndarray:
    """Boundary radius per cluster: mean distance of its nearest outsiders.

    For cluster d, take every pool vector plainly assigned elsewhere, sort
    their distances to centroid d ascending, and average the smallest
    ``n_boundary`` (or all of them when fewer exist).

    Raises:
        DegeneratePool: some cluster has no external vector at all.
    """
    x = np.asarray(pool, dtype=np.float64)
    d = centroid_distances(x, centroids)
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


def cluster_cardinalities(
    pool: np.ndarray,
    centroids: np.ndarray,
    radii: np.ndarray,
) -> np.ndarray:
    """How many pool vectors each cluster claims under adjusted assignment."""
    adj = centroid_distances(np.asarray(pool, dtype=np.float64), centroids) - radii[None, :]
    return np.bincount(adj.argmin(axis=1), minlength=centroids.shape[0])


def encode_bitstring(
    vectors: np.ndarray,
    codebook: Codebook,
    tau_s: float,
    top_t: int,
    gate_all: bool,
) -> BitString:
    """Convert one impression's ``(n, dim)`` fused matrix into a K-bit string.

    Each vector ranks clusters by adjusted distance and nominates the best
    ``top_t``. With ``gate_all`` every nominated cluster's bit is set only
    when its own adjusted distance is below ``tau_s``; without it just the
    rank-1 nomination is gated and the rest are set outright. The three
    conversion parameters are the config's ``tau_s``, ``top_t`` and
    ``gate_all``. An impression with no vectors maps to the all-zero string.
    """
    bits = np.zeros(codebook.k, dtype=bool)
    x = np.asarray(vectors, dtype=np.float64)
    adj = centroid_distances(x, codebook.centroids) - codebook.radii[None, :]
    # ties in adjusted distance nominate the smaller cluster index first
    nominated = np.argsort(adj, axis=1, kind="stable")[:, :top_t]
    passes = np.take_along_axis(adj, nominated, axis=1) < tau_s
    if not gate_all:
        passes[:, 1:] = True
    bits[nominated[passes]] = True
    return BitString(bits)


def distance_vector(vectors: np.ndarray, codebook: Codebook) -> DistanceVector:
    """Nearest plain distance from any of the impression's vectors, per cluster.

    Raises:
        EmptyImage: the impression produced no fused vectors.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.size == 0:
        raise EmptyImage("impression has no fused vectors to measure")
    d = centroid_distances(x, codebook.centroids)
    return DistanceVector(d.min(axis=0))


def lgs_score(
    vectors_a: np.ndarray,
    vectors_b: np.ndarray,
    min_pairs: int,
    max_pairs: int,
    midpoint: float,
    steepness: float,
) -> MatchScore:
    """Greedy one-to-one comparison of two fused matrices (lower = more similar).

    All cross distances are ranked ascending (ties by vector indices); pairs
    are taken greedily, each vector used at most once, until the budget from
    :func:`lgs_pair_budget` is filled or vectors run out. The score is the
    mean distance of the taken pairs; ``short`` marks an underfilled budget.

    Raises:
        EmptyImage: either side has no vectors.
        LengthMismatch: the two sides' vector lengths differ.
    """
    a = np.asarray(vectors_a, dtype=np.float64)
    b = np.asarray(vectors_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise EmptyImage("an impression with no fused vectors has no lgs score")
    n_a, n_b = a.shape[0], b.shape[0]
    budget = lgs_pair_budget(n_a, n_b, min_pairs, max_pairs, midpoint, steepness)
    if a.shape[1] != b.shape[1]:
        raise LengthMismatch(
            f"fused vector lengths differ: {a.shape[1]} vs {b.shape[1]}"
        )

    diff = a[:, None, :] - b[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    # stable sort on the flattened matrix: distance ascending, ties in
    # (row, column) order
    ia, ib = np.unravel_index(
        np.argsort(dist.ravel(), kind="stable"), (n_a, n_b)
    )

    used_a = np.zeros(n_a, dtype=bool)
    used_b = np.zeros(n_b, dtype=bool)
    picked = []
    for i, j in zip(ia, ib):
        if used_a[i] or used_b[j]:
            continue
        used_a[i] = True
        used_b[j] = True
        picked.append(dist[i, j])
        if len(picked) >= budget:
            break

    value = float(np.mean(picked))
    return MatchScore(
        value=value,
        kind=KIND_LGS,
        support=len(picked),
        short=len(picked) < budget,
    )


# ---------------------------------------------------------------------------
# k-means and the one-pass fit
# ---------------------------------------------------------------------------


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
    counts = [len(items[key][0]) for key in keys]
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
    codebook = Codebook(centroids, radii, cardinalities)
    groups: Dict[str, list] = {}
    offset = 0
    for key, n in zip(keys, counts):
        vals = fused[offset : offset + n]
        offset += n
        if n == 0:
            continue
        groups.setdefault(key[0], []).append(distance_vector(vals, codebook))
    return PipelineModel(
        config=config,
        pca_m=pca_m,
        pca_t=pca_t,
        codebook=codebook,
        population_mean=global_mean([groups[s] for s in sorted(groups.keys())]),
    )


def ridge_texture(
    f_field: OrientationField,
    xs: np.ndarray,
    ys: np.ndarray,
    params: SynthParams,
) -> np.ndarray:
    """Analytic master texture value at master-frame coordinates."""
    phi = f_field.at(xs, ys)
    # oscillate across the local ridge direction
    d = -xs * np.sin(phi) + ys * np.cos(phi)
    return 127.5 + params.ridge_amp * np.sin(2.0 * math.pi * params.ridge_freq * d)


def render_image_oracle(
    master: SubjectMaster,
    params: SynthParams,
    rotation: float,
    translation: Tuple[float, float],
    noise_rng: np.random.Generator | None = None,
) -> GrayImage:
    """Render the master texture under a rigid motion, optionally with noise."""
    w, h = params.width, params.height
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    # invert the motion to find where each output pixel samples the master
    dx = xs - cx - translation[0]
    dy = ys - cy - translation[1]
    c, s = math.cos(rotation), math.sin(rotation)
    xm = c * dx + s * dy + cx
    ym = -s * dx + c * dy + cy
    values = ridge_texture(master.f_field, xm, ym, params)
    if noise_rng is not None and params.noise_std > 0.0:
        values = values + noise_rng.normal(0.0, params.noise_std, size=values.shape)
    return GrayImage(np.clip(np.rint(values), 0, 255).astype(np.uint8))


def make_impression_oracle(
    master: SubjectMaster,
    params: SynthParams,
    subject_index: int,
    impression_index: int,
) -> Tuple[MinutiaTemplate, GrayImage]:
    """One noisy impression of a subject, fully keyed and named by its indices."""
    rng = keyed_rng(params.seed, _STREAM_IMPRESSION, subject_index, impression_index)
    noise_rng = keyed_rng(params.seed, _STREAM_NOISE, subject_index, impression_index)

    rot_max = math.radians(params.rotation_deg)
    rotation = float(rng.uniform(-rot_max, rot_max))
    translation = (
        float(rng.uniform(-params.translation_px, params.translation_px)),
        float(rng.uniform(-params.translation_px, params.translation_px)),
    )

    w, h = params.width, params.height
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    minutiae: List[Minutia] = []
    for m in minutia_objects(master.minutiae):
        if rng.random() < params.dropout:
            continue
        center_dist = math.hypot(m.x - cx, m.y - cy)
        sigma = params.jitter_base + params.jitter_slope * center_dist
        x, y = _transform_point(m.x, m.y, rotation, translation, cx, cy)
        x += float(rng.normal(0.0, sigma))
        y += float(rng.normal(0.0, sigma))
        if not (0.0 <= x < w and 0.0 <= y < h):
            continue
        theta = wrap_angle(m.theta + rotation + float(rng.normal(0.0, 0.03)))
        quality = int(rng.integers(40, 96))
        minutiae.append(Minutia(x, y, theta, m.kind, quality))

    n_insert = int(rng.binomial(len(master.minutiae), params.insertion))
    for _ in range(n_insert):
        x = float(rng.uniform(params.margin, w - params.margin))
        y = float(rng.uniform(params.margin, h - params.margin))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        kind = "T" if rng.random() < 0.5 else "B"
        minutiae.append(Minutia(x, y, wrap_angle(theta), kind, int(rng.integers(20, 60))))

    template = MinutiaTemplate(minutia_array(minutiae), w, h, subject_id(subject_index),
                               impression_id(impression_index))
    image = render_image_oracle(master, params, rotation, translation, noise_rng=noise_rng)
    return template, image


def synth_dataset_oracle(
    params: SynthParams,
) -> Dict[Tuple[str, str], Tuple[MinutiaTemplate, GrayImage]]:
    """Generate the full dataset as {(subject_id, impression_id): (template, image)}."""
    items: Dict[Tuple[str, str], Tuple[MinutiaTemplate, GrayImage]] = {}
    for s in range(params.n_subjects):
        master = make_master(params, s)
        for i in range(params.n_impressions):
            items[(subject_id(s), impression_id(i))] = make_impression_oracle(
                master, params, s, i)
    return items


def lgs_match(
    vectors_a: np.ndarray, vectors_b: np.ndarray, config: PipelineConfig
) -> MatchScore:
    """:func:`~fpbits.matching.lgs_score` with the config's pair-budget parameters."""
    return lgs_score(
        vectors_a,
        vectors_b,
        min_pairs=config.min_nL,
        max_pairs=config.max_nL,
        midpoint=config.mu_P,
        steepness=config.tau_P,
    )


def evaluate_fvc_lgs_oracle(
    items: DatasetDict, model: PipelineModel
) -> ProtocolReport:
    """Competition pairing over fused vectors (dissimilarity)."""
    vectors = {
        key: fused_vectors(items[key][0], items[key][1], model)
        for key in sorted(items.keys())
    }
    keys, n_subjects, n_impressions = _grid_keys(vectors)
    genuine_rows, impostor_rows = fvc_pair_rows(n_subjects, n_impressions)

    def score(a, b) -> float:
        return lgs_match(vectors[keys[a]], vectors[keys[b]], model.config).value

    genuine = [score(a, b) for a, b in genuine_rows.tolist()]
    impostor = [score(a, b) for a, b in impostor_rows.tolist()]
    return compute_eer(genuine, impostor, POLARITY_DISSIMILARITY)
