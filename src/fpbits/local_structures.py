"""Per-minutia local structure descriptors.

Two fixed-length real vectors are extracted around every minutia, both in a
coordinate frame translated to the minutia and rotated by its direction so
the result is invariant to rigid motion of the whole impression:

* the minutia descriptor: a rasterized sum of one anisotropic 2-d Gaussian
  bump per neighboring minutia, L2-normalized, sampled over a disc lattice
  shrunk by an area downscale factor;
* the texture descriptor: the normalized gray image sampled bilinearly over
  a disc lattice around the minutia.

Lattice points are enumerated row-major (by y, then x), and the two lattices
live in the geometry object so every descriptor in a system shares one
ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .template_io import GrayImage, Minutia


@dataclass(frozen=True)
class SpreadModel:
    """Gaussian bump spreads as linear functions of neighbor distance.

    The tangential spread (across the center-to-neighbor ray) grows at least
    as fast as the radial spread (along it), so far bumps blur more in the
    direction a neighbor's position is least certain in.
    """

    sigma_t0: float = 3.0
    sigma_t_slope: float = 0.05
    sigma_r0: float = 3.0
    sigma_r_slope: float = 0.02

    def __post_init__(self):
        for name in ("sigma_t0", "sigma_t_slope", "sigma_r0", "sigma_r_slope"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.sigma_t_slope < self.sigma_r_slope:
            raise ValueError("tangential slope must be >= radial slope")

    def sigma_at(self, rho: float) -> Tuple[float, float]:
        """(tangential, radial) spread for a neighbor at distance ``rho``."""
        return (
            self.sigma_t0 + self.sigma_t_slope * rho,
            self.sigma_r0 + self.sigma_r_slope * rho,
        )


def _disc_lattice(radius: float) -> np.ndarray:
    """Integer points with x^2 + y^2 <= radius^2, row-major by y then x."""
    r = int(math.floor(radius))
    pts = []
    r2 = radius * radius
    for y in range(-r, r + 1):
        for x in range(-r, r + 1):
            if x * x + y * y <= r2:
                pts.append((x, y))
    return np.array(pts, dtype=np.int64).reshape(-1, 2)


@dataclass(frozen=True)
class StructureGeometry:
    """Shared disc lattices and radii for both descriptor families.

    ``lattice_m`` covers the minutia-descriptor disc after area downscaling
    (radius ``r_m / sqrt(downscale_area)``), ``lattice_t`` the texture disc at
    full resolution (radius ``r_t``). Descriptor lengths are the lattice
    point counts; they are properties of the lattice, not configured.
    """

    r_m: float
    r_t: float
    downscale_area: float
    lattice_m: np.ndarray = field(repr=False)
    lattice_t: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, r_m: float, r_t: float, downscale_area: float) -> "StructureGeometry":
        if r_m <= 0 or r_t <= 0:
            raise ValueError("structure radii must be > 0")
        if downscale_area < 1.0:
            raise ValueError("downscale_area must be >= 1")
        scale = 1.0 / math.sqrt(downscale_area)
        return cls(
            r_m=float(r_m),
            r_t=float(r_t),
            downscale_area=float(downscale_area),
            lattice_m=_disc_lattice(r_m * scale),
            lattice_t=_disc_lattice(r_t),
        )

    @property
    def n_m(self) -> int:
        return self.lattice_m.shape[0]

    @property
    def n_t(self) -> int:
        return self.lattice_t.shape[0]

    @property
    def position_scale(self) -> float:
        return 1.0 / math.sqrt(self.downscale_area)


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
    spread: SpreadModel,
) -> np.ndarray:
    """Minutia-descriptor vector for ``ref`` within its impression.

    Every other minutia whose center distance is at most ``r_m`` contributes
    one Gaussian bump at its local-frame position, oriented across the
    center-to-neighbor ray (tangentially), with spreads from ``spread`` at
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
        if rho > geometry.r_m:
            continue
        sig_t, sig_r = spread.sigma_at(rho)
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


# Block sizes, in float64 elements, of the (rows x lattice points) temporaries
# of the matrix extractors. They bound memory on dense templates and keep the
# temporaries cache-resident; texture blocks also stay under the allocator's
# default mmap threshold (128 KiB), so they are not page-faulted in afresh.
_MBLS_BLOCK_ELEMENTS = 1 << 16
_TBLS_BLOCK_ELEMENTS = 1 << 14


def _minutia_arrays(minutiae: Sequence[Minutia]) -> Tuple[np.ndarray, ...]:
    """Positions plus direction cosines/sines, the latter via ``math`` per minutia."""
    x = np.array([m.x for m in minutiae], dtype=np.float64)
    y = np.array([m.y for m in minutiae], dtype=np.float64)
    cos = np.array([math.cos(m.theta) for m in minutiae], dtype=np.float64)
    sin = np.array([math.sin(m.theta) for m in minutiae], dtype=np.float64)
    return x, y, cos, sin


def mbls_matrix(
    minutiae: Sequence[Minutia],
    geometry: StructureGeometry,
    spread: SpreadModel,
) -> np.ndarray:
    """Minutia descriptors of a whole impression, one row per minutia.

    Row ``i`` is :func:`build_mbls` of ``minutiae[i]`` up to rounding. Every
    (reference, neighbor) pair within ``r_m`` is found at once; each bump's
    exponent ``a dx^2 + 2b dx dy + c dy^2`` is expanded into six per-pair
    coefficients against the fixed lattice monomials
    ``[X^2, XY, Y^2, X, Y, 1]``, so all bumps of a block of pairs come from a
    single matrix product. The expansion rounds differently from the direct
    form; the error is about float64 eps times ``r_m^2 / (2 sigma_r0^2)``.
    """
    out = np.zeros((len(minutiae), geometry.n_m), dtype=np.float64)
    x, y, cos, sin = _minutia_arrays(minutiae)
    dx = x[None, :] - x[:, None]
    dy = y[None, :] - y[:, None]
    rho = np.hypot(dx, dy)
    near = rho <= geometry.r_m
    np.fill_diagonal(near, False)
    ref, nbr = np.nonzero(near)  # grouped by reference, neighbors in order
    if ref.size == 0:
        return out

    dx = dx[ref, nbr]
    dy = dy[ref, nbr]
    rho = rho[ref, nbr]
    c, s = cos[ref], sin[ref]
    u = c * dx + s * dy
    v = -s * dx + c * dy
    scale = geometry.position_scale
    mx = u * scale
    my = v * scale
    sig_t = (spread.sigma_t0 + spread.sigma_t_slope * rho) * scale
    sig_r = (spread.sigma_r0 + spread.sigma_r_slope * rho) * scale
    theta_i = np.arctan2(v, u) + math.pi / 2.0

    # the quadratic form of gaussian_response, per pair
    sx2 = 2.0 * sig_t * sig_t
    sy2 = 2.0 * sig_r * sig_r
    cos_t, sin_t = np.cos(theta_i), np.sin(theta_i)
    sin_2t = np.sin(2.0 * theta_i)
    a = cos_t * cos_t / sx2 + sin_t * sin_t / sy2
    b = -sin_2t / (2.0 * sx2) + sin_2t / (2.0 * sy2)
    cq = sin_t * sin_t / sx2 + cos_t * cos_t / sy2
    # negated, so the product is the exponent itself
    coeffs = -np.stack(
        [
            a,
            2.0 * b,
            cq,
            -2.0 * (a * mx + b * my),
            -2.0 * (b * mx + cq * my),
            a * mx * mx + 2.0 * b * mx * my + cq * my * my,
        ],
        axis=1,
    )
    lat = geometry.lattice_m.astype(np.float64)
    lx, ly = lat[:, 0], lat[:, 1]
    basis = np.stack([lx * lx, lx * ly, ly * ly, lx, ly, np.ones_like(lx)])

    step = max(1, _MBLS_BLOCK_ELEMENTS // geometry.n_m)
    for lo in range(0, ref.size, step):
        hi = min(lo + step, ref.size)
        bumps = coeffs[lo:hi] @ basis
        np.exp(bumps, out=bumps)
        block_ref = ref[lo:hi]
        starts = np.flatnonzero(np.r_[True, block_ref[1:] != block_ref[:-1]])
        out[block_ref[starts]] += np.add.reduceat(bumps, starts, axis=0)

    norms = np.sqrt(np.einsum("ij,ij->i", out, out))
    return np.divide(out, norms[:, None], out=out, where=norms[:, None] > 0.0)


def mbls_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two minutia-descriptor vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"descriptor shapes differ: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def normalize_image(
    image: GrayImage, target_mean: float = 0.0, target_std: float = 1.0
) -> np.ndarray:
    """Affinely map an image to a target global mean and std.

    Returns a float array of the image's shape. A constant image maps to
    ``target_mean`` everywhere.
    """
    px = image.pixels.astype(np.float64)
    mean = float(px.mean())
    std = float(px.std())
    if std == 0.0:
        return np.full_like(px, target_mean)
    return (px - mean) / std * target_std + target_mean


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


def tbls_matrix(
    minutiae: Sequence[Minutia],
    image: np.ndarray,
    geometry: StructureGeometry,
    fill: float = 0.0,
) -> np.ndarray:
    """Texture descriptors of a whole impression, one row per minutia.

    Row ``i`` equals :func:`extract_tbls` of ``minutiae[i]`` exactly: the
    sample coordinates are formed with the same operations in the same
    order. Rows are sampled a few at a time so the temporaries stay in cache.
    """
    n = len(minutiae)
    out = np.empty((n, geometry.n_t), dtype=np.float64)
    img = np.asarray(image, dtype=np.float64)
    x, y, cos, sin = _minutia_arrays(minutiae)
    lat = geometry.lattice_t.astype(np.float64)
    lx, ly = lat[:, 0], lat[:, 1]
    step = max(1, _TBLS_BLOCK_ELEMENTS // geometry.n_t)
    for lo in range(0, n, step):
        rows = slice(lo, min(lo + step, n))
        c, s = cos[rows, None], sin[rows, None]
        xs = x[rows, None] + lx * c - ly * s
        ys = y[rows, None] + lx * s + ly * c
        out[rows] = bilinear_sample(img, xs, ys, fill)
    return out
