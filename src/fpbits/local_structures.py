"""Per-minutia local structure descriptors.

Two fixed-length real vectors are extracted around every minutia, both in a
coordinate frame translated to the minutia and rotated by its direction so
the result is invariant to rigid motion of the whole impression. Each family
is extracted for a whole impression at once, one row per minutia
(:func:`mbls_matrix`, :func:`tbls_matrix`):

* the minutia descriptor: a rasterized sum of one anisotropic 2-d Gaussian
  bump per neighboring minutia, L2-normalized, sampled over a disc lattice
  shrunk by an area downscale factor;
* the texture descriptor: the gray image, normalized, sampled bilinearly
  over a disc lattice around the minutia.

Lattice points are enumerated row-major (by y, then x), and the two lattices
live in the geometry object so every descriptor in a system shares one
ordering. :func:`build_mbls` and :func:`extract_tbls` are one-row views of
the matrix extractors, kept as API names; nothing in the package calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .config import PipelineConfig
from .errors import ArrayRecord, LengthMismatch, MalformedHeader, check_arrays, check_instance
from .template_io import MINUTIA_DTYPE, GrayImage


def _disc_lattice(radius: float) -> np.ndarray:
    """Integer points with x^2 + y^2 <= radius^2, row-major by y then x."""
    r = int(math.floor(radius))
    ys, xs = np.mgrid[-r : r + 1, -r : r + 1].astype(np.int64)
    inside = xs * xs + ys * ys <= radius * radius
    return np.stack([xs[inside], ys[inside]], axis=1)


@dataclass(eq=False, frozen=True)
class StructureGeometry(ArrayRecord):
    """The disc lattices of a config, which holds every other value of both descriptor families.

    ``lattice_m`` covers the minutia-descriptor disc after area downscaling
    (radius ``r_m / sqrt(downscale_area)``), ``lattice_t`` the texture disc at
    full resolution (radius ``r_t``); :attr:`PipelineConfig.lattice_radii`
    gives both radii, and the config refuses one over its bound. Descriptor
    lengths are the lattice point counts; they are properties of the
    lattice, not configured.

    A neighbor at center distance ``rho`` gets a Gaussian bump with
    tangential spread ``sigma_t0 + sigma_t_slope * rho`` (across the
    center-to-neighbor ray) and radial spread ``sigma_r0 + sigma_r_slope *
    rho`` (along it); the config keeps the tangential slope at least the
    radial one, so far bumps blur most where a neighbor's position is least
    certain.
    """

    config: PipelineConfig
    lattice_m: np.ndarray = field(repr=False)
    lattice_t: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_arrays(self, MalformedHeader, lattice_m=(int, None, 2), lattice_t=(int, None, 2))

    @classmethod
    def from_config(cls, config: PipelineConfig) -> "StructureGeometry":
        """The geometry of a config, whose own checks cover every value used."""
        return cls(config, *map(_disc_lattice, config.lattice_radii))

    @property
    def n_m(self) -> int:
        return self.lattice_m.shape[0]

    @property
    def n_t(self) -> int:
        return self.lattice_t.shape[0]

    @property
    def position_scale(self) -> float:
        return 1.0 / math.sqrt(self.config.downscale_area)


# Block sizes, in float64 elements, of the (rows x lattice points) temporaries
# of the matrix extractors. They bound memory on dense templates and keep the
# temporaries cache-resident; texture blocks also stay under the allocator's
# default mmap threshold (128 KiB), so they are not page-faulted in afresh.
_MBLS_BLOCK_ELEMENTS = 1 << 16
_TBLS_BLOCK_ELEMENTS = 1 << 14


def _cos_sin(theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Cosines and sines by ``math``, one angle at a time: numpy may round otherwise."""
    angles = theta.tolist()
    return np.array([math.cos(t) for t in angles]), np.array([math.sin(t) for t in angles])


def mbls_matrix(
    minutiae: np.ndarray,
    geometry: StructureGeometry,
    refs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Minutia descriptors of a whole impression, one row per minutia.

    Every other minutia whose center distance is at most ``r_m`` contributes
    one Gaussian bump at its position in the reference's frame (translated
    to the reference and rotated by ``-theta``), oriented across the
    center-to-neighbor ray, with the config's spreads at its distance.
    Positions and spreads are shrunk by the area downscale and rasterized
    over ``lattice_m``. Each row is L2-normalized; a minutia with no
    neighbor in range gets a zero row.

    Every (reference, neighbor) pair within ``r_m`` is found at once; each
    bump's exponent ``a dx^2 + 2b dx dy + c dy^2`` is expanded into six
    per-pair coefficients against the fixed lattice monomials
    ``[X^2, XY, Y^2, X, Y, 1]``, so all bumps of a block of pairs come from a
    single matrix product. The expansion rounds differently from the direct
    form, one bump at a time; the error is about float64 eps times
    ``r_m^2 / (2 sigma_r0^2)``.

    ``minutiae`` is a template's array. ``refs`` (row indices into it, in
    ``[-n, n)``) asks for those references' rows only, row ``j`` for
    ``minutiae[refs[j]]``; neighbors still come from the whole impression.
    All indices in order give the same bits as ``None``.
    A subset moves the pair-block boundaries, so its rows may differ from
    the full matrix's in the last bits.
    """
    [minutiae] = check_arrays(locals(), LengthMismatch, minutiae=(MINUTIA_DTYPE, None))
    n = len(minutiae)
    sel = (np.arange(n) if refs is None
           else check_arrays(locals(), LengthMismatch, refs=(int, None))[0])
    if sel.size and not (-n <= sel.min() and sel.max() < n):
        raise LengthMismatch(f"refs must index {n} minutiae, got {sel.min()}..{sel.max()}")
    x, y = minutiae["x"], minutiae["y"]
    cos, sin = _cos_sin(minutiae["theta"])
    out = np.zeros((sel.size, geometry.n_m), dtype=np.float64)
    with np.errstate(over="ignore"):  # a separation that overflows is out of range
        dx = x[None, :] - x[sel, None]
        dy = y[None, :] - y[sel, None]
        rho = np.hypot(dx, dy)
    near = rho <= geometry.config.r_m
    near[np.arange(sel.size), sel] = False  # a minutia is not its own neighbor
    row, nbr = np.nonzero(near)  # grouped by output row, neighbors in order
    if row.size == 0:
        return out

    dx = dx[row, nbr]
    dy = dy[row, nbr]
    rho = rho[row, nbr]
    ref = sel[row]
    c, s = cos[ref], sin[ref]
    u = c * dx + s * dy
    v = -s * dx + c * dy
    scale = geometry.position_scale
    mx = u * scale
    my = v * scale
    cfg = geometry.config
    sig_t = (cfg.sigma_t0 + cfg.sigma_t_slope * rho) * scale
    sig_r = (cfg.sigma_r0 + cfg.sigma_r_slope * rho) * scale
    theta_i = np.arctan2(v, u) + math.pi / 2.0

    # each bump's quadratic form, per pair: sig_t spreads along the axis at
    # theta_i from the u axis, sig_r across it, and the peak value is 1
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

    # at most n_m pairs per block, so a block's segment matrix (below) is
    # never larger than the output
    step = max(1, min(_MBLS_BLOCK_ELEMENTS // geometry.n_m, geometry.n_m))
    for lo in range(0, row.size, step):
        hi = min(lo + step, row.size)
        bumps = coeffs[lo:hi] @ basis
        np.exp(bumps, out=bumps)
        # sum each reference's bumps with one product: a 0/1 matrix with one
        # row per output row from the block's first to its last (a row
        # without pairs in between gets a zero row) and one column per pair
        block_row = row[lo:hi]
        owners = np.arange(block_row[0], block_row[-1] + 1)
        segments = (owners[:, None] == block_row).astype(np.float64)
        out[owners[0] : owners[-1] + 1] += segments @ bumps

    norms = np.sqrt(np.einsum("ij,ij->i", out, out))
    return np.divide(out, norms[:, None], out=out, where=norms[:, None] > 0.0)


def normalize_image(image: GrayImage) -> np.ndarray:
    """Affinely map an image to global mean 0 and population std 1.

    Returns a float array of the image's shape. A constant image maps to 0
    everywhere. The float copy is centred in place and the std is ``np.std``'s
    own formula on it, so the mean is taken once. Anything but a ``GrayImage``
    raises ``LengthMismatch``.
    """
    px = check_instance(image, GrayImage, "image").pixels.astype(np.float64)
    px -= px.mean()
    std = np.sqrt((px * px).sum() / px.size)
    if std == 0.0:
        return np.zeros_like(px)
    px /= std
    return px


def _sample_rows(
    flat: np.ndarray,
    shape: Tuple[int, int],
    xs: np.ndarray,
    ys: np.ndarray,
    out: np.ndarray,
    border: bool,
) -> None:
    """Bilinear samples of an image at real points, into ``out``: ``flat`` holds its
    pixels in C order and ``shape`` is its ``(h, w)``.

    Points off the pixel grid sample 0.0, the normalized image's mean, so
    off-image area carries no information. The far-edge corner is clamped so
    ``x0 + 1`` stays a valid column. ``xs`` and ``ys`` are overwritten. The
    arithmetic is the direct form's (``tests/oracles.py``), done in place
    and in the same order, so the values are equal (a ``-0.0`` coordinate
    can at most flip the sign of a zero sample). The floor is a cast to
    ``intp``, exact on the non-negative coordinates it is taken of. Without
    ``border`` every point must lie in ``[0, w - 2] x [0, h - 2]``: then the
    off-grid mask and the far-edge clamp change nothing and are skipped.
    """
    h, w = shape
    if border:
        outside = ~((xs >= 0.0) & (xs <= w - 1) & (ys >= 0.0) & (ys <= h - 1))
        np.copyto(xs, 0.0, where=outside)
        np.copyto(ys, 0.0, where=outside)
    x0 = xs.astype(np.intp)
    y0 = ys.astype(np.intp)
    if border:
        np.minimum(x0, max(w - 2, 0), out=x0)
        np.minimum(y0, max(h - 2, 0), out=y0)
    tx = np.subtract(xs, x0, out=xs)
    ty = np.subtract(ys, y0, out=ys)
    one_tx = 1.0 - tx
    one_ty = 1.0 - ty
    corner = np.multiply(y0, w, out=y0)
    corner += x0
    step_x = 1 if w > 1 else 0
    step_y = w if h > 1 else 0

    # each corner's pixels are a gather from the image shifted by its offset;
    # the base corner plus every offset stays on the grid, so "clip" (which
    # also skips take's buffered copy) never clips
    flat.take(corner, out=out, mode="clip")
    out *= one_tx
    out *= one_ty
    term = np.empty_like(out)
    for offset, wx, wy in (
        (step_x, tx, one_ty),
        (step_y, one_tx, ty),
        (step_x + step_y, tx, ty),
    ):
        flat[offset:].take(corner, out=term, mode="clip")
        term *= wx
        term *= wy
        out += term
    if border:
        np.copyto(out, 0.0, where=outside)


def tbls_matrix(
    minutiae: np.ndarray,
    image: GrayImage,
    geometry: StructureGeometry,
) -> np.ndarray:
    """Texture descriptors of a whole impression, one row per minutia.

    ``minutiae`` is a template's array, or rows of one. Each lattice offset
    is rotated by the minutia's direction and added to its position; the
    image, normalized here (:func:`normalize_image`), is sampled there
    bilinearly, and off-image samples are 0.0, its mean (see :func:`_sample_rows`).
    Rows whose disc plus a 1 px margin lies inside the image are sampled
    first, in blocks that skip the off-grid handling; the rest follow with
    it. Rows are sampled a few at a time so the temporaries stay in cache.
    """
    [minutiae] = check_arrays(locals(), LengthMismatch, minutiae=(MINUTIA_DTYPE, None))
    img = normalize_image(image)
    n = len(minutiae)
    out = np.empty((n, geometry.n_t), dtype=np.float64)
    flat = img.ravel()
    h, w = img.shape
    x, y = minutiae["x"], minutiae["y"]
    cos, sin = _cos_sin(minutiae["theta"])
    lat = geometry.lattice_t.astype(np.float64)
    lx, ly = lat[:, 0], lat[:, 1]
    # a rotated lattice offset is within r_t of its minutia up to rounding,
    # which the margin absorbs (NaN positions compare False: border rows)
    reach = geometry.config.r_t + 1.0
    interior = (x >= reach) & (x <= w - 1 - reach) & (y >= reach) & (y <= h - 1 - reach)
    step = max(1, _TBLS_BLOCK_ELEMENTS // geometry.n_t)
    block = np.empty((step, geometry.n_t), dtype=np.float64)
    for border in (False, True):
        rows = np.flatnonzero(interior != border)
        for lo in range(0, rows.size, step):
            idx = rows[lo : lo + step]
            c, s = cos[idx, None], sin[idx, None]
            xs = lx * c
            xs += x[idx, None]
            xs -= ly * s
            ys = lx * s
            ys += y[idx, None]
            ys += ly * c
            samples = block[: idx.size]
            _sample_rows(flat, img.shape, xs, ys, samples, border)
            out[idx] = samples
    return out


# ---------------------------------------------------------------------------
# one-row views, kept as API names
# ---------------------------------------------------------------------------

def build_mbls(
    minutiae: np.ndarray, row: int, geometry: StructureGeometry
) -> np.ndarray:
    """:func:`mbls_matrix` row of ``minutiae[row]``; every other minutia is a neighbor."""
    return mbls_matrix(minutiae, geometry, refs=[row])[0]


def extract_tbls(
    minutiae: np.ndarray, row: int, image: GrayImage, geometry: StructureGeometry
) -> np.ndarray:
    """:func:`tbls_matrix` row of ``minutiae[row]`` in ``image``."""
    [minutiae] = check_arrays(locals(), LengthMismatch, minutiae=(MINUTIA_DTYPE, None))
    if not -len(minutiae) <= row < len(minutiae):  # as build_mbls' refs rule
        raise LengthMismatch(f"row must index {len(minutiae)} minutiae, got {row}")
    return tbls_matrix(minutiae[[row]], image, geometry)[0]
