"""Descriptor geometry: local frames, Gaussian bumps, rasterization, patches.

The per-minutia and per-point forms these tests compare against live in
``tests/oracles.py``; ``build_mbls`` and ``extract_tbls`` here are the
package's one-row views of the matrix extractors. The tests write minutiae
in the oracles' object form and hand the package their ``minutia_array``.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import fpbits.local_structures as local_structures
import oracles
from fpbits.config import PipelineConfig
from fpbits.local_structures import (
    StructureGeometry,
    build_mbls,
    extract_tbls,
    mbls_matrix,
    normalize_image,
    tbls_matrix,
)
from fpbits.template_io import GrayImage
from oracles import Minutia, bilinear_sample, gaussian_response, local_frame, minutia_array


def geometry(**fields):
    """The geometry of the default config with ``fields`` changed."""
    return StructureGeometry.from_config(PipelineConfig(**fields))


def small_geometry():
    return geometry(r_m=30.0, r_t=15.0, downscale_area=1.0)


# ---------------------------------------------------------------------------
# the oracle's local frame and Gaussian bump (tests/oracles.py)
# ---------------------------------------------------------------------------

def test_local_frame_axes():
    ref = Minutia(0.0, 0.0, math.pi / 2)
    # straight ahead of the reference direction lands on +u
    u, v, rho = local_frame(ref, Minutia(0.0, 10.0, 0.0))
    assert math.isclose(u, 10.0, abs_tol=1e-12)
    assert math.isclose(v, 0.0, abs_tol=1e-12)
    assert math.isclose(rho, 10.0)
    # a point 90 degrees clockwise of the direction lands on -v
    u, v, rho = local_frame(ref, Minutia(10.0, 0.0, 0.0))
    assert math.isclose(u, 0.0, abs_tol=1e-12)
    assert math.isclose(v, -10.0, abs_tol=1e-12)
    assert math.isclose(rho, 10.0)


def test_local_frame_rho_is_euclidean():
    rng = np.random.default_rng(5)
    for _ in range(200):
        ref = Minutia(*rng.uniform(0, 100, 2), float(rng.uniform(0, 2 * math.pi)))
        other = Minutia(*rng.uniform(0, 100, 2), 0.0)
        u, v, rho = local_frame(ref, other)
        assert math.isclose(rho, math.hypot(other.x - ref.x, other.y - ref.y))
        # the frame is a rotation: it preserves the radius
        assert math.isclose(math.hypot(u, v), rho, rel_tol=1e-12, abs_tol=1e-12)


def test_gaussian_peak_and_isotropy():
    pts = np.array([[2.0, 3.0], [5.0, 3.0], [2.0, 7.0]])
    out = gaussian_response(pts, (2.0, 3.0), (1.5, 1.5), theta_i=0.7)
    assert math.isclose(out[0], 1.0)
    # equal spreads make the bump isotropic: value depends only on distance
    assert math.isclose(out[1], math.exp(-9.0 / (2 * 1.5**2)), rel_tol=1e-12)
    assert math.isclose(
        out[2], math.exp(-16.0 / (2 * 1.5**2)), rel_tol=1e-12
    )
    for theta in (0.0, 1.0, 2.5):
        again = gaussian_response(pts, (2.0, 3.0), (1.5, 1.5), theta)
        assert np.allclose(again, out, rtol=1e-12)


def test_gaussian_axis_spot_values():
    # major axis along x (theta_i = 0): point offset d along x decays by sigma_x
    d = 2.0
    out = gaussian_response(np.array([[d, 0.0], [0.0, d]]), (0.0, 0.0), (2.0, 1.0), 0.0)
    assert math.isclose(out[0], math.exp(-(d * d) / (2 * 4.0)), rel_tol=1e-12)
    assert math.isclose(out[1], math.exp(-(d * d) / (2 * 1.0)), rel_tol=1e-12)


def test_gaussian_rotation_consistency():
    # moving the point with the bump axis leaves the value unchanged; in
    # image coordinates (y down) the axis parameter turns points clockwise
    rng = np.random.default_rng(11)
    for _ in range(100):
        base = rng.uniform(-5, 5, 2)
        sig = (float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 3)))
        phi = float(rng.uniform(0, 2 * math.pi))
        v0 = gaussian_response(base.reshape(1, 2), (0.0, 0.0), sig, 0.0)[0]
        c, s = math.cos(phi), math.sin(phi)
        rotated = np.array([[c * base[0] + s * base[1], -s * base[0] + c * base[1]]])
        v1 = gaussian_response(rotated, (0.0, 0.0), sig, phi)[0]
        assert math.isclose(v0, v1, rel_tol=1e-10, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

def test_lattice_sizes_match_brute_force():
    geom = geometry(r_m=80.0, r_t=40.0, downscale_area=10.0)

    def count(radius_sq):
        # exact integer threshold: boundary points belong to the disc
        r = int(math.isqrt(radius_sq))
        total = 0
        for y in range(-r, r + 1):
            for x in range(-r, r + 1):
                if x * x + y * y <= radius_sq:
                    total += 1
        return total

    # descriptor disc radius^2 is 80^2 / 10 = 640 exactly
    assert geom.n_m == count(640) == 2017
    assert geom.n_t == count(1600) == 5025


def test_geometry_keeps_its_config_and_adds_only_the_lattices():
    # the config is the one home of every other value both families read
    config = PipelineConfig(r_m=30.0, r_t=15.0, downscale_area=1.0)
    geom = StructureGeometry.from_config(config)
    assert [f.name for f in dataclasses.fields(geom)] == ["config", "lattice_m", "lattice_t"]
    assert geom.config is config


def test_lattice_row_major_order():
    geom = geometry(r_m=3.0, r_t=2.0, downscale_area=1.0)
    lat = geom.lattice_m
    # y outer, x inner: the flattened order is sorted by (y, x)
    keys = [(int(p[1]), int(p[0])) for p in lat]
    assert keys == sorted(keys)
    assert (lat[0] == [0, -3]).all() if lat[0][1] == -3 else True
    # every point is inside the disc, no duplicates
    assert len({tuple(p) for p in lat.tolist()}) == len(lat)
    assert ((lat[:, 0] ** 2 + lat[:, 1] ** 2) <= 9.0).all()


def loop_lattice(radius):
    """The lattice as a double loop: y outer, x inner, float comparison."""
    r = int(math.floor(radius))
    pts = [
        (x, y)
        for y in range(-r, r + 1)
        for x in range(-r, r + 1)
        if x * x + y * y <= radius * radius
    ]
    return np.array(pts, dtype=np.int64).reshape(-1, 2)


@pytest.mark.parametrize(
    "radius",
    [0.5, 1.0, math.sqrt(2.0), 2.9, 25.3, 80.0 / math.sqrt(10.0), 40.0],
)
def test_disc_lattice_matches_loop_oracle(radius):
    got = local_structures._disc_lattice(radius)
    want = loop_lattice(radius)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# minutia descriptor
# ---------------------------------------------------------------------------

def test_mbls_brute_force_oracle():
    # downscale 1 so the raster is directly comparable to a hand rasterizer
    geom = geometry(r_m=30.0, r_t=15.0, downscale_area=1.0,
                    sigma_t0=2.0, sigma_t_slope=0.05, sigma_r0=1.5, sigma_r_slope=0.02)
    ref = Minutia(50.0, 50.0, 0.9)
    others = [
        Minutia(60.0, 55.0, 1.0),
        Minutia(45.0, 40.0, 2.0),
        Minutia(50.0, 95.0, 0.5),  # rho 45 > r_m, out of range
    ]
    acc = np.zeros(geom.n_m)
    for m in others:
        dx, dy = m.x - ref.x, m.y - ref.y
        rho = math.hypot(dx, dy)
        if rho > geom.config.r_m:
            continue
        c, s = math.cos(ref.theta), math.sin(ref.theta)
        u = c * dx + s * dy
        v = -s * dx + c * dy
        st = geom.config.sigma_t0 + geom.config.sigma_t_slope * rho
        sr = geom.config.sigma_r0 + geom.config.sigma_r_slope * rho
        ti = math.atan2(v, u) + math.pi / 2
        for idx, (px, py) in enumerate(geom.lattice_m):
            a = math.cos(ti) ** 2 / (2 * st * st) + math.sin(ti) ** 2 / (2 * sr * sr)
            b = -math.sin(2 * ti) / (4 * st * st) + math.sin(2 * ti) / (4 * sr * sr)
            cc = math.sin(ti) ** 2 / (2 * st * st) + math.cos(ti) ** 2 / (2 * sr * sr)
            ddx, ddy = px - u, py - v
            acc[idx] += math.exp(-(a * ddx * ddx + 2 * b * ddx * ddy + cc * ddy * ddy))
    want = acc / np.linalg.norm(acc)
    # the per-minutia oracle and the production row, through its view
    assert np.allclose(oracles.build_mbls(ref, [ref] + others, geom), want, atol=1e-12)
    assert np.allclose(build_mbls(minutia_array([ref] + others), 0, geom), want, atol=1e-12)


def test_mbls_no_neighbors_is_zero():
    geom = small_geometry()
    ref = Minutia(50.0, 50.0, 0.0)
    lonely = build_mbls(minutia_array([ref]), 0, geom)
    assert not lonely.any()
    far = build_mbls(minutia_array([ref, Minutia(90.0, 90.0, 0.0)]), 0, geom)
    assert not far.any()


def test_mbls_reference_excluded_by_identity():
    # the reference is left out by its row, so an unrelated minutia at the
    # reference's own position still contributes
    geom = small_geometry()
    ref = Minutia(50.0, 50.0, 0.0)
    twin = Minutia(50.0, 50.0, 1.0)
    vec = build_mbls(minutia_array([ref, twin]), 0, geom)
    assert vec.any()


def test_mbls_unit_norm_when_nonzero():
    rng = np.random.default_rng(17)
    geom = small_geometry()
    for _ in range(100):
        pts = rng.uniform(30, 70, size=(int(rng.integers(1, 8)), 2))
        ref = Minutia(50.0, 50.0, float(rng.uniform(0, 2 * math.pi)))
        others = [Minutia(float(x), float(y), float(rng.uniform(0, 2 * math.pi))) for x, y in pts]
        vec = build_mbls(minutia_array([ref] + others), 0, geom)
        if vec.any():
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


def test_mbls_rigid_motion_invariance():
    rng = np.random.default_rng(23)
    geom = small_geometry()
    for _ in range(20):
        n = int(rng.integers(2, 10))
        pts = rng.uniform(20, 80, size=(n, 2))
        dirs = rng.uniform(0, 2 * math.pi, size=n)
        rot = float(rng.uniform(0, 2 * math.pi))
        tx, ty = rng.uniform(-30, 30, 2)
        c, s = math.cos(rot), math.sin(rot)
        original = [Minutia(float(x), float(y), float(t)) for (x, y), t in zip(pts, dirs)]
        moved = [
            Minutia(
                float(c * x - s * y + tx + 200),
                float(s * x + c * y + ty + 200),
                float(t + rot),
            )
            for (x, y), t in zip(pts, dirs)
        ]
        va = mbls_matrix(minutia_array(original), geom)
        vb = mbls_matrix(minutia_array(moved), geom)
        assert np.max(np.abs(va - vb)) < 1e-6


# ---------------------------------------------------------------------------
# image normalization and sampling
# ---------------------------------------------------------------------------

def test_normalize_image_population_stats():
    rng = np.random.default_rng(2)
    img = GrayImage(rng.integers(0, 256, size=(30, 20), dtype=np.uint8))
    out = normalize_image(img)
    assert abs(out.mean()) < 1e-12
    assert abs(out.std() - 1.0) < 1e-12


def test_normalize_image_constant():
    img = GrayImage(np.full((8, 8), 137, dtype=np.uint8))
    out = normalize_image(img)
    assert out.shape == (8, 8) and (out == 0.0).all()


def test_bilinear_sample_values():
    img = np.array([[0.0, 10.0], [20.0, 30.0]])
    xs = np.array([0.0, 1.0, 0.5, 0.25, -0.1, 1.0])
    ys = np.array([0.0, 1.0, 0.5, 0.0, 0.0, 1.2])
    out = bilinear_sample(img, xs, ys, fill=-1.0)
    assert out[0] == 0.0 and out[1] == 30.0
    assert math.isclose(out[2], 15.0)
    assert math.isclose(out[3], 2.5)
    assert out[4] == -1.0 and out[5] == -1.0  # off-grid points take the fill


def test_bilinear_sample_far_edge():
    img = np.arange(12, dtype=np.float64).reshape(3, 4)
    out = bilinear_sample(img, np.array([3.0]), np.array([2.0]), fill=0.0)
    assert out[0] == 11.0


def test_bilinear_linear_surface_exact():
    # bilinear interpolation reproduces an affine surface exactly
    ys_g, xs_g = np.mgrid[0:10, 0:12]
    img = 2.0 * xs_g + 3.0 * ys_g + 1.0
    rng = np.random.default_rng(9)
    xs = rng.uniform(0, 11, 50)
    ys = rng.uniform(0, 9, 50)
    out = bilinear_sample(img, xs, ys, fill=0.0)
    assert np.allclose(out, 2.0 * xs + 3.0 * ys + 1.0, atol=1e-10)


def test_extract_tbls_gradient_image():
    # on the plane img(x, y) = x the sample at each rotated offset is known
    geom = small_geometry()
    ys_g, xs_g = np.mgrid[0:120, 0:120]
    img = xs_g.astype(np.float64)
    rng = np.random.default_rng(31)
    for theta in rng.uniform(0, 2 * math.pi, 10):
        ref = Minutia(60.0, 60.0, float(theta))
        got = extract_tbls(minutia_array([ref]), 0, img, geom)
        lat = geom.lattice_t.astype(np.float64)
        c, s = math.cos(ref.theta), math.sin(ref.theta)
        want = ref.x + lat[:, 0] * c - lat[:, 1] * s
        assert np.allclose(got, want, atol=1e-9)


def test_extract_tbls_fill_outside():
    geom = small_geometry()
    img = np.ones((40, 40), dtype=np.float64)
    ref = Minutia(2.0, 2.0, 0.0)  # patch sticks far out of the image
    out = extract_tbls(minutia_array([ref]), 0, img, geom)
    assert (out == 0.0).sum() > 0
    assert (out == 1.0).sum() > 0


def bilinear_point(img, x, y, fill):
    """Scalar bilinear interpolation, one point at a time."""
    h, w = img.shape
    if not (0.0 <= x <= w - 1 and 0.0 <= y <= h - 1):
        return fill
    x0 = min(int(math.floor(x)), max(w - 2, 0))
    y0 = min(int(math.floor(y)), max(h - 2, 0))
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    tx, ty = x - x0, y - y0
    return (
        img[y0, x0] * (1.0 - tx) * (1.0 - ty)
        + img[y0, x1] * tx * (1.0 - ty)
        + img[y1, x0] * (1.0 - tx) * ty
        + img[y1, x1] * tx * ty
    )


@pytest.mark.parametrize("shape", [(9, 13), (1, 7), (6, 1), (1, 1)])
def test_bilinear_sample_matches_scalar_oracle(shape):
    rng = np.random.default_rng(shape[0] * 31 + shape[1])
    img = rng.normal(size=shape)
    h, w = shape
    xs = rng.uniform(-1.5, w + 0.5, size=(4, 25))
    ys = rng.uniform(-1.5, h + 0.5, size=(4, 25))
    xs[0, :4] = [0.0, w - 1, 0.0, w - 1]  # the grid's corners exactly
    ys[0, :4] = [0.0, 0.0, h - 1, h - 1]
    xs[1, :3] = [np.nan, np.inf, 0.0]  # non-finite coordinates are off-grid
    ys[1, :3] = [0.0, 0.0, -np.inf]
    got = bilinear_sample(img, xs, ys, fill=-3.0)
    want = np.array(
        [bilinear_point(img, x, y, -3.0) for x, y in zip(xs.ravel(), ys.ravel())]
    ).reshape(xs.shape)
    assert got.shape == xs.shape
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# whole-impression matrices against the per-minutia oracles
# ---------------------------------------------------------------------------

# mbls_matrix expands each bump's exponent into monomials, which rounds
# differently from the oracle's gaussian_response. The exponent's terms reach
# r_m^2 / (2 sigma_r0^2) (about 356 at the defaults), so the error is about
# float64 eps times that, 8e-14; the bound leaves room for the few roundings
# per term.
MBLS_TOL = 1e-12


def mbls_oracle(minutiae, geom):
    return np.array(
        [oracles.build_mbls(m, minutiae, geom) for m in minutiae]
    ).reshape(len(minutiae), geom.n_m)


def tbls_oracle(minutiae, img, geom):
    """The oracle's rows at fill 0.0, the normalized image's mean that tbls_matrix uses."""
    return np.array(
        [oracles.extract_tbls(m, img, geom, fill=0.0) for m in minutiae]
    ).reshape(len(minutiae), geom.n_t)


def random_minutiae(rng, n, lo, hi):
    return [
        Minutia(float(x), float(y), float(t))
        for x, y, t in zip(
            rng.uniform(lo, hi, n), rng.uniform(lo, hi, n), rng.uniform(0, 2 * math.pi, n)
        )
    ]


def default_geometry():
    return geometry()


def test_mbls_matrix_matches_build_mbls_at_defaults():
    rng = np.random.default_rng(41)
    geom = default_geometry()
    for n in (2, 5, 40):
        minutiae = random_minutiae(rng, n, 0.0, 256.0)
        got = mbls_matrix(minutia_array(minutiae), geom)
        assert got.shape == (n, geom.n_m)
        assert np.max(np.abs(got - mbls_oracle(minutiae, geom))) <= MBLS_TOL


def test_mbls_matrix_blocks_split_references(monkeypatch):
    # three pairs per block, so most references straddle a block boundary
    rng = np.random.default_rng(43)
    geom = small_geometry()
    minutiae = random_minutiae(rng, 12, 30.0, 70.0)
    whole = mbls_matrix(minutia_array(minutiae), geom)
    monkeypatch.setattr(local_structures, "_MBLS_BLOCK_ELEMENTS", 3 * geom.n_m)
    blocked = mbls_matrix(minutia_array(minutiae), geom)
    assert np.max(np.abs(blocked - whole)) <= MBLS_TOL
    assert np.max(np.abs(blocked - mbls_oracle(minutiae, geom))) <= MBLS_TOL


def test_mbls_matrix_edge_cases():
    geom = small_geometry()
    assert mbls_matrix(minutia_array([]), geom).shape == (0, geom.n_m)
    single = mbls_matrix(minutia_array([Minutia(50.0, 50.0, 0.3)]), geom)
    assert single.shape == (1, geom.n_m) and not single.any()

    # nobody within r_m of anybody: all rows zero, like the oracle
    apart = [Minutia(0.0, 0.0, 0.0), Minutia(100.0, 0.0, 1.0), Minutia(0.0, 100.0, 2.0)]
    assert not mbls_matrix(minutia_array(apart), geom).any()

    # one isolated minutia among neighbors keeps a zero row
    mixed = [Minutia(50.0, 50.0, 0.0), Minutia(60.0, 52.0, 1.0), Minutia(200.0, 200.0, 2.0)]
    got = mbls_matrix(minutia_array(mixed), geom)
    assert got[:2].any() and not got[2].any()
    assert np.max(np.abs(got - mbls_oracle(mixed, geom))) <= MBLS_TOL

    # two distinct minutiae at one position see each other at distance 0
    twins = [Minutia(50.0, 50.0, 0.0), Minutia(50.0, 50.0, 1.0), Minutia(58.0, 47.0, 2.5)]
    got = mbls_matrix(minutia_array(twins), geom)
    assert got.all(axis=1).any()
    assert np.max(np.abs(got - mbls_oracle(twins, geom))) <= MBLS_TOL


def test_mbls_matrix_refs_all_rows_is_bit_identical():
    rng = np.random.default_rng(59)
    geom = default_geometry()
    for n in (0, 1, 2, 40):
        minutiae = random_minutiae(rng, n, 0.0, 256.0)
        whole = mbls_matrix(minutia_array(minutiae), geom)
        for refs in (np.arange(n), list(range(n))):
            assert np.array_equal(mbls_matrix(minutia_array(minutiae), geom, refs=refs), whole)


@pytest.mark.parametrize("pairs_per_block", [1, 3, None])
def test_mbls_matrix_refs_subset_rows(monkeypatch, pairs_per_block):
    # any subset, in any order, with repeats: row j is minutiae[refs[j]]'s,
    # neighbors taken from the whole impression, also when blocks split
    # references differently from the full call
    rng = np.random.default_rng(61)
    geom = small_geometry()
    minutiae = random_minutiae(rng, 14, 30.0, 90.0) + [Minutia(250.0, 250.0, 1.0)]
    whole = mbls_matrix(minutia_array(minutiae), geom)
    want = mbls_oracle(minutiae, geom)
    if pairs_per_block is not None:
        monkeypatch.setattr(
            local_structures, "_MBLS_BLOCK_ELEMENTS", pairs_per_block * geom.n_m
        )
    for refs in ([0], [7], [14], [3, 5, 6, 11], [14, 2, 9], [4, 4, 1], list(range(1, 15, 2))):
        got = mbls_matrix(minutia_array(minutiae), geom, refs=np.array(refs))
        assert got.shape == (len(refs), geom.n_m)
        assert np.max(np.abs(got - whole[refs])) <= MBLS_TOL, refs
        assert np.max(np.abs(got - want[refs])) <= MBLS_TOL, refs
    # the last minutia has no neighbor in range: a zero row
    assert not mbls_matrix(minutia_array(minutiae), geom, refs=[14]).any()


def test_mbls_matrix_refs_edge_cases():
    geom = small_geometry()
    empty_refs = np.array([], dtype=np.intp)
    assert mbls_matrix(minutia_array([]), geom, refs=empty_refs).shape == (0, geom.n_m)
    pair = [Minutia(50.0, 50.0, 0.0), Minutia(60.0, 52.0, 1.0)]
    assert mbls_matrix(minutia_array(pair), geom, refs=empty_refs).shape == (0, geom.n_m)
    # one reference: its neighbor is not itself a reference
    one = mbls_matrix(minutia_array(pair), geom, refs=[1])
    assert one.any()
    assert np.max(np.abs(one[0] - oracles.build_mbls(pair[1], pair, geom))) <= MBLS_TOL
    # a lone minutia asked for by itself
    assert not mbls_matrix(minutia_array([Minutia(5.0, 5.0, 2.0)]), geom, refs=[0]).any()


def test_mbls_matrix_dense_template_within_tolerance():
    # 100 minutiae packed into one disc: every pair is in range
    rng = np.random.default_rng(47)
    geom = default_geometry()
    minutiae = random_minutiae(rng, 100, 100.0, 150.0)
    got = mbls_matrix(minutia_array(minutiae), geom)
    assert np.max(np.abs(got - mbls_oracle(minutiae, geom))) <= MBLS_TOL
    assert np.allclose(np.linalg.norm(got, axis=1), 1.0, atol=1e-12)


def test_tbls_matrix_equals_extract_tbls_exactly():
    rng = np.random.default_rng(53)
    geom = default_geometry()
    img = normalize_image(GrayImage(rng.integers(0, 256, size=(120, 150), dtype=np.uint8)))
    # inside, straddling every border, on the border lines, and off the image
    minutiae = random_minutiae(rng, 30, -20.0, 160.0) + [
        Minutia(0.0, 0.0, 0.0),
        Minutia(149.0, 119.0, 1.0),
        Minutia(0.0, 60.0, math.pi / 2),
        Minutia(149.0, 0.0, math.pi),
        Minutia(-500.0, 40.0, 0.7),
    ]
    got = tbls_matrix(minutia_array(minutiae), img, geom)
    assert got.shape == (len(minutiae), geom.n_t)
    assert np.array_equal(got, tbls_oracle(minutiae, img, geom))
    assert (got[-1] == 0.0).all()


def test_tbls_matrix_edge_cases(monkeypatch):
    geom = small_geometry()
    img = np.arange(40.0).reshape(40, 1)  # one pixel wide
    assert tbls_matrix(minutia_array([]), img, geom).shape == (0, geom.n_t)
    minutiae = [Minutia(0.0, 10.0, 0.0), Minutia(0.0, 20.0, math.pi / 2), Minutia(0.0, 39.0, 1.0)]
    want = tbls_oracle(minutiae, img, geom)
    assert np.array_equal(tbls_matrix(minutia_array(minutiae), img, geom), want)
    assert np.array_equal(tbls_matrix(minutia_array(minutiae[:1]), img, geom), want[:1])
    # one row per block gives the same rows
    monkeypatch.setattr(local_structures, "_TBLS_BLOCK_ELEMENTS", 1)
    assert np.array_equal(tbls_matrix(minutia_array(minutiae), img, geom), want)


# ---------------------------------------------------------------------------
# the texture sampler's interior fast path and the minutia segment sum
# ---------------------------------------------------------------------------

def spy_sampled_rows(monkeypatch):
    """Record ``(border, rows)`` of every block ``tbls_matrix`` samples."""
    calls = []
    sample = local_structures._sample_rows

    def spy(img, xs, ys, out, border):
        calls.append((border, xs.shape[0]))
        sample(img, xs, ys, out, border)

    monkeypatch.setattr(local_structures, "_sample_rows", spy)
    return calls


@pytest.mark.parametrize("rows_per_block", [1, 2, 3, 100])
def test_tbls_matrix_mixed_interior_and_border_rows(monkeypatch, rows_per_block):
    rng = np.random.default_rng(59)
    geom = default_geometry()
    img = normalize_image(GrayImage(rng.integers(0, 256, size=(140, 170), dtype=np.uint8)))
    inner = random_minutiae(rng, 7, 45.0, 95.0)
    outer = random_minutiae(rng, 7, -30.0, 30.0)
    # alternate, so every block of the input order holds both kinds
    minutiae = [m for pair in zip(inner, outer) for m in pair]
    monkeypatch.setattr(
        local_structures, "_TBLS_BLOCK_ELEMENTS", rows_per_block * geom.n_t
    )
    calls = spy_sampled_rows(monkeypatch)
    got = tbls_matrix(minutia_array(minutiae), img, geom)
    assert np.array_equal(got, tbls_oracle(minutiae, img, geom))
    # interior rows go first, and each kind is sampled on its own path
    assert sum(rows for border, rows in calls if not border) == 7
    assert sum(rows for border, rows in calls if border) == 7
    assert [border for border, _ in calls] == sorted(border for border, _ in calls)


def test_tbls_matrix_rows_follow_input_order():
    rng = np.random.default_rng(61)
    geom = small_geometry()
    img = rng.normal(size=(60, 80))
    minutiae = random_minutiae(rng, 12, -5.0, 85.0)
    want = tbls_matrix(minutia_array(minutiae), img, geom)
    order = rng.permutation(len(minutiae))
    got = tbls_matrix(minutia_array([minutiae[i] for i in order]), img, geom)
    assert np.array_equal(got, want[order])


def test_tbls_matrix_interior_margin(monkeypatch):
    # the fast path takes a minutia whose disc plus 1 px lies inside the
    # image; probe exactly that position and one pixel either side of it,
    # on each of the four edges, at several directions
    geom = small_geometry()
    h, w = 50, 60
    img = np.random.default_rng(67).normal(size=(h, w))
    reach = geom.config.r_t + 1.0
    mid_x, mid_y = w / 2.0, h / 2.0
    minutiae, expect_interior = [], []
    for theta in (0.0, 0.3, math.pi / 4, math.pi / 2, 2.0, math.pi):
        for shift in (-1.0, 0.0, 1.0):
            for x, y, inside in (
                (reach + shift, mid_y, shift >= 0.0),
                (w - 1 - reach - shift, mid_y, shift >= 0.0),
                (mid_x, reach + shift, shift >= 0.0),
                (mid_x, h - 1 - reach - shift, shift >= 0.0),
            ):
                minutiae.append(Minutia(x, y, theta))
                expect_interior.append(inside)
    calls = spy_sampled_rows(monkeypatch)
    got = tbls_matrix(minutia_array(minutiae), img, geom)
    assert np.array_equal(got, tbls_oracle(minutiae, img, geom))
    assert sum(rows for border, rows in calls if not border) == sum(expect_interior)


def test_tbls_matrix_one_row_per_block_with_fast_path(monkeypatch):
    rng = np.random.default_rng(71)
    geom = default_geometry()
    img = rng.normal(size=(130, 160))
    minutiae = random_minutiae(rng, 9, -10.0, 170.0) + random_minutiae(rng, 4, 50.0, 80.0)
    want = tbls_oracle(minutiae, img, geom)
    monkeypatch.setattr(local_structures, "_TBLS_BLOCK_ELEMENTS", 1)
    calls = spy_sampled_rows(monkeypatch)
    assert np.array_equal(tbls_matrix(minutia_array(minutiae), img, geom), want)
    assert all(rows == 1 for _, rows in calls) and len(calls) == len(minutiae)
    assert any(not border for border, _ in calls)


def test_tbls_matrix_non_finite_positions_fill():
    geom = small_geometry()
    img = np.random.default_rng(73).normal(size=(60, 60))
    odd = [
        Minutia(math.nan, 30.0, 0.0),
        Minutia(30.0, math.nan, 1.0),
        Minutia(math.inf, 30.0, 0.5),
        Minutia(30.0, -math.inf, 2.0),
    ]
    minutiae = odd + [Minutia(30.0, 30.0, 0.4), Minutia(-0.0, 20.0, math.pi)]
    got = tbls_matrix(minutia_array(minutiae), img, geom)
    assert (got[: len(odd)] == 0.0).all()
    assert np.array_equal(got, tbls_oracle(minutiae, img, geom))


def mbls_pair_count(minutiae, geom):
    return sum(
        1
        for i, a in enumerate(minutiae)
        for j, b in enumerate(minutiae)
        if i != j and math.hypot(a.x - b.x, a.y - b.y) <= geom.config.r_m
    )


def test_mbls_matrix_every_block_size(monkeypatch):
    # from one pair per block (each block owned by a single reference) to
    # all pairs in one block; one reference sits among three close neighbors,
    # one minutia is isolated, so blocks also span a reference with no pairs
    geom = small_geometry()
    minutiae = [
        Minutia(50.0, 50.0, 0.2),
        Minutia(60.0, 52.0, 1.0),
        Minutia(44.0, 58.0, 2.2),
        Minutia(150.0, 150.0, 0.7),
        Minutia(52.0, 41.0, 4.0),
        Minutia(75.0, 55.0, 5.5),
    ]
    want = mbls_oracle(minutiae, geom)
    n_pairs = mbls_pair_count(minutiae, geom)
    assert n_pairs == 18
    for rows in range(1, n_pairs + 1):
        monkeypatch.setattr(local_structures, "_MBLS_BLOCK_ELEMENTS", rows * geom.n_m)
        got = mbls_matrix(minutia_array(minutiae), geom)
        assert np.max(np.abs(got - want)) <= MBLS_TOL, rows
    assert not got[3].any()


def test_mbls_matrix_tiny_lattice_caps_block_rows():
    # 9 lattice points: a block is capped at 9 pairs, so its segment matrix
    # stays within the output's size; the sums are unchanged
    rng = np.random.default_rng(79)
    geom = geometry(r_m=5.0, r_t=2.0, downscale_area=10.0)
    assert geom.n_m == 9
    minutiae = random_minutiae(rng, 40, 0.0, 20.0)
    got = mbls_matrix(minutia_array(minutiae), geom)
    assert np.max(np.abs(got - mbls_oracle(minutiae, geom))) <= MBLS_TOL

    # 400 minutiae along a strip: the per-pair arrays take about 4 MiB; an
    # uncapped block (7281 pairs) would add segment matrices of about 6 MiB
    strip = [
        Minutia(float(x), float(y), 0.0)
        for x, y in zip(rng.uniform(0, 20, 400), rng.uniform(0, 200, 400))
    ]
    tracemalloc.start()
    try:
        mbls_matrix(minutia_array(strip), geom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20, peak


@pytest.mark.parametrize("kernel", ["mbls", "tbls"])
def test_matrix_kernels_peak_memory(kernel):
    # 100 minutiae packed into one disc: 9900 pairs. A pairs x lattice
    # temporary would be about 150 MiB; the blocked kernels need their output
    # plus a few MiB
    rng = np.random.default_rng(83)
    geom = default_geometry()
    minutiae = random_minutiae(rng, 100, 100.0, 150.0)
    assert mbls_pair_count(minutiae, geom) == 9900
    img = rng.normal(size=(256, 256))
    tracemalloc.start()
    try:
        if kernel == "mbls":
            out = mbls_matrix(minutia_array(minutiae), geom)
        else:
            out = tbls_matrix(minutia_array(minutiae), img, geom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 4 * 2**20, (peak, out.nbytes)
