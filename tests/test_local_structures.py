"""Descriptor geometry: local frames, Gaussian bumps, rasterization, patches."""

import math

import numpy as np
import pytest

import fpbits.local_structures as local_structures
from fpbits.local_structures import (
    SpreadModel,
    StructureGeometry,
    bilinear_sample,
    build_mbls,
    extract_tbls,
    gaussian_response,
    local_frame,
    mbls_distance,
    mbls_matrix,
    normalize_image,
    tbls_matrix,
)
from fpbits.template_io import GrayImage, Minutia


def small_geometry():
    return StructureGeometry.create(r_m=30.0, r_t=15.0, downscale_area=1.0)


# ---------------------------------------------------------------------------
# local frame
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


# ---------------------------------------------------------------------------
# gaussian response
# ---------------------------------------------------------------------------

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
    geom = StructureGeometry.create(r_m=80.0, r_t=40.0, downscale_area=10.0)

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


def test_lattice_row_major_order():
    geom = StructureGeometry.create(r_m=3.0, r_t=2.0, downscale_area=1.0)
    lat = geom.lattice_m
    # y outer, x inner: the flattened order is sorted by (y, x)
    keys = [(int(p[1]), int(p[0])) for p in lat]
    assert keys == sorted(keys)
    assert (lat[0] == [0, -3]).all() if lat[0][1] == -3 else True
    # every point is inside the disc, no duplicates
    assert len({tuple(p) for p in lat.tolist()}) == len(lat)
    assert ((lat[:, 0] ** 2 + lat[:, 1] ** 2) <= 9.0).all()


def test_spread_model_validation():
    with pytest.raises(ValueError):
        SpreadModel(sigma_t0=0.0)
    with pytest.raises(ValueError):
        SpreadModel(sigma_t_slope=0.01, sigma_r_slope=0.02)
    sm = SpreadModel()
    t0, r0 = sm.sigma_at(0.0)
    t1, r1 = sm.sigma_at(10.0)
    assert (t0, r0) == (3.0, 3.0)
    assert math.isclose(t1, 3.5) and math.isclose(r1, 3.2)
    assert t1 >= r1  # tangential spread grows at least as fast


# ---------------------------------------------------------------------------
# minutia descriptor
# ---------------------------------------------------------------------------

def test_mbls_brute_force_oracle():
    # downscale 1 so the raster is directly comparable to a hand rasterizer
    geom = small_geometry()
    spread = SpreadModel(sigma_t0=2.0, sigma_t_slope=0.05, sigma_r0=1.5, sigma_r_slope=0.02)
    ref = Minutia(50.0, 50.0, 0.9)
    others = [
        Minutia(60.0, 55.0, 1.0),
        Minutia(45.0, 40.0, 2.0),
        Minutia(50.0, 95.0, 0.5),  # rho 45 > r_m, out of range
    ]
    got = build_mbls(ref, [ref] + others, geom, spread)

    acc = np.zeros(geom.n_m)
    for m in others:
        dx, dy = m.x - ref.x, m.y - ref.y
        rho = math.hypot(dx, dy)
        if rho > geom.r_m:
            continue
        c, s = math.cos(ref.theta), math.sin(ref.theta)
        u = c * dx + s * dy
        v = -s * dx + c * dy
        st = spread.sigma_t0 + spread.sigma_t_slope * rho
        sr = spread.sigma_r0 + spread.sigma_r_slope * rho
        ti = math.atan2(v, u) + math.pi / 2
        for idx, (px, py) in enumerate(geom.lattice_m):
            a = math.cos(ti) ** 2 / (2 * st * st) + math.sin(ti) ** 2 / (2 * sr * sr)
            b = -math.sin(2 * ti) / (4 * st * st) + math.sin(2 * ti) / (4 * sr * sr)
            cc = math.sin(ti) ** 2 / (2 * st * st) + math.cos(ti) ** 2 / (2 * sr * sr)
            ddx, ddy = px - u, py - v
            acc[idx] += math.exp(-(a * ddx * ddx + 2 * b * ddx * ddy + cc * ddy * ddy))
    want = acc / np.linalg.norm(acc)
    assert np.allclose(got, want, atol=1e-12)


def test_mbls_no_neighbors_is_zero():
    geom = small_geometry()
    ref = Minutia(50.0, 50.0, 0.0)
    lonely = build_mbls(ref, [ref], geom, SpreadModel())
    assert not lonely.any()
    far = build_mbls(ref, [ref, Minutia(90.0, 90.0, 0.0)], geom, SpreadModel())
    assert not far.any()


def test_mbls_reference_excluded_by_identity():
    # an unrelated minutia at the reference's own position still contributes
    geom = small_geometry()
    ref = Minutia(50.0, 50.0, 0.0)
    twin = Minutia(50.0, 50.0, 1.0)
    vec = build_mbls(ref, [ref, twin], geom, SpreadModel())
    assert vec.any()


def test_mbls_unit_norm_when_nonzero():
    rng = np.random.default_rng(17)
    geom = small_geometry()
    spread = SpreadModel()
    for _ in range(100):
        pts = rng.uniform(30, 70, size=(int(rng.integers(1, 8)), 2))
        ref = Minutia(50.0, 50.0, float(rng.uniform(0, 2 * math.pi)))
        others = [Minutia(float(x), float(y), float(rng.uniform(0, 2 * math.pi))) for x, y in pts]
        vec = build_mbls(ref, [ref] + others, geom, spread)
        if vec.any():
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


def test_mbls_rigid_motion_invariance():
    rng = np.random.default_rng(23)
    geom = small_geometry()
    spread = SpreadModel()
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
        for i in range(n):
            va = build_mbls(original[i], original, geom, spread)
            vb = build_mbls(moved[i], moved, geom, spread)
            assert np.max(np.abs(va - vb)) < 1e-6


def test_mbls_distance_shape_check():
    with pytest.raises(ValueError):
        mbls_distance(np.zeros(3), np.zeros(4))
    assert mbls_distance(np.ones(4), np.ones(4)) == 0.0


# ---------------------------------------------------------------------------
# image normalization and sampling
# ---------------------------------------------------------------------------

def test_normalize_image_population_stats():
    rng = np.random.default_rng(2)
    img = GrayImage(rng.integers(0, 256, size=(30, 20), dtype=np.uint8))
    out = normalize_image(img)
    assert abs(out.mean()) < 1e-12
    assert abs(out.std() - 1.0) < 1e-12
    shifted = normalize_image(img, target_mean=5.0, target_std=2.0)
    assert abs(shifted.mean() - 5.0) < 1e-10
    assert abs(shifted.std() - 2.0) < 1e-10


def test_normalize_image_constant():
    img = GrayImage(np.full((8, 8), 137, dtype=np.uint8))
    out = normalize_image(img, target_mean=0.25)
    assert (out == 0.25).all()


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
        got = extract_tbls(ref, img, geom, fill=0.0)
        lat = geom.lattice_t.astype(np.float64)
        c, s = math.cos(ref.theta), math.sin(ref.theta)
        want = ref.x + lat[:, 0] * c - lat[:, 1] * s
        assert np.allclose(got, want, atol=1e-9)


def test_extract_tbls_fill_outside():
    geom = small_geometry()
    img = np.ones((40, 40), dtype=np.float64)
    ref = Minutia(2.0, 2.0, 0.0)  # patch sticks far out of the image
    out = extract_tbls(ref, img, geom, fill=0.0)
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
# differently from gaussian_response. The exponent's terms reach
# r_m^2 / (2 sigma_r0^2) (about 356 at the defaults), so the error is about
# float64 eps times that, 8e-14; the bound leaves room for the few roundings
# per term.
MBLS_TOL = 1e-12


def mbls_oracle(minutiae, geom, spread):
    return np.array(
        [build_mbls(m, minutiae, geom, spread) for m in minutiae]
    ).reshape(len(minutiae), geom.n_m)


def tbls_oracle(minutiae, img, geom, fill=0.0):
    return np.array(
        [extract_tbls(m, img, geom, fill) for m in minutiae]
    ).reshape(len(minutiae), geom.n_t)


def random_minutiae(rng, n, lo, hi):
    return [
        Minutia(float(x), float(y), float(t))
        for x, y, t in zip(
            rng.uniform(lo, hi, n), rng.uniform(lo, hi, n), rng.uniform(0, 2 * math.pi, n)
        )
    ]


def default_geometry():
    return StructureGeometry.create(r_m=80.0, r_t=40.0, downscale_area=10.0)


def test_mbls_matrix_matches_build_mbls_at_defaults():
    rng = np.random.default_rng(41)
    geom, spread = default_geometry(), SpreadModel()
    for n in (2, 5, 40):
        minutiae = random_minutiae(rng, n, 0.0, 256.0)
        got = mbls_matrix(minutiae, geom, spread)
        assert got.shape == (n, geom.n_m)
        assert np.max(np.abs(got - mbls_oracle(minutiae, geom, spread))) <= MBLS_TOL


def test_mbls_matrix_blocks_split_references(monkeypatch):
    # three pairs per block, so most references straddle a block boundary
    rng = np.random.default_rng(43)
    geom, spread = small_geometry(), SpreadModel()
    minutiae = random_minutiae(rng, 12, 30.0, 70.0)
    whole = mbls_matrix(minutiae, geom, spread)
    monkeypatch.setattr(local_structures, "_MBLS_BLOCK_ELEMENTS", 3 * geom.n_m)
    blocked = mbls_matrix(minutiae, geom, spread)
    assert np.max(np.abs(blocked - whole)) <= MBLS_TOL
    assert np.max(np.abs(blocked - mbls_oracle(minutiae, geom, spread))) <= MBLS_TOL


def test_mbls_matrix_edge_cases():
    geom, spread = small_geometry(), SpreadModel()
    assert mbls_matrix([], geom, spread).shape == (0, geom.n_m)
    single = mbls_matrix([Minutia(50.0, 50.0, 0.3)], geom, spread)
    assert single.shape == (1, geom.n_m) and not single.any()

    # nobody within r_m of anybody: all rows zero, like the oracle
    apart = [Minutia(0.0, 0.0, 0.0), Minutia(100.0, 0.0, 1.0), Minutia(0.0, 100.0, 2.0)]
    assert not mbls_matrix(apart, geom, spread).any()

    # one isolated minutia among neighbors keeps a zero row
    mixed = [Minutia(50.0, 50.0, 0.0), Minutia(60.0, 52.0, 1.0), Minutia(200.0, 200.0, 2.0)]
    got = mbls_matrix(mixed, geom, spread)
    assert got[:2].any() and not got[2].any()
    assert np.max(np.abs(got - mbls_oracle(mixed, geom, spread))) <= MBLS_TOL

    # two distinct minutiae at one position see each other at distance 0
    twins = [Minutia(50.0, 50.0, 0.0), Minutia(50.0, 50.0, 1.0), Minutia(58.0, 47.0, 2.5)]
    got = mbls_matrix(twins, geom, spread)
    assert got.all(axis=1).any()
    assert np.max(np.abs(got - mbls_oracle(twins, geom, spread))) <= MBLS_TOL


def test_mbls_matrix_dense_template_within_tolerance():
    # 100 minutiae packed into one disc: every pair is in range
    rng = np.random.default_rng(47)
    geom, spread = default_geometry(), SpreadModel()
    minutiae = random_minutiae(rng, 100, 100.0, 150.0)
    got = mbls_matrix(minutiae, geom, spread)
    assert np.max(np.abs(got - mbls_oracle(minutiae, geom, spread))) <= MBLS_TOL
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
    for fill in (0.0, -2.0):
        got = tbls_matrix(minutiae, img, geom, fill)
        assert got.shape == (len(minutiae), geom.n_t)
        assert np.array_equal(got, tbls_oracle(minutiae, img, geom, fill))
    assert (got[-1] == -2.0).all()


def test_tbls_matrix_edge_cases(monkeypatch):
    geom = small_geometry()
    img = np.arange(40.0).reshape(40, 1)  # one pixel wide
    assert tbls_matrix([], img, geom).shape == (0, geom.n_t)
    minutiae = [Minutia(0.0, 10.0, 0.0), Minutia(0.0, 20.0, math.pi / 2), Minutia(0.0, 39.0, 1.0)]
    want = tbls_oracle(minutiae, img, geom)
    assert np.array_equal(tbls_matrix(minutiae, img, geom), want)
    assert np.array_equal(tbls_matrix(minutiae[:1], img, geom), want[:1])
    # one row per block gives the same rows
    monkeypatch.setattr(local_structures, "_TBLS_BLOCK_ELEMENTS", 1)
    assert np.array_equal(tbls_matrix(minutiae, img, geom), want)
