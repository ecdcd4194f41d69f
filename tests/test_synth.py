"""Synthetic dataset generation: determinism, geometry, rendering."""

import math

import numpy as np

from fpbits.synth import (
    SynthParams,
    keyed_rng,
    make_impression,
    make_master,
    render_clean,
    render_image,
    synth_dataset,
)


def small_params(**overrides):
    base = dict(n_subjects=3, n_impressions=2, width=128, height=128,
                n_minutiae=12, seed=5)
    base.update(overrides)
    return SynthParams(**base)


def test_keyed_rng_reproducible():
    a = keyed_rng(7, 1, 2, 3).normal(size=5)
    b = keyed_rng(7, 1, 2, 3).normal(size=5)
    c = keyed_rng(7, 1, 2, 4).normal(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dataset_deterministic():
    params = small_params()
    d1 = synth_dataset(params)
    d2 = synth_dataset(params)
    assert d1.keys() == d2.keys()
    for key in d1:
        t1, i1 = d1[key]
        t2, i2 = d2[key]
        assert np.array_equal(i1.pixels, i2.pixels)
        assert len(t1) == len(t2)
        for a, b in zip(t1.minutiae, t2.minutiae):
            assert a.x == b.x and a.y == b.y and a.theta == b.theta


def test_impressions_independent_of_generation_order():
    # drawing one impression in isolation gives the same result as drawing
    # it inside the full sweep: randomness is keyed, not sequential
    params = small_params()
    items = synth_dataset(params)
    master = make_master(params, 2)
    template, image = make_impression(master, params, 2, 1)
    t_ref, i_ref = items[("s003", "02")]
    assert np.array_equal(image.pixels, i_ref.pixels)
    assert [(m.x, m.y, m.theta) for m in template.minutiae] == [
        (m.x, m.y, m.theta) for m in t_ref.minutiae
    ]


def test_dataset_shape_and_ids():
    params = small_params()
    items = synth_dataset(params)
    assert len(items) == 6
    assert ("s001", "01") in items and ("s003", "02") in items
    for (sid, iid), (template, image) in items.items():
        assert template.subject_id == sid and template.impression_id == iid
        assert image.width == 128 and image.height == 128
        assert image.pixels.dtype == np.uint8


def test_master_minutiae_separated_and_in_margin():
    params = small_params(n_minutiae=20, min_separation=9.0, margin=20.0)
    master = make_master(params, 0)
    pts = [(m.x, m.y) for m in master.minutiae]
    for i, (x, y) in enumerate(pts):
        assert 20.0 <= x <= params.width - 20.0
        assert 20.0 <= y <= params.height - 20.0
        for x2, y2 in pts[i + 1:]:
            assert math.hypot(x - x2, y - y2) >= 9.0


def test_impression_minutiae_inside_image():
    params = small_params(n_subjects=4, n_impressions=4)
    for (sid, iid), (template, _) in synth_dataset(params).items():
        for m in template.minutiae:
            assert 0.0 <= m.x < params.width
            assert 0.0 <= m.y < params.height


def test_render_clean_identity_motion():
    params = small_params()
    master = make_master(params, 1)
    template, image = render_clean(master, params)
    assert len(template) == len(master.minutiae)
    # identity motion adds no jitter (rounding from the rotate-about-center
    # arithmetic is the only wiggle allowed)
    for a, b in zip(template.minutiae, master.minutiae):
        assert math.isclose(a.x, b.x, abs_tol=1e-9)
        assert math.isclose(a.y, b.y, abs_tol=1e-9)
    # no noise: rendering twice is bit-identical
    again = render_image(master, params, 0.0, (0.0, 0.0), noise_rng=None)
    assert np.array_equal(image.pixels, again.pixels)


def test_render_clean_applies_exact_transform():
    params = small_params()
    master = make_master(params, 0)
    rot, trans = 0.3, (4.0, -2.5)
    template, _ = render_clean(master, params, rot, trans)
    cx = (params.width - 1) / 2.0
    cy = (params.height - 1) / 2.0
    c, s = math.cos(rot), math.sin(rot)
    kept = 0
    for m in master.minutiae:
        x = c * (m.x - cx) - s * (m.y - cy) + cx + trans[0]
        y = s * (m.x - cx) + c * (m.y - cy) + cy + trans[1]
        if not (0 <= x < params.width and 0 <= y < params.height):
            continue
        got = template.minutiae[kept]
        assert math.isclose(got.x, x, abs_tol=1e-9)
        assert math.isclose(got.y, y, abs_tol=1e-9)
        assert math.isclose(
            math.cos(got.theta - (m.theta + rot)), 1.0, abs_tol=1e-12
        )
        kept += 1
    assert kept == len(template)


def test_noise_changes_pixels_only_with_rng():
    params = small_params(noise_std=6.0)
    master = make_master(params, 0)
    clean = render_image(master, params, 0.0, (0.0, 0.0), noise_rng=None)
    noisy = render_image(
        master, params, 0.0, (0.0, 0.0), noise_rng=keyed_rng(1, 9)
    )
    assert not np.array_equal(clean.pixels, noisy.pixels)


def test_params_boundary_values_are_accepted():
    # the image exactly holds both margins; probabilities and spreads at
    # their ends of the range
    params = small_params(width=48, height=48, margin=24.0, dropout=1.0,
                          insertion=0.0, noise_std=0.0, rotation_deg=0.0, seed=0)
    items = synth_dataset(params)
    assert all(not t.minutiae and image.pixels.shape == (48, 48)
               for t, image in items.values())
