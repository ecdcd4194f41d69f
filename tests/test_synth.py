"""Synthetic dataset generation: determinism, geometry, rendering."""

import importlib
import math
import sys
import threading

import numpy as np
import pytest

from fpbits import synth
from fpbits.errors import FieldOutOfRange
from fpbits.synth import (
    SynthParams,
    _transform_point,
    keyed_rng,
    make_impression,
    make_master,
    render_image,
    render_scratch,
    synth_dataset,
)
from oracles import (
    minutia_objects,
    orientation_field_oracle,
    render_image_oracle,
    synth_dataset_oracle,
)
from test_perfbench_names import traced_names


def small_params(**overrides):
    base = dict(n_subjects=3, n_impressions=2, width=128, height=128,
                n_minutiae=12, seed=5)
    base.update(overrides)
    return SynthParams(**base)


def render(master, params, rotation, translation, noise_rng):
    pixels = np.empty((params.height, params.width), dtype=np.uint8)
    render_image(master, params, rotation, translation, noise_rng, pixels,
                 render_scratch(params))
    return pixels


def assert_same_dataset(got, want):
    assert list(got) == list(want)
    for key in want:
        (t_got, i_got), (t_want, i_want) = got[key], want[key]
        assert np.array_equal(i_got.pixels, i_want.pixels), key
        assert t_got.minutiae.tolist() == t_want.minutiae.tolist(), key
        assert (t_got.width, t_got.height) == (t_want.width, t_want.height)
        assert (t_got.subject_id, t_got.impression_id) == key


# (width, height, overrides): the default size with and without noise, sizes
# whose height is not a whole number of render bands, and the smallest size,
# which just holds both margins
ORACLE_CASES = {
    "256x256": (256, 256, {}),
    "no-noise": (256, 256, {"noise_std": 0}),
    "300x211": (300, 211, {}),
    "97x61": (97, 61, {}),
    "48x48": (48, 48, {}),
}


@pytest.mark.parametrize("width, height, overrides", ORACLE_CASES.values(),
                         ids=ORACLE_CASES.keys())
def test_dataset_matches_whole_image_oracle(width, height, overrides):
    params = SynthParams(n_subjects=2, n_impressions=2, width=width, height=height,
                         seed=11, **overrides)
    assert_same_dataset(synth_dataset(params), synth_dataset_oracle(params))


@pytest.mark.parametrize("band_elements", [1, 300 * 7, synth._BAND_ELEMENTS],
                         ids=["one-row", "seven-rows", "default"])
def test_renderer_matches_oracle_under_motion(monkeypatch, band_elements):
    # the noise continues one stream across bands, so any band height works
    monkeypatch.setattr(synth, "_BAND_ELEMENTS", band_elements)
    params = small_params(width=300, height=211)
    master = make_master(params, 1)
    for rotation, translation in ((0.0, (0.0, 0.0)), (-0.25, (13.5, -7.25))):
        want = render_image_oracle(master, params, rotation, translation, keyed_rng(3, 4))
        got = render(master, params, rotation, translation, keyed_rng(3, 4))
        assert np.array_equal(got, want.pixels)


def test_field_routine_matches_inline_oracle_on_full_bands():
    # the band buffers render_image hands the routine, and at()'s fresh arrays,
    # against the field code render_image wrote inline, over whole 256x256 images
    params = SynthParams(n_subjects=4)
    scratch = render_scratch(params)
    rows = scratch.shape[1] // params.width
    xs, ys = np.meshgrid(np.arange(256.0), np.arange(256.0))
    for s in range(params.n_subjects):
        master = make_master(params, s)
        field = master.f_field
        for rotation in (0.0, 0.3):
            c, sn = math.cos(rotation), math.sin(rotation)
            xm, ym = c * xs + sn * ys - 9.5, -sn * xs + c * ys + 4.25
            want = orientation_field_oracle(field, xm, ym)
            assert np.array_equal(field.at(xm, ym), want)
            for r0 in range(0, 256, rows):
                band = slice(r0, r0 + rows)
                x_b, y_b, phi, t, u = (b.reshape(rows, params.width) for b in scratch)
                x_b[...], y_b[...] = xm[band], ym[band]
                field._into(x_b, y_b, phi, t, u)
                assert np.array_equal(phi, want[band])
        # make_master reads the field one point at a time
        for x, y in master.minutiae[["x", "y"]].tolist():
            assert float(field.at(x, y)) == float(orientation_field_oracle(field, x, y))


@pytest.mark.parametrize("workers", [1, 3])
def test_dataset_independent_of_worker_count(monkeypatch, workers):
    # more workers than cores, switching threads as often as the interpreter
    # allows: two workers sharing one set of band buffers would show here
    params = small_params(n_subjects=4, n_impressions=3)
    monkeypatch.setattr(synth, "_worker_count", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = synth_dataset(params)
    finally:
        sys.setswitchinterval(interval)
    assert_same_dataset(got, synth_dataset_oracle(params))


def test_render_workers_call_no_traced_function(monkeypatch):
    # the traced benchmark keeps one span stack for every thread, so a layer
    # function called from a render worker would corrupt its span tree
    for layer, _ in traced_names():
        importlib.import_module(f"fpbits.{layer}")
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "fpbits" or n.startswith("fpbits."))]
    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)
        return wrapper

    for layer, name in traced_names():
        original = getattr(sys.modules[f"fpbits.{layer}"], name)
        wrapper = recording(f"{layer}.{name}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    render_threads = set()
    real_render = synth.render_image

    def render_spy(*args, **kwargs):
        render_threads.add(threading.current_thread() is threading.main_thread())
        return real_render(*args, **kwargs)

    monkeypatch.setattr(synth, "render_image", render_spy)
    monkeypatch.setattr(synth, "_worker_count", lambda: 2)
    synth.synth_dataset(small_params())
    assert render_threads == {False}  # every impression rendered on a worker
    assert ("synth.synth_dataset", True) in calls
    assert all(on_main for _, on_main in calls), calls


INT_FIELDS = ("n_subjects", "n_impressions", "width", "height", "n_minutiae", "seed")


@pytest.mark.parametrize("name", INT_FIELDS)
@pytest.mark.parametrize("value", [2.5, 100.0, True], ids=["fraction", "float", "bool"])
def test_params_reject_non_int_counts_sizes_and_seed(name, value):
    with pytest.raises(FieldOutOfRange, match=name):
        SynthParams(**{name: value})


SYNTH_MESSAGES = [
    ({"n_subjects": -1}, "n_subjects must be >= 0, got -1"),
    ({"rotation_deg": -1.0}, "rotation_deg must be finite and >= 0, got -1.0"),
    ({"dropout": 1.5}, "dropout must be in [0, 1], got 1.5"),
    ({"translation_px": math.inf}, "translation_px must be finite, got inf"),
    ({"noise_std": math.nan}, "noise_std must be finite, got nan"),
    ({"width": 40}, "width must be >= max(1, 2 * margin) = 48.0, got 40"),
    ({"height": 30}, "height must be >= max(1, 2 * margin) = 48.0, got 30"),
    # the room rule comes last, so another bad field is named first
    ({"width": 40, "dropout": 2.0}, "dropout must be in [0, 1], got 2.0"),
    ({"n_subjects": 2.5}, "n_subjects must be of type int, got 2.5"),
]


@pytest.mark.parametrize("kwargs, message", SYNTH_MESSAGES,
                         ids=[str(k)[:24] for k, _ in SYNTH_MESSAGES])
def test_range_messages_keep_their_text(kwargs, message):
    with pytest.raises(FieldOutOfRange) as info:
        SynthParams(**kwargs)
    assert str(info.value) == message


REAL_FIELD_CASES = [
    ("dropout", True),  # was taken as 1.0: every minutia dropped
    ("noise_std", True),
    ("rotation_deg", "5"),
    ("insertion", None),
    ("translation_px", 10**400),  # an int past float's range
]


@pytest.mark.parametrize("name, value", REAL_FIELD_CASES,
                         ids=[f"{n}={v!r}"[:24] for n, v in REAL_FIELD_CASES])
def test_real_fields_take_their_defaults_type(name, value):
    with pytest.raises(FieldOutOfRange, match=f"^{name} must be "):
        SynthParams(**{name: value})


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
        assert t1.minutiae.tolist() == t2.minutiae.tolist()


def test_impressions_independent_of_generation_order():
    # drawing one impression in isolation gives the same result as drawing
    # it inside the full sweep: randomness is keyed, not sequential
    params = small_params()
    items = synth_dataset(params)
    master = make_master(params, 2)
    pixels = np.empty((params.height, params.width), dtype=np.uint8)
    template, image = make_impression(master, params, 2, 1, pixels, render_scratch(params))
    t_ref, i_ref = items[("s003", "02")]
    assert np.array_equal(image.pixels, i_ref.pixels)
    assert template.minutiae.tolist() == t_ref.minutiae.tolist()
    assert (template.subject_id, template.impression_id) == ("s003", "02")


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
    params = small_params(n_minutiae=20)
    master = make_master(params, 0)
    pts = master.minutiae[["x", "y"]].tolist()
    assert len(pts) == 20
    for i, (x, y) in enumerate(pts):
        assert synth.MARGIN <= x <= params.width - synth.MARGIN
        assert synth.MARGIN <= y <= params.height - synth.MARGIN
        for x2, y2 in pts[i + 1:]:
            assert math.hypot(x - x2, y - y2) >= synth.MIN_SEPARATION


def test_impression_minutiae_inside_image():
    params = small_params(n_subjects=4, n_impressions=4)
    for (sid, iid), (template, _) in synth_dataset(params).items():
        x, y = template.minutiae["x"], template.minutiae["y"]
        assert ((0.0 <= x) & (x < params.width) & (0.0 <= y) & (y < params.height)).all()


def test_transform_point_identity_motion():
    params = small_params()
    master = make_master(params, 1)
    cx = (params.width - 1) / 2.0
    cy = (params.height - 1) / 2.0
    # rounding from the rotate-about-center arithmetic is the only wiggle allowed
    for m in minutia_objects(master.minutiae):
        x, y = _transform_point(m.x, m.y, 0.0, (0.0, 0.0), cx, cy)
        assert math.isclose(x, m.x, abs_tol=1e-9)
        assert math.isclose(y, m.y, abs_tol=1e-9)
    # no noise: rendering twice, from generators in different states, is bit-identical
    clean = small_params(noise_std=0.0)
    image = render(master, clean, 0.0, (0.0, 0.0), keyed_rng(1, 9))
    again = render(master, clean, 0.0, (0.0, 0.0), keyed_rng(2, 9))
    assert np.array_equal(image, again)


def test_transform_point_applies_exact_transform():
    params = small_params()
    master = make_master(params, 0)
    rot, trans = 0.3, (4.0, -2.5)
    cx = (params.width - 1) / 2.0
    cy = (params.height - 1) / 2.0
    c, s = math.cos(rot), math.sin(rot)
    for m in minutia_objects(master.minutiae):
        x = c * (m.x - cx) - s * (m.y - cy) + cx + trans[0]
        y = s * (m.x - cx) + c * (m.y - cy) + cy + trans[1]
        got_x, got_y = _transform_point(m.x, m.y, rot, trans, cx, cy)
        assert math.isclose(got_x, x, abs_tol=1e-9)
        assert math.isclose(got_y, y, abs_tol=1e-9)


def test_noise_changes_pixels_only_with_rng():
    # the same generator draws the noise of a noisy image and nothing for a clean one
    params = small_params(noise_std=6.0)
    master = make_master(params, 0)
    clean = render(master, small_params(noise_std=0.0), 0.0, (0.0, 0.0), keyed_rng(1, 9))
    noisy = render(master, params, 0.0, (0.0, 0.0), keyed_rng(1, 9))
    assert not np.array_equal(clean, noisy)


def test_params_boundary_values_are_accepted():
    # the image exactly holds both margins; probabilities and spreads at
    # their ends of the range
    params = small_params(width=48, height=48, dropout=1.0,
                          insertion=0.0, noise_std=0.0, rotation_deg=0.0, seed=0)
    items = synth_dataset(params)
    assert all(len(t) == 0 and image.pixels.shape == (48, 48)
               for t, image in items.values())
