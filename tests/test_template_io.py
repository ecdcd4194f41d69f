"""Template and image format round-trips and failure modes."""

import math
import re
import warnings

import numpy as np
import pytest

from fpbits.errors import (
    AngleUnparseable,
    BadMagic,
    DimensionMismatch,
    FieldOutOfRange,
    MalformedHeader,
    ModelMissing,
)
from fpbits.synth import SynthParams, synth_dataset
from fpbits.template_io import (
    MINUTIA_DTYPE,
    MINUTIA_KINDS,
    GrayImage,
    MinutiaTemplate,
    TWO_PI,
    parse_text_template,
    read_bytes,
    read_pgm,
    read_text,
    serialize_text_template,
    write_pgm,
)
from oracles import wrap_angle


def random_template(rng, width=300, height=400, n=None):
    n = int(rng.integers(0, 40)) if n is None else n
    rows = [
        (
            float(rng.uniform(0, width - 1e-9)),
            float(rng.uniform(0, height - 1e-9)),
            float(rng.uniform(0, TWO_PI)),
            MINUTIA_KINDS[int(rng.integers(3))],
            int(rng.integers(0, 101)),
        )
        for _ in range(n)
    ]
    return MinutiaTemplate(np.array(rows, dtype=MINUTIA_DTYPE), width, height)


def directions(thetas):
    """A one-row-per-angle template's stored directions."""
    rows = np.zeros(len(thetas), dtype=MINUTIA_DTYPE)
    rows["theta"] = thetas
    rows["kind"] = "O"
    return MinutiaTemplate(rows, 1, 1).minutiae["theta"]


def same_columns(a, b):
    """Equal columns, every float64 bit included (so ``-0.0`` is not ``0.0``)."""
    floats = ("x", "y", "theta")
    return all(
        np.array_equal(a[name].view(np.uint64), b[name].view(np.uint64)) for name in floats
    ) and np.array_equal(a[["kind", "quality"]], b[["kind", "quality"]])


# ---------------------------------------------------------------------------
# the template's columns
# ---------------------------------------------------------------------------

def test_wrap_angle_range():
    # a template wraps every direction as the scalar oracle does, bit for bit
    rng = np.random.default_rng(1)
    thetas = np.concatenate([
        rng.uniform(-50.0, 50.0, size=500),
        rng.standard_normal(500) * 1e-15,
        [0.0, -0.0, -1e-18, -1e-300, TWO_PI, -TWO_PI, 4 * math.pi, 1e300, -1e300,
         math.nextafter(TWO_PI, 0.0), 3 * math.pi / 2],
    ])
    got = directions(thetas)
    want = np.array([wrap_angle(float(t)) for t in thetas])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert ((got >= 0.0) & (got < TWO_PI)).all()
    # same direction modulo a full turn
    assert np.allclose(np.cos(got[:500]), np.cos(thetas[:500]), rtol=0, atol=1e-12)
    assert np.allclose(np.sin(got[:500]), np.sin(thetas[:500]), rtol=0, atol=1e-12)


def test_wrap_angle_period_edge():
    # fmod rounds back up to the period
    assert directions([TWO_PI, 0.0, -1e-18]).tolist() == [0.0, 0.0, 0.0]


def test_minutia_normalizes_theta():
    assert math.isclose(directions([-math.pi / 2])[0], 3 * math.pi / 2)


def test_minutia_quality_range():
    for quality in (101, -1):
        rows = np.array([(0.0, 0.0, 0.0, "O", quality)], dtype=MINUTIA_DTYPE)
        with pytest.raises(FieldOutOfRange, match=r"outside \[0, 100\]"):
            MinutiaTemplate(rows, 1, 1)


def test_template_keeps_a_read_only_copy():
    rows = np.array([(1.0, 2.0, -1.0, "T", 5)], dtype=MINUTIA_DTYPE)
    t = MinutiaTemplate(rows, 10, 10)
    assert rows["theta"][0] == -1.0  # the caller's array is not wrapped in place
    assert not t.minutiae.flags.writeable
    with pytest.raises(ValueError):
        t.minutiae["x"][0] = 50.0
    assert len(t) == 1 and len(MinutiaTemplate(t.minutiae[:0], 10, 10)) == 0


def test_template_bounds_checked():
    for x in (10.0, -0.5):
        rows = np.array([(5.0, 5.0, 0.0, "O", 0), (x, 5.0, 0.0, "O", 0)],
                        dtype=MINUTIA_DTYPE)
        with pytest.raises(FieldOutOfRange, match="outside image bounds") as e:
            MinutiaTemplate(rows, width=10, height=10)
        assert e.value.row == 1 and e.value.line is None


def test_template_names_the_first_failing_minutia_and_field():
    rows = np.array([(5.0, 5.0, 0.0, "T", 50),
                     (5.0, 5.0, math.inf, "Z", 500),  # direction, kind and quality
                     (50.0, 5.0, 0.0, "T", 50)],
                    dtype=MINUTIA_DTYPE)
    with pytest.raises(AngleUnparseable, match="^non-finite direction inf$") as e:
        MinutiaTemplate(rows, 10, 10)
    assert e.value.row == 1
    rows["theta"][1] = 0.0
    with pytest.raises(FieldOutOfRange, match="^unknown minutia kind 'Z'$") as e:
        MinutiaTemplate(rows, 10, 10)
    assert e.value.row == 1
    text = serialize_text_template(MinutiaTemplate(rows[:1], 10, 10))
    text += "5.0 5.0 0.0 T 500\n50.0 5.0 0.0 T 50\n"
    with pytest.raises(FieldOutOfRange, match="^line 3: quality 500 outside"):
        parse_text_template(text)


def test_template_needs_a_minutia_array():
    for minutiae in ([], [(1.0, 2.0, 0.0, "T", 5)], np.zeros(3),
                     np.zeros((2, 2), dtype=MINUTIA_DTYPE)):
        with pytest.raises(FieldOutOfRange, match="MINUTIA_DTYPE"):
            MinutiaTemplate(minutiae, 10, 10)


def test_gray_image_needs_2d():
    with pytest.raises(DimensionMismatch):
        GrayImage(np.zeros(5, dtype=np.uint8))


@pytest.mark.parametrize("pixels, error, message", [
    (np.array([[300.0, -1.0]]), FieldOutOfRange, "pixel 300.0 at row 0 col 0 is not 8-bit"),
    (np.array([[1.0, np.nan]]), FieldOutOfRange, "pixel nan at row 0 col 1 is not 8-bit"),
    (np.array([[1.0, np.inf]]), FieldOutOfRange, "pixel inf at row 0 col 1 is not 8-bit"),
    (np.array([[0.0, 2.5]]), FieldOutOfRange, "pixel 2.5 at row 0 col 1 is not 8-bit"),
    (np.array([[1], [256]]), FieldOutOfRange, "pixel 256 at row 1 col 0 is not 8-bit"),
    (np.array([[-1]], dtype=np.int8), FieldOutOfRange, "pixel -1 at row 0 col 0 is not 8-bit"),
    (np.array([["7"]]), FieldOutOfRange, "pixels must be numbers"),
    (np.zeros((0, 0), dtype=np.uint8), DimensionMismatch, "at least 1x1 pixels"),
    (np.zeros((3, 0)), DimensionMismatch, "at least 1x1 pixels"),
    ([[1, 2], [3]], DimensionMismatch, "not a rectangular array"),
], ids=["out-of-range", "nan", "inf", "fraction", "above-255", "negative-int8",
        "text", "0x0", "3x0", "ragged"])
def test_gray_image_refuses_what_pgm_cannot_hold(pixels, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and warns of no cast on the way
        with pytest.raises(error, match=re.escape(message)):
            GrayImage(pixels)
    # and leaves the pixels it was given writeable: it froze a 0x0 uint8 array
    assert not isinstance(pixels, np.ndarray) or pixels.flags.writeable


def test_gray_image_keeps_every_8_bit_value():
    # uint8 pixels are taken as they are, with no scan or copy
    raw = np.arange(256, dtype=np.uint8).reshape(16, 16)
    assert GrayImage(raw).pixels is raw
    for pixels in (raw.astype(np.float64), raw.astype(np.int64), raw.tolist()):
        image = GrayImage(pixels)
        assert image.pixels.dtype == np.uint8 and np.array_equal(image.pixels, raw)
    assert GrayImage(np.array([[True, False]])).pixels.tolist() == [[1, 0]]
    # the smallest image survives the PGM format
    one = GrayImage(np.array([[200]]))
    assert np.array_equal(read_pgm(write_pgm(one)).pixels, one.pixels)


def row_with(values, **dtypes):
    """A good minutia, then ``values`` in a ``MINUTIA_DTYPE`` whose named
    columns take the given dtypes instead."""
    dtype = [(name, dtypes.get(name, MINUTIA_DTYPE[name])) for name in MINUTIA_DTYPE.names]
    return np.array([(5.0, 5.0, 0.0, "T", 50), values], dtype=dtype)


# Each case is a minutia or a size that the text parser rejects, and a template
# refuses it with the parser's error. The object form of a minutia accepted a
# non-finite direction, an unknown kind, a float or bool quality and a
# fractional or negative size, each of which it then wrote as unreadable text.
BAD_TEMPLATES = {
    "theta nan": ((10.0, 10.0, math.nan, "T", 50), {}, (100, 100), AngleUnparseable),
    "theta inf": ((10.0, 10.0, math.inf, "T", 50), {}, (100, 100), AngleUnparseable),
    "theta -inf": ((10.0, 10.0, -math.inf, "T", 50), {}, (100, 100), AngleUnparseable),
    "kind X": ((10.0, 10.0, 0.0, "X", 50), {}, (100, 100), FieldOutOfRange),
    "kind TB": ((10.0, 10.0, 0.0, "TB", 50), {"kind": "U2"}, (100, 100), FieldOutOfRange),
    "quality 50.5": ((10.0, 10.0, 0.0, "T", 50.5), {"quality": "f8"}, (100, 100),
                     FieldOutOfRange),
    "quality True": ((10.0, 10.0, 0.0, "T", True), {"quality": "?"}, (100, 100),
                     FieldOutOfRange),
    "quality 101": ((10.0, 10.0, 0.0, "T", 101), {}, (100, 100), FieldOutOfRange),
    "quality -1": ((10.0, 10.0, 0.0, "T", -1), {}, (100, 100), FieldOutOfRange),
    "x nan": ((math.nan, 10.0, 0.0, "T", 50), {}, (100, 100), FieldOutOfRange),
    "y inf": ((10.0, math.inf, 0.0, "T", 50), {}, (100, 100), FieldOutOfRange),
    "x at width": ((100.0, 10.0, 0.0, "T", 50), {}, (100, 100), FieldOutOfRange),
    "width 100.5": (None, {}, (100.5, 10), MalformedHeader),
    "width -5": (None, {}, (-5, 10), MalformedHeader),
    "height True": (None, {}, (10, True), MalformedHeader),
}


@pytest.mark.parametrize("values, dtypes, size, error", BAD_TEMPLATES.values(),
                         ids=BAD_TEMPLATES.keys())
def test_template_refuses_what_the_text_format_rejects(values, dtypes, size, error):
    width, height = size
    text = f"FPT 1 {width} {height}\n5.0 5.0 0.0 T 50\n"
    if values is None:
        rows = np.zeros(0, dtype=MINUTIA_DTYPE)
    else:
        rows = row_with(values, **dtypes)
        text += " ".join(str(v) for v in values) + "\n"
    with pytest.raises(error) as built:
        MinutiaTemplate(rows, width, height)
    with pytest.raises(error) as parsed:
        parse_text_template(text)
    if error is not MalformedHeader:
        assert parsed.value.line == 3
        assert built.value.row == (None if dtypes else 1)  # a whole column, or one row


# ---------------------------------------------------------------------------
# native text format
# ---------------------------------------------------------------------------

def accepted_templates():
    """Synthetic templates, edge directions and sizes, and no minutiae at all."""
    for seed, extra in ((1, {}), (7, {"dropout": 0.4}), (23, {"insertion": 0.5})):
        params = SynthParams(n_subjects=2, n_impressions=2, width=96, height=96,
                             n_minutiae=14, seed=seed, **extra)
        for template, _ in synth_dataset(params).values():
            yield template
    edges = [(0.0, 0.0, math.nextafter(TWO_PI, 0.0), "B", 0),
             (-0.0, 9.5, -1e-300, "O", 100),
             (3.25, -0.0, -0.0, "T", 7)]
    yield MinutiaTemplate(np.array(edges, dtype=MINUTIA_DTYPE), 10, 10)
    yield MinutiaTemplate(np.zeros(0, dtype=MINUTIA_DTYPE), 0, 0)
    yield MinutiaTemplate(np.array(edges, dtype=MINUTIA_DTYPE), 10**400, 2**53 + 1)


def test_text_roundtrip_exact():
    rng = np.random.default_rng(7)
    templates = list(accepted_templates()) + [random_template(rng) for _ in range(50)]
    assert any(len(t) == 0 for t in templates)
    for t in templates:
        back = parse_text_template(serialize_text_template(t))
        assert (back.width, back.height) == (t.width, t.height)
        assert back.minutiae.dtype == MINUTIA_DTYPE
        assert same_columns(back.minutiae, t.minutiae)


def test_text_comments_and_blanks_skipped():
    text = "FPT 1 100 100\n\n# a comment\n  # indented comment\n5.0 6.0 0.25 T 80\n"
    t = parse_text_template(text)
    assert len(t) == 1
    assert t.minutiae[0]["kind"] == "T"


def test_text_theta_normalized_on_parse():
    t = parse_text_template("FPT 1 100 100\n5 5 -1.5707963267948966 B 0\n")
    assert math.isclose(t.minutiae["theta"][0], 3 * math.pi / 2)


def test_text_header_errors():
    with pytest.raises(MalformedHeader):
        parse_text_template("")
    with pytest.raises(MalformedHeader):
        parse_text_template("FTP 1 100 100\n")
    with pytest.raises(MalformedHeader):
        parse_text_template("FPT 2 100 100\n")
    with pytest.raises(MalformedHeader):
        parse_text_template("FPT 1 abc 100\n")
    with pytest.raises(MalformedHeader):
        parse_text_template("FPT 1 -3 100\n")
    with pytest.raises(MalformedHeader):
        parse_text_template("FPT 1 100\n")


def test_text_record_errors_carry_line_numbers():
    with pytest.raises(FieldOutOfRange) as e:
        parse_text_template("FPT 1 100 100\n5 5 0 T 50 extra\n")
    assert e.value.line == 2

    with pytest.raises(FieldOutOfRange) as e:
        parse_text_template("FPT 1 100 100\n# ok\n500 5 0 T 50\n")
    assert e.value.line == 3 and str(e.value).startswith("line 3: ")

    with pytest.raises(AngleUnparseable) as e:
        parse_text_template("FPT 1 100 100\n5 5 north T 50\n")
    assert e.value.line == 2

    with pytest.raises(AngleUnparseable):
        parse_text_template("FPT 1 100 100\n5 5 nan T 50\n")

    with pytest.raises(FieldOutOfRange):
        parse_text_template("FPT 1 100 100\n5 5 0 X 50\n")
    with pytest.raises(FieldOutOfRange):
        parse_text_template("FPT 1 100 100\n5 5 0 T 101\n")
    with pytest.raises(FieldOutOfRange):
        parse_text_template("FPT 1 100 100\nx y 0 T 50\n")
    # tokens a U1 kind or an int64 quality column cannot hold whole
    for line in ("5 5 0 TB 50", "5 5 0 T\x00 50", "5 5 0 T 99999999999999999999"):
        with pytest.raises(FieldOutOfRange) as e:
            parse_text_template(f"FPT 1 100 100\n5 5 0 T 50\n{line}\n")
        assert e.value.line == 3


def test_text_ids_pass_through():
    t = parse_text_template("FPT 1 10 10\n", subject_id="s1", impression_id="02")
    assert t.subject_id == "s1" and t.impression_id == "02"


# ---------------------------------------------------------------------------
# PGM images
# ---------------------------------------------------------------------------

def test_pgm_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        h, w = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        img = GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
        back = read_pgm(write_pgm(img))
        assert np.array_equal(back.pixels, img.pixels)


def test_pgm_header_comment():
    data = b"P5\n# made by hand\n2 2\n255\n\x01\x02\x03\x04"
    img = read_pgm(data)
    assert img.pixels.tolist() == [[1, 2], [3, 4]]


def test_pgm_errors():
    with pytest.raises(BadMagic):
        read_pgm(b"P6\n2 2\n255\n\x00\x00\x00\x00")
    with pytest.raises(MalformedHeader):
        read_pgm(b"P5\n2 2\n70000\n" + b"\x00" * 4)
    with pytest.raises(MalformedHeader):
        read_pgm(b"P5\n2 x\n255\n\x00\x00\x00\x00")
    with pytest.raises(MalformedHeader):
        read_pgm(b"P5\n2 2")
    with pytest.raises(DimensionMismatch):
        read_pgm(b"P5\n2 2\n255\n\x00\x00\x00")


def test_read_text_line_endings_as_text_mode(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_bytes(b"a\r\nb\rc\n\r\n\xc3\xa9\r")
    with open(path, "r", encoding="utf-8") as fh:
        assert read_text(str(path)) == fh.read() == "a\nb\nc\n\n\u00e9\n"


@pytest.mark.parametrize("how", ["missing", "directory"])
def test_read_bytes_unreadable_path_is_model_missing(tmp_path, how):
    path = tmp_path / "input.bin"
    if how == "directory":
        path.mkdir()
    for reader in (read_bytes, read_text):
        with pytest.raises(ModelMissing, match="input.bin"):
            reader(str(path))
