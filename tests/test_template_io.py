"""Template and image format round-trips and failure modes."""

import math

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
from fpbits.template_io import (
    GrayImage,
    Minutia,
    MinutiaKind,
    MinutiaTemplate,
    TWO_PI,
    parse_text_template,
    read_bytes,
    read_pgm,
    read_text,
    serialize_text_template,
    wrap_angle,
    write_pgm,
)


def random_template(rng, width=300, height=400, n=None):
    n = int(rng.integers(0, 40)) if n is None else n
    kinds = list(MinutiaKind)
    minutiae = [
        Minutia(
            float(rng.uniform(0, width - 1e-9)),
            float(rng.uniform(0, height - 1e-9)),
            float(rng.uniform(0, TWO_PI)),
            kinds[int(rng.integers(3))],
            int(rng.integers(0, 101)),
        )
        for _ in range(n)
    ]
    return MinutiaTemplate(minutiae, width, height)


# ---------------------------------------------------------------------------
# angles and value objects
# ---------------------------------------------------------------------------

def test_wrap_angle_range():
    rng = np.random.default_rng(1)
    for theta in rng.uniform(-50.0, 50.0, size=500):
        w = wrap_angle(float(theta))
        assert 0.0 <= w < TWO_PI
        # same direction modulo a full turn
        assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-12)
        assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-12)


def test_wrap_angle_period_edge():
    assert wrap_angle(TWO_PI) == 0.0
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(-1e-18) == 0.0  # fmod rounds back up to the period


def test_minutia_normalizes_theta():
    m = Minutia(1.0, 2.0, -math.pi / 2)
    assert math.isclose(m.theta, 3 * math.pi / 2)


def test_minutia_quality_range():
    with pytest.raises(FieldOutOfRange):
        Minutia(0.0, 0.0, 0.0, quality=101)
    with pytest.raises(FieldOutOfRange):
        Minutia(0.0, 0.0, 0.0, quality=-1)


def test_template_bounds_checked():
    with pytest.raises(FieldOutOfRange):
        MinutiaTemplate([Minutia(10.0, 5.0, 0.0)], width=10, height=10)
    with pytest.raises(FieldOutOfRange):
        MinutiaTemplate([Minutia(-0.5, 5.0, 0.0)], width=10, height=10)


def test_gray_image_needs_2d():
    with pytest.raises(DimensionMismatch):
        GrayImage(np.zeros(5, dtype=np.uint8))


# ---------------------------------------------------------------------------
# native text format
# ---------------------------------------------------------------------------

def test_text_roundtrip_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = random_template(rng)
        back = parse_text_template(serialize_text_template(t))
        assert back.width == t.width and back.height == t.height
        assert len(back) == len(t)
        for a, b in zip(t.minutiae, back.minutiae):
            assert a.x == b.x and a.y == b.y and a.theta == b.theta
            assert a.kind == b.kind and a.quality == b.quality


def test_text_comments_and_blanks_skipped():
    text = "FPT 1 100 100\n\n# a comment\n  # indented comment\n5.0 6.0 0.25 T 80\n"
    t = parse_text_template(text)
    assert len(t) == 1
    assert t.minutiae[0].kind is MinutiaKind.TERMINATION


def test_text_theta_normalized_on_parse():
    t = parse_text_template("FPT 1 100 100\n5 5 -1.5707963267948966 B 0\n")
    assert math.isclose(t.minutiae[0].theta, 3 * math.pi / 2)


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
    assert e.value.line == 3

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
