"""Minutia template and gray image I/O.

Two on-disk forms are supported:

* a native line-oriented text format (``FPT`` header, one minutia per line),
* binary 8-bit PGM (``P5``) images.

Parsers validate every field and raise typed errors from :mod:`fpbits.errors`;
they never raise bare exceptions on malformed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import (
    AngleUnparseable,
    ArrayRecord,
    BadMagic,
    DimensionMismatch,
    FieldOutOfRange,
    MalformedHeader,
    ModelMissing,
    check_arrays,
)

TWO_PI = 2.0 * math.pi

TEXT_MAGIC = "FPT"
TEXT_VERSION = 1


# One row per minutia: position in pixels, direction in radians on [0, 2*pi),
# kind letter (one of MINUTIA_KINDS) and an integer quality in [0, 100] that is
# carried through parsing and serialization but ignored by every later stage.
MINUTIA_DTYPE = np.dtype(
    [("x", "f8"), ("y", "f8"), ("theta", "f8"), ("kind", "U1"), ("quality", "i8")],
    align=True,
)
MINUTIA_KINDS = ("T", "B", "O")  # termination, bifurcation, other


@dataclass(eq=False, frozen=True)
class MinutiaTemplate(ArrayRecord):
    """One impression's minutiae, a ``MINUTIA_DTYPE`` array, and its capture size.

    The constructor is the one place template values are checked. It keeps a
    read-only copy of ``minutiae``, directions wrapped onto [0, 2*pi), so a
    template holds only what the text format writes and reads back. It
    raises the parser's errors: ``MalformedHeader`` for the size, and
    ``FieldOutOfRange`` or ``AngleUnparseable`` whose ``row`` names the
    first failing minutia (the message names its first failing field).
    """

    minutiae: np.ndarray
    width: int
    height: int
    subject_id: str = ""
    impression_id: str = ""

    def __post_init__(self):
        width, height = self.width, self.height
        if type(width) is not int or type(height) is not int or min(width, height) < 0:
            raise MalformedHeader(f"image bounds must be ints >= 0, got {width!r}x{height!r}")
        # MINUTIA_DTYPE's fields in any byte order or padding; a column that a
        # cast would round or cut, such as a float or bool quality, is refused
        check_arrays(self, FieldOutOfRange, freeze=False, minutiae=(MINUTIA_DTYPE, None))
        columns = self.minutiae.astype(MINUTIA_DTYPE)
        x, y, theta, kind, quality = (columns[name] for name in MINUTIA_DTYPE.names)
        # past 2**53 px, float64 positions no longer tell neighboring pixels apart
        x_end, y_end = float(min(width, 2**53)), float(min(height, 2**53))
        checks = (
            (~(np.isfinite(x) & np.isfinite(y)), FieldOutOfRange,
             "non-finite position ({x}, {y})"),
            (~((x >= 0.0) & (x < x_end) & (y >= 0.0) & (y < y_end)), FieldOutOfRange,
             "position ({x}, {y}) outside image bounds {width}x{height}"),
            (~np.isfinite(theta), AngleUnparseable, "non-finite direction {theta}"),
            (~np.isin(kind, MINUTIA_KINDS), FieldOutOfRange, "unknown minutia kind {kind!r}"),
            (~((quality >= 0) & (quality <= 100)), FieldOutOfRange,
             "quality {quality} outside [0, 100]"),
        )
        failed = np.array([mask for mask, _, _ in checks])
        if failed.any():
            row = int(np.flatnonzero(failed.any(axis=0))[0])
            _, error, message = checks[int(np.argmax(failed[:, row]))]
            values = dict(zip(MINUTIA_DTYPE.names, columns[row].item()))
            raise error(message.format(**values, width=width, height=height), row=row)
        np.fmod(theta, TWO_PI, out=theta)
        theta[theta < 0.0] += TWO_PI
        theta[theta >= TWO_PI] = 0.0  # fmod rounds tiny negatives up to the period
        object.__setattr__(self, "minutiae", columns)
        check_arrays(self, FieldOutOfRange, minutiae=(MINUTIA_DTYPE, None))

    def __len__(self) -> int:
        return len(self.minutiae)


@dataclass(eq=False, frozen=True)
class GrayImage(ArrayRecord):
    """8-bit grayscale raster, pixels row-major with pixel[0] at top-left.

    The one check of pixels: 2-d, at least 1x1, values a ``uint8`` cast keeps.
    """

    pixels: np.ndarray  # (height, width) uint8

    def __post_init__(self):
        try:
            pixels = np.asarray(self.pixels)
        except ValueError as exc:  # a ragged nested list
            raise DimensionMismatch(f"pixels are not a rectangular array: {exc}") from None
        if pixels.ndim == 2 and pixels.dtype != np.uint8:  # a uint8 array needs no scan
            if pixels.dtype.kind not in "buif":
                raise FieldOutOfRange(f"pixels must be numbers, got dtype {pixels.dtype}")
            with np.errstate(invalid="ignore"):  # NaN casts with a warning
                cast = pixels.astype(np.uint8)
            for r, c in np.argwhere(cast != pixels)[:1]:  # the first bad pixel
                raise FieldOutOfRange(f"pixel {pixels[r, c]} at row {r} col {c} is not 8-bit")
            pixels = cast
        if 0 in pixels.shape:
            raise DimensionMismatch(f"need a 2-d array of at least 1x1 pixels, got {pixels.shape}")
        object.__setattr__(self, "pixels", pixels)
        check_arrays(self, DimensionMismatch, pixels=(int, None, None))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


# ---------------------------------------------------------------------------
# native text format
# ---------------------------------------------------------------------------

def read_bytes(path: str) -> bytes:
    """The bytes of a file: the one way the command line reads an input file.

    Raises:
        ModelMissing: the file cannot be read (missing, a directory, not
            permitted, ...); the message names it.
    """
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ModelMissing(f"cannot read {path!r}: {exc.strerror or exc}") from None


def read_text(path: str) -> str:
    """The UTF-8 text of a file, decoded and nothing more: :func:`text_lines` ends its lines.

    Raises:
        ModelMissing: the file cannot be read (see :func:`read_bytes`).
        MalformedHeader: the file is not UTF-8; the message names it.
    """
    try:
        return read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"{path}: not UTF-8 text: {exc.reason}") from None


def text_lines(text: str) -> List[str]:
    """``str.splitlines``, but only "\\n", "\\r\\n" and "\\r" end a line, as text mode reads them."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def parse_text_template(
    text: str, subject_id: str = "", impression_id: str = ""
) -> MinutiaTemplate:
    """Parse the native text template format.

    Layout::

        FPT 1 <width> <height>
        # comment lines and blank lines are skipped
        <x> <y> <theta> <kind> <quality>

    ``kind`` is one of T (termination), B (bifurcation), O (other).
    ``theta`` is radians, any finite real; it is normalized onto [0, 2*pi).

    Subject and impression identity are not part of the format; callers carry
    them in the filename and may pass them through here. The values are
    checked by the ``MinutiaTemplate`` constructor; its errors gain the line.

    Raises:
        MalformedHeader: first line is not a valid ``FPT`` header.
        FieldOutOfRange: a coordinate, kind or quality violates its range.
        AngleUnparseable: a direction field is not a finite number.
    """
    lines = text_lines(text)
    if not lines:
        raise MalformedHeader("empty input")

    head = lines[0].split()
    if len(head) != 4 or head[0] != TEXT_MAGIC:
        raise MalformedHeader(f"bad header line: {lines[0]!r}")
    try:
        version, width, height = int(head[1]), int(head[2]), int(head[3])
    except ValueError:
        raise MalformedHeader(f"non-integer header fields: {lines[0]!r}") from None
    if version != TEXT_VERSION:
        raise MalformedHeader(f"unknown text template version {version}")

    rows, line_numbers = [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 5:
            raise FieldOutOfRange(
                f"expected 5 fields, got {len(parts)}: {stripped!r}", lineno
            )
        sx, sy, stheta, skind, squal = parts
        try:
            x, y = float(sx), float(sy)
        except ValueError:
            raise FieldOutOfRange(f"unparseable position {sx!r} {sy!r}", lineno) from None
        try:
            theta = float(stheta)
        except ValueError:
            raise AngleUnparseable(f"unparseable direction {stheta!r}", lineno) from None
        if len(skind) != 1:  # a U1 column would keep only its first letter
            raise FieldOutOfRange(f"unknown minutia kind {skind!r}", lineno)
        try:
            quality = np.int64(squal)
        except (ValueError, OverflowError):
            raise FieldOutOfRange(f"quality {squal!r} is not an int64", lineno) from None
        rows.append((x, y, theta, skind, quality))
        line_numbers.append(lineno)

    try:
        return MinutiaTemplate(
            np.array(rows, dtype=MINUTIA_DTYPE), width, height,
            subject_id=subject_id, impression_id=impression_id,
        )
    except (FieldOutOfRange, AngleUnparseable) as exc:
        # the constructor names a minutia by its row, a file by its line
        raise type(exc)(str(exc), line_numbers[exc.row]) from None


def serialize_text_template(template: MinutiaTemplate) -> str:
    """Render a template in the native text format.

    Positions and directions are written with ``repr`` precision, so
    ``parse_text_template(serialize_text_template(t))`` reproduces every
    column bit for bit. Subject and impression ids are not part of the
    format and are not written.
    """
    out = [f"{TEXT_MAGIC} {TEXT_VERSION} {template.width} {template.height}"]
    for x, y, theta, kind, quality in template.minutiae.tolist():
        out.append(f"{x!r} {y!r} {theta!r} {kind} {quality}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# PGM images
# ---------------------------------------------------------------------------

def read_pgm(data: bytes) -> GrayImage:
    """Read a binary (P5) PGM image with maxval at most 255.

    Raises:
        BadMagic: not a P5 file.
        MalformedHeader: header tokens missing, non-numeric, or maxval > 255.
        DimensionMismatch: pixel payload shorter than width * height.
    """
    if len(data) < 2 or data[:2] != b"P5":
        raise BadMagic("not a binary PGM (P5) image")

    # header = 4 whitespace-separated tokens, '#' comments run to end of line
    pos = 2
    tokens: List[int] = []
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise MalformedHeader("PGM header ended before width/height/maxval")
        tok = data[start:pos]
        if not tok.isdigit():
            raise MalformedHeader(f"non-numeric PGM header token {tok!r}")
        tokens.append(int(tok))
    if pos >= len(data):
        raise MalformedHeader("PGM header ended before pixel data")
    pos += 1  # exactly one whitespace byte separates maxval from pixels

    width, height, maxval = tokens
    if width <= 0 or height <= 0:
        raise MalformedHeader(f"bad PGM dimensions {width}x{height}")
    if not (0 < maxval <= 255):
        raise MalformedHeader(f"unsupported PGM maxval {maxval}")

    need = width * height
    raw = data[pos : pos + need]
    if len(raw) < need:
        raise DimensionMismatch(
            f"PGM payload holds {len(raw)} bytes, header declares {need}"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(height, width)
    return GrayImage(pixels.copy())


def write_pgm(image: GrayImage) -> bytes:
    """Encode an 8-bit image as binary PGM."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels.tobytes()
