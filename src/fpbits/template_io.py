"""Minutia template and gray image I/O.

Two on-disk forms are supported:

* a native line-oriented text format (``FPT`` header, one minutia per line),
* binary 8-bit PGM (``P5``) images.

Parsers validate every field and raise typed errors from :mod:`fpbits.errors`;
they never raise bare exceptions on malformed input.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import (
    AngleUnparseable,
    BadMagic,
    DimensionMismatch,
    FieldOutOfRange,
    MalformedHeader,
    ModelMissing,
)

TWO_PI = 2.0 * math.pi

TEXT_MAGIC = "FPT"
TEXT_VERSION = 1


class MinutiaKind(enum.Enum):
    """Minutia point type."""

    TERMINATION = "T"
    BIFURCATION = "B"
    OTHER = "O"


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
    """One minutia point: position in pixels, direction in radians.

    ``theta`` is stored normalized to [0, 2*pi). ``quality`` is an integer
    confidence in [0, 100]; it is carried through parsing and serialization
    but ignored by every downstream stage.
    """

    x: float
    y: float
    theta: float
    kind: MinutiaKind = MinutiaKind.OTHER
    quality: int = 0

    def __post_init__(self):
        if not (0.0 <= self.theta < TWO_PI):
            object.__setattr__(self, "theta", wrap_angle(self.theta))
        if not (0 <= self.quality <= 100):
            raise FieldOutOfRange(f"quality {self.quality} outside [0, 100]")


@dataclass
class MinutiaTemplate:
    """An ordered list of minutiae plus the capture geometry they live in."""

    minutiae: List[Minutia]
    width: int
    height: int
    subject_id: str = ""
    impression_id: str = ""

    def __post_init__(self):
        for m in self.minutiae:
            _check_bounds(m.x, m.y, self.width, self.height)

    def __len__(self) -> int:
        return len(self.minutiae)


@dataclass
class GrayImage:
    """8-bit grayscale raster, pixels row-major with pixel[0] at top-left."""

    pixels: np.ndarray  # (height, width) uint8

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
        if self.pixels.ndim != 2:
            raise DimensionMismatch(
                f"expected a 2-d pixel array, got shape {self.pixels.shape}"
            )

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def _check_bounds(x: float, y: float, width: int, height: int, line: int | None = None):
    if not (math.isfinite(x) and math.isfinite(y)):
        raise FieldOutOfRange(f"non-finite position ({x}, {y})", line)
    if not (0.0 <= x < width) or not (0.0 <= y < height):
        raise FieldOutOfRange(
            f"position ({x}, {y}) outside image bounds {width}x{height}", line
        )


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
    """The UTF-8 text of a file, line endings as text mode reads them.

    Raises:
        ModelMissing: the file cannot be read (see :func:`read_bytes`).
        MalformedHeader: the file is not UTF-8; the message names it.
    """
    try:
        text = read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"{path}: not UTF-8 text: {exc.reason}") from None
    # universal newlines: "\r\n" and a lone "\r" end a line as "\n" does
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
    them in the filename and may pass them through here.

    Raises:
        MalformedHeader: first line is not a valid ``FPT`` header.
        FieldOutOfRange: a coordinate or quality violates its range.
        AngleUnparseable: a direction field is not a finite number.
    """
    lines = text.splitlines()
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
    if width < 0 or height < 0:
        raise MalformedHeader(f"negative image bounds {width}x{height}")

    minutiae: List[Minutia] = []
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
        _check_bounds(x, y, width, height, lineno)
        try:
            theta = float(stheta)
        except ValueError:
            raise AngleUnparseable(f"unparseable direction {stheta!r}", lineno) from None
        if not math.isfinite(theta):
            raise AngleUnparseable(f"non-finite direction {stheta!r}", lineno)
        try:
            kind = MinutiaKind(skind)
        except ValueError:
            raise FieldOutOfRange(f"unknown minutia kind {skind!r}", lineno) from None
        try:
            quality = int(squal)
        except ValueError:
            raise FieldOutOfRange(f"unparseable quality {squal!r}", lineno) from None
        if not (0 <= quality <= 100):
            raise FieldOutOfRange(f"quality {quality} outside [0, 100]", lineno)
        minutiae.append(Minutia(x, y, wrap_angle(theta), kind, quality))

    return MinutiaTemplate(
        minutiae, width, height, subject_id=subject_id, impression_id=impression_id
    )


def serialize_text_template(template: MinutiaTemplate) -> str:
    """Render a template in the native text format.

    Positions and directions are written with ``repr`` precision, so
    ``parse_text_template(serialize_text_template(t))`` reproduces every
    geometric field exactly. Subject and impression ids are not part of the
    format and are not written.
    """
    out = [f"{TEXT_MAGIC} {TEXT_VERSION} {template.width} {template.height}"]
    for m in template.minutiae:
        out.append(f"{m.x!r} {m.y!r} {m.theta!r} {m.kind.value} {m.quality}")
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
