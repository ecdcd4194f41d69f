"""Synthetic fingerprint dataset generation.

Each subject owns a master minutia constellation and a smooth orientation
field. Every impression of that subject applies a random rigid motion
(bounded rotation and translation about the image center), perturbs minutia
positions with jitter that grows away from the center (capture distortion is
worst at the edges), drops and inserts a few minutiae, and renders an
oriented sinusoidal ridge texture from the master field under the same
motion, plus pixel noise.

All randomness is keyed: every (seed, purpose, subject, impression) tuple
seeds its own counter-based generator, so results never depend on the order
items are produced in.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .config import check_record, keyed_rng
from .errors import ArrayRecord, FieldOutOfRange
from .template_io import MINUTIA_DTYPE, GrayImage, MinutiaTemplate

_STREAM_MASTER = 1
_STREAM_IMPRESSION = 2
_STREAM_NOISE = 3


# fixed settings of every dataset
MIN_SEPARATION = 10.0  # px between master minutiae
MARGIN = 24.0  # px kept free of master and inserted minutiae at each image edge
JITTER_BASE = 0.4  # position noise sigma at the image center
JITTER_SLOPE = 0.008  # sigma growth per pixel of center distance
RIDGE_FREQ = 0.1  # cycles per pixel
RIDGE_AMP = 55.0


@dataclass(frozen=True)
class SynthParams:
    n_subjects: int = 10
    n_impressions: int = 4
    width: int = 256
    height: int = 256
    n_minutiae: int = 40
    rotation_deg: float = 15.0
    translation_px: float = 20.0
    dropout: float = 0.1
    insertion: float = 0.05
    noise_std: float = 6.0
    seed: int = 0

    def __post_init__(self):
        # counts, sizes and the seed index arrays and keys, so a float is
        # refused rather than rounded, and a bool is never taken as 0 or 1
        check_record(self, FieldOutOfRange, _SYNTH_RULES)


# every float is finite once its type is checked; the image must hold both margins
_ROOM = max(1.0, 2.0 * MARGIN)
_SYNTH_RULES = (
    (("n_subjects", "n_impressions", "n_minutiae", "seed"), lambda v: v >= 0, ">= 0"),
    (("rotation_deg", "translation_px", "noise_std"), lambda v: v >= 0.0, "finite and >= 0"),
    (("dropout", "insertion"), lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    (("width", "height"), lambda v: v >= _ROOM, f">= max(1, 2 * margin) = {_ROOM}"),
)


@dataclass(eq=False)
class OrientationField(ArrayRecord):
    """Smooth quasi-random direction field: a base angle plus two slow waves."""

    base: float
    amps: np.ndarray  # (2,)
    freqs: np.ndarray  # (2, 2) cycles per pixel
    phases: np.ndarray  # (2,)

    def at(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out, t, u = (np.empty(np.broadcast(x, y).shape) for _ in range(3))
        self._into(x, y, out, t, u)
        return out

    def _into(self, x, y, out: np.ndarray, t: np.ndarray, u: np.ndarray) -> None:
        """Write the field at ``(x, y)`` into ``out``; ``t`` and ``u`` are scratch of its shape."""
        out.fill(self.base)
        for k in range(2):
            np.multiply(self.freqs[k, 0], x, out=t)
            np.multiply(self.freqs[k, 1], y, out=u)
            t += u
            t *= 2.0 * math.pi
            t += self.phases[k]
            np.sin(t, out=t)
            t *= self.amps[k]
            out += t


@dataclass(eq=False)
class SubjectMaster(ArrayRecord):
    minutiae: np.ndarray  # MINUTIA_DTYPE, quality 0
    f_field: OrientationField


def _sample_positions(rng: np.random.Generator, params: SynthParams) -> np.ndarray:
    """Rejection-sample up to n_minutiae points with a minimum separation."""
    lo_x, hi_x = MARGIN, params.width - MARGIN
    lo_y, hi_y = MARGIN, params.height - MARGIN
    pts: List[Tuple[float, float]] = []
    min_sq = MIN_SEPARATION**2
    attempts = 0
    while len(pts) < params.n_minutiae and attempts < params.n_minutiae * 200:
        attempts += 1
        x = float(rng.uniform(lo_x, hi_x))
        y = float(rng.uniform(lo_y, hi_y))
        if all((x - px) ** 2 + (y - py) ** 2 >= min_sq for px, py in pts):
            pts.append((x, y))
    return np.array(pts, dtype=np.float64)


def make_master(params: SynthParams, subject_index: int) -> SubjectMaster:
    """Build one subject: constellation, kinds, and an orientation field."""
    rng = keyed_rng(params.seed, _STREAM_MASTER, subject_index)
    f_field = OrientationField(
        base=float(rng.uniform(0.0, math.pi)),
        amps=rng.uniform(0.2, 0.5, size=2),
        freqs=rng.uniform(-0.006, 0.006, size=(2, 2)),
        phases=rng.uniform(0.0, 2.0 * math.pi, size=2),
    )
    pos = _sample_positions(rng, params)
    rows = []
    for x, y in pos:
        # minutia direction follows the local ridge flow, either way along it
        theta = float(f_field.at(x, y)) + float(rng.choice([0.0, math.pi]))
        theta += float(rng.normal(0.0, 0.1))
        kind = "T" if rng.random() < 0.5 else "B"  # termination or bifurcation
        rows.append((x, y, theta, kind, 0))
    # the template's constructor wraps each direction onto [0, 2*pi)
    master = MinutiaTemplate(np.array(rows, dtype=MINUTIA_DTYPE), params.width, params.height)
    return SubjectMaster(minutiae=master.minutiae, f_field=f_field)


# Rendering works on row bands of at most this many pixels, so each float64
# temporary stays at 128 KB (64 rows of a 256-pixel-wide image).
_BAND_ELEMENTS = 1 << 14


def render_scratch(params: SynthParams) -> np.ndarray:
    """The five float64 band temporaries ``render_image`` reuses, as one array."""
    rows = max(1, _BAND_ELEMENTS // params.width)
    return np.empty((5, rows * params.width), dtype=np.float64)


def render_image(
    master: SubjectMaster,
    params: SynthParams,
    rotation: float,
    translation: Tuple[float, float],
    noise_rng: np.random.Generator,
    out: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Render the master texture under a rigid motion into ``out``, with noise.

    ``out`` is a C-contiguous ``(height, width)`` uint8 array and ``scratch``
    an array from ``render_scratch``. The motion
    rotates about the image center and then translates, matching the minutia
    transform, so template and texture stay registered. Each output pixel
    samples the analytic master texture where the inverse motion takes it:
    ``127.5 + RIDGE_AMP * sin(2 pi RIDGE_FREQ d)``, with ``d`` the position
    across the local ridge direction of the orientation field. The image is
    computed a band of rows at a time, in place; the noise is drawn band by
    band from ``noise_rng``, which continues one stream, so the pixels do not
    depend on the band height.
    """
    w, h = params.width, params.height
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    c, s = math.cos(rotation), math.sin(rotation)
    # the inverse motion, split into its column and row parts
    dx = np.arange(w, dtype=np.float64) - cx - translation[0]
    dy = np.arange(h, dtype=np.float64) - cy - translation[1]
    c_dx, ms_dx = c * dx, -s * dx
    s_dy, c_dy = (s * dy)[:, None], (c * dy)[:, None]
    wave = 2.0 * math.pi * RIDGE_FREQ

    rows = scratch.shape[1] // w
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        xm, ym, phi, t, u = (b[: (r1 - r0) * w].reshape(r1 - r0, w) for b in scratch)
        # master-frame coordinates of this band
        np.add(c_dx, s_dy[r0:r1], out=xm)
        xm += cx
        np.add(ms_dx, c_dy[r0:r1], out=ym)
        ym += cy
        master.f_field._into(xm, ym, phi, t, u)
        # oscillate across the local ridge direction
        np.sin(phi, out=t)
        np.cos(phi, out=phi)
        np.negative(xm, out=xm)
        xm *= t
        ym *= phi
        xm += ym
        xm *= wave
        np.sin(xm, out=xm)
        xm *= RIDGE_AMP
        xm += 127.5
        if params.noise_std > 0.0:
            # normal(0, std) is std times these same standard draws
            noise_rng.standard_normal(out=t)
            t *= params.noise_std
            xm += t
        np.rint(xm, out=xm)
        np.clip(xm, 0, 255, out=xm)
        np.copyto(out[r0:r1], xm, casting="unsafe")


def _transform_point(
    x: float, y: float, rotation: float, translation: Tuple[float, float],
    cx: float, cy: float,
) -> Tuple[float, float]:
    c, s = math.cos(rotation), math.sin(rotation)
    dx, dy = x - cx, y - cy
    return (
        c * dx - s * dy + cx + translation[0],
        s * dx + c * dy + cy + translation[1],
    )


def make_impression(
    master: SubjectMaster,
    params: SynthParams,
    subject_index: int,
    impression_index: int,
    pixels: np.ndarray,
    scratch: np.ndarray,
) -> Tuple[MinutiaTemplate, GrayImage]:
    """One noisy impression of a subject, fully keyed and named by its indices.

    The image is rendered into ``pixels``, a ``(height, width)`` uint8 array,
    using the band buffers ``scratch`` from ``render_scratch``.
    """
    rng = keyed_rng(params.seed, _STREAM_IMPRESSION, subject_index, impression_index)
    noise_rng = keyed_rng(params.seed, _STREAM_NOISE, subject_index, impression_index)

    rot_max = math.radians(params.rotation_deg)
    rotation = float(rng.uniform(-rot_max, rot_max))
    translation = (
        float(rng.uniform(-params.translation_px, params.translation_px)),
        float(rng.uniform(-params.translation_px, params.translation_px)),
    )

    w, h = params.width, params.height
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    rows = []
    for x0, y0, theta0, kind, _ in master.minutiae.tolist():
        if rng.random() < params.dropout:
            continue
        center_dist = math.hypot(x0 - cx, y0 - cy)
        sigma = JITTER_BASE + JITTER_SLOPE * center_dist
        x, y = _transform_point(x0, y0, rotation, translation, cx, cy)
        x += float(rng.normal(0.0, sigma))
        y += float(rng.normal(0.0, sigma))
        if not (0.0 <= x < w and 0.0 <= y < h):
            continue
        theta = theta0 + rotation + float(rng.normal(0.0, 0.03))
        rows.append((x, y, theta, kind, int(rng.integers(40, 96))))

    n_insert = int(rng.binomial(len(master.minutiae), params.insertion))
    for _ in range(n_insert):
        x = float(rng.uniform(MARGIN, w - MARGIN))
        y = float(rng.uniform(MARGIN, h - MARGIN))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        kind = "T" if rng.random() < 0.5 else "B"
        rows.append((x, y, theta, kind, int(rng.integers(20, 60))))

    render_image(master, params, rotation, translation, noise_rng, pixels, scratch)
    template = MinutiaTemplate(np.array(rows, dtype=MINUTIA_DTYPE), w, h,
                               subject_id(subject_index), impression_id(impression_index))
    return template, GrayImage(pixels)


def subject_id(index: int) -> str:
    return f"s{index + 1:03d}"


def impression_id(index: int) -> str:
    return f"{index + 1:02d}"


def _worker_count() -> int:
    """Render threads: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def synth_dataset(
    params: SynthParams,
) -> Dict[Tuple[str, str], Tuple[MinutiaTemplate, GrayImage]]:
    """Generate the full dataset as {(subject_id, impression_id): (template, image)}.

    Impressions render on a thread pool; numpy's elementwise kernels and the
    Philox draws release the GIL. Every impression is keyed by its indices,
    so the result does not depend on the number of threads or the order they
    finish in. The masters, the output arrays and one set of band buffers per
    worker are made on the calling thread: memory that worker threads
    allocate stays with their own malloc arenas after they exit.
    """
    jobs = []
    for s in range(params.n_subjects):
        master = make_master(params, s)
        for i in range(params.n_impressions):
            pixels = np.empty((params.height, params.width), dtype=np.uint8)
            jobs.append((master, s, i, pixels))
    workers = _worker_count()
    scratches: queue.SimpleQueue = queue.SimpleQueue()
    for _ in range(workers):
        scratches.put(render_scratch(params))

    def render(job):
        master, s, i, pixels = job
        scratch = scratches.get()  # never waits: one set per worker
        try:
            return make_impression(master, params, s, i, pixels, scratch)
        finally:
            scratches.put(scratch)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        rendered = list(pool.map(render, jobs))
    return {(t.subject_id, t.impression_id): (t, image) for t, image in rendered}
