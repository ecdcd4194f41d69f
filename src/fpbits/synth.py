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
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .errors import FieldOutOfRange
from .template_io import GrayImage, Minutia, MinutiaKind, MinutiaTemplate, wrap_angle

_STREAM_MASTER = 1
_STREAM_IMPRESSION = 2
_STREAM_NOISE = 3


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent deterministic generator for one (seed, purpose, ...) key."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *key])))


@dataclass
class SynthParams:
    n_subjects: int = 10
    n_impressions: int = 4
    width: int = 256
    height: int = 256
    n_minutiae: int = 40
    min_separation: float = 10.0
    margin: float = 24.0
    rotation_deg: float = 15.0
    translation_px: float = 20.0
    jitter_base: float = 0.4  # position noise sigma at the image center
    jitter_slope: float = 0.008  # sigma growth per pixel of center distance
    dropout: float = 0.1
    insertion: float = 0.05
    ridge_freq: float = 0.1  # cycles per pixel
    ridge_amp: float = 55.0
    noise_std: float = 6.0
    seed: int = 0

    def __post_init__(self):
        # comparisons are written so that they fail on NaN as well; minutiae
        # are placed between the margins, so the image must hold both
        room = max(1.0, 2.0 * self.margin)
        checks = (
            (("n_subjects", "n_impressions", "n_minutiae", "seed"),
             lambda v: v >= 0, ">= 0"),
            (("min_separation", "margin", "rotation_deg", "translation_px",
              "jitter_base", "jitter_slope", "noise_std"),
             lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
            (("ridge_freq", "ridge_amp"), math.isfinite, "finite"),
            (("dropout", "insertion"), lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
            (("width", "height"), lambda v: v >= room, f">= max(1, 2 * margin) = {room}"),
        )
        for names, ok, rule in checks:
            for name in names:
                value = getattr(self, name)
                if not ok(value):
                    raise FieldOutOfRange(f"{name} must be {rule}, got {value}")


@dataclass
class OrientationField:
    """Smooth quasi-random direction field: a base angle plus two slow waves."""

    base: float
    amps: np.ndarray  # (2,)
    freqs: np.ndarray  # (2, 2) cycles per pixel
    phases: np.ndarray  # (2,)

    def at(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        out = np.full(np.broadcast(x, y).shape, self.base, dtype=np.float64)
        for k in range(2):
            arg = 2.0 * math.pi * (self.freqs[k, 0] * x + self.freqs[k, 1] * y)
            out = out + self.amps[k] * np.sin(arg + self.phases[k])
        return out


@dataclass
class SubjectMaster:
    minutiae: List[Minutia]
    f_field: OrientationField


def _sample_positions(rng: np.random.Generator, params: SynthParams) -> np.ndarray:
    """Rejection-sample up to n_minutiae points with a minimum separation."""
    lo_x, hi_x = params.margin, params.width - params.margin
    lo_y, hi_y = params.margin, params.height - params.margin
    pts: List[Tuple[float, float]] = []
    min_sq = params.min_separation**2
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
    minutiae = []
    for x, y in pos:
        # minutia direction follows the local ridge flow, either way along it
        theta = float(f_field.at(x, y)) + float(rng.choice([0.0, math.pi]))
        theta = wrap_angle(theta + float(rng.normal(0.0, 0.1)))
        kind = MinutiaKind.TERMINATION if rng.random() < 0.5 else MinutiaKind.BIFURCATION
        minutiae.append(Minutia(float(x), float(y), theta, kind, 0))
    return SubjectMaster(minutiae=minutiae, f_field=f_field)


def ridge_texture(
    f_field: OrientationField,
    xs: np.ndarray,
    ys: np.ndarray,
    params: SynthParams,
) -> np.ndarray:
    """Analytic master texture value at master-frame coordinates."""
    phi = f_field.at(xs, ys)
    # oscillate across the local ridge direction
    d = -xs * np.sin(phi) + ys * np.cos(phi)
    return 127.5 + params.ridge_amp * np.sin(2.0 * math.pi * params.ridge_freq * d)


def render_image(
    master: SubjectMaster,
    params: SynthParams,
    rotation: float,
    translation: Tuple[float, float],
    noise_rng: np.random.Generator | None = None,
) -> GrayImage:
    """Render the master texture under a rigid motion, optionally with noise.

    The motion rotates about the image center and then translates, matching
    the minutia transform, so template and texture stay registered.
    """
    w, h = params.width, params.height
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    # invert the motion to find where each output pixel samples the master
    dx = xs - cx - translation[0]
    dy = ys - cy - translation[1]
    c, s = math.cos(rotation), math.sin(rotation)
    xm = c * dx + s * dy + cx
    ym = -s * dx + c * dy + cy
    values = ridge_texture(master.f_field, xm, ym, params)
    if noise_rng is not None and params.noise_std > 0.0:
        values = values + noise_rng.normal(0.0, params.noise_std, size=values.shape)
    return GrayImage(np.clip(np.rint(values), 0, 255).astype(np.uint8))


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


def render_clean(
    master: SubjectMaster,
    params: SynthParams,
    rotation: float = 0.0,
    translation: Tuple[float, float] = (0.0, 0.0),
) -> Tuple[MinutiaTemplate, GrayImage]:
    """Noise-free impression under an exact rigid motion.

    No jitter, dropout, insertion, or pixel noise; minutiae that leave the
    frame are dropped. This is the reference view rigid-motion tests compare
    against.
    """
    w, h = params.width, params.height
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    minutiae = []
    for m in master.minutiae:
        x, y = _transform_point(m.x, m.y, rotation, translation, cx, cy)
        if 0.0 <= x < w and 0.0 <= y < h:
            minutiae.append(Minutia(x, y, wrap_angle(m.theta + rotation), m.kind, 50))
    template = MinutiaTemplate(minutiae, w, h)
    image = render_image(master, params, rotation, translation, noise_rng=None)
    return template, image


def make_impression(
    master: SubjectMaster,
    params: SynthParams,
    subject_index: int,
    impression_index: int,
) -> Tuple[MinutiaTemplate, GrayImage]:
    """One noisy impression of a subject, fully keyed by its indices."""
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
    minutiae: List[Minutia] = []
    for m in master.minutiae:
        if rng.random() < params.dropout:
            continue
        center_dist = math.hypot(m.x - cx, m.y - cy)
        sigma = params.jitter_base + params.jitter_slope * center_dist
        x, y = _transform_point(m.x, m.y, rotation, translation, cx, cy)
        x += float(rng.normal(0.0, sigma))
        y += float(rng.normal(0.0, sigma))
        if not (0.0 <= x < w and 0.0 <= y < h):
            continue
        theta = wrap_angle(m.theta + rotation + float(rng.normal(0.0, 0.03)))
        quality = int(rng.integers(40, 96))
        minutiae.append(Minutia(x, y, theta, m.kind, quality))

    n_insert = int(rng.binomial(len(master.minutiae), params.insertion))
    for _ in range(n_insert):
        x = float(rng.uniform(params.margin, w - params.margin))
        y = float(rng.uniform(params.margin, h - params.margin))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        kind = MinutiaKind.TERMINATION if rng.random() < 0.5 else MinutiaKind.BIFURCATION
        minutiae.append(Minutia(x, y, wrap_angle(theta), kind, int(rng.integers(20, 60))))

    template = MinutiaTemplate(minutiae, w, h)
    image = render_image(master, params, rotation, translation, noise_rng=noise_rng)
    return template, image


def subject_id(index: int) -> str:
    return f"s{index + 1:03d}"


def impression_id(index: int) -> str:
    return f"{index + 1:02d}"


def synth_dataset(
    params: SynthParams,
) -> Dict[Tuple[str, str], Tuple[MinutiaTemplate, GrayImage]]:
    """Generate the full dataset as {(subject_id, impression_id): (template, image)}."""
    items: Dict[Tuple[str, str], Tuple[MinutiaTemplate, GrayImage]] = {}
    for s in range(params.n_subjects):
        master = make_master(params, s)
        for i in range(params.n_impressions):
            template, image = make_impression(master, params, s, i)
            template.subject_id = subject_id(s)
            template.impression_id = impression_id(i)
            items[(template.subject_id, template.impression_id)] = (template, image)
    return items
