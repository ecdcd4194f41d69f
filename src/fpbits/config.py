"""Pipeline configuration.

One flat dataclass covers every tunable stage parameter; the on-disk form is
a plain ``key = value`` text file with ``#`` comments. The serialized text
is also embedded verbatim in trained model containers, so a model always
carries the exact configuration it was built with.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import MalformedHeader
from .template_io import read_text, text_lines

MAX_LATTICE_RADIUS = 128  # px of whole radius, about 51,000 points: see lattice_radii


@dataclass(frozen=True)
class PipelineConfig:
    # local structure geometry
    r_m: float = 80.0  # minutia-descriptor disc radius, pixels
    r_t: float = 40.0  # texture-descriptor disc radius, pixels
    downscale_area: float = 10.0  # area shrink factor for the minutia disc
    sigma_t0: float = 3.0  # tangential bump spread at distance 0
    sigma_t_slope: float = 0.05  # tangential spread growth per pixel
    sigma_r0: float = 3.0  # radial bump spread at distance 0
    sigma_r_slope: float = 0.02  # radial spread growth per pixel

    # subspace fusion
    n_p: int = 50  # principal components kept per descriptor family
    omega_M: float = 0.6  # fusion weight, minutia part
    omega_T: float = 0.4  # fusion weight, texture part
    pca_subsample: int = 3000  # cap on PCA training vectors (0 = no cap)

    # codebook
    K: int = 200  # clusters = bit-string length (desk-scale default)
    N_c: int = 300  # external neighbors averaged into a boundary radius
    tau_s: float = -0.05  # adjusted-distance gate for setting a bit
    top_t: int = 5  # clusters nominated per fused vector
    gate_all: bool = True  # gate every nomination (False: only the best)
    kmeans_max_iters: int = 100

    # bit training
    alpha: float = 0.45  # reliability bar floor
    beta: float = 0.4  # bar steepness over power rank
    enroll_size: int = 3  # impressions per finger used for enrollment
    mask_both: bool = True  # apply the trained mask to both strings

    # pre-conversion matcher
    min_nL: int = 4
    max_nL: int = 10
    mu_P: float = 35.0  # pair-budget sigmoid midpoint (minutia count)
    tau_P: float = 0.4  # pair-budget sigmoid steepness

    # determinism
    seed: int = 0

    def __post_init__(self):
        check_record(self, MalformedHeader, _CONFIG_RULES)
        if not self.sigma_t_slope >= self.sigma_r_slope:
            raise MalformedHeader(f"sigma_t_slope ({self.sigma_t_slope}) must be >= "
                                  f"sigma_r_slope ({self.sigma_r_slope})")
        if self.max_nL < self.min_nL:
            raise MalformedHeader(f"max_nL ({self.max_nL}) must be >= min_nL ({self.min_nL})")
        for name, radius in zip(("lattice_m", "lattice_t"), self.lattice_radii):
            if math.floor(radius) > MAX_LATTICE_RADIUS:
                raise MalformedHeader(f"{name} radius {radius} is over the "
                                      f"{MAX_LATTICE_RADIUS} px bound")

    @property
    def lattice_radii(self) -> tuple[float, float]:
        """The disc radii of the minutia lattice (after area downscaling) and the texture one."""
        return self.r_m * (1.0 / math.sqrt(self.downscale_area)), self.r_t


_CONFIG_RULES = (
    (("r_m", "r_t", "sigma_t0", "sigma_t_slope", "sigma_r0", "sigma_r_slope"),
     lambda v: v > 0.0, "> 0"),
    (("downscale_area",), lambda v: v >= 1.0, ">= 1"),
    (("omega_M", "omega_T"), lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    (("n_p",), lambda v: v >= 2, ">= 2"),
    (("K", "N_c", "top_t", "kmeans_max_iters", "enroll_size", "min_nL"),
     lambda v: v >= 1, ">= 1"),
    (("seed", "pca_subsample"), lambda v: v >= 0, ">= 0"),
)


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent deterministic generator for one (seed, purpose, ...) key."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *key])))


def check_fields(values: Mapping, kinds: Mapping[str, type], error: type, rules=()) -> dict:
    """The entry of ``values`` for each name in ``kinds``, checked, or raise ``error``.

    Each entry must have its kind (a missing one reads as None). A float also
    takes an int, must be finite and comes back a float, so text spells it
    one way. A bool is an int to Python, so it is refused where no bool is
    asked for. Then ``ok(value)`` must hold for the names of each ``(names,
    ok, text)`` of ``rules``, or the error reads ``{name} must be {text}, got {value}``.
    """
    checked = {}
    for name, kind in kinds.items():
        value = values.get(name)
        takes = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, takes):
            raise error(f"{name} must be of type {kind.__name__}, got {value!r}")
        if kind is float:
            if not abs(value) <= sys.float_info.max:
                raise error(f"{name} must be finite, got {value}")
            value = float(value)
        checked[name] = value
    for names, ok, text in rules:
        for name in names:
            if not ok(checked[name]):
                raise error(f"{name} must be {text}, got {checked[name]}")
    return checked


def check_record(record, error: type, rules=(), kinds=None) -> None:
    """:func:`check_fields` of a frozen dataclass in place, by ``kinds`` or its defaults' types."""
    kinds = kinds or {f.name: type(f.default) for f in dataclasses.fields(record)}
    for name, value in check_fields(vars(record), kinds, error, rules).items():
        object.__setattr__(record, name, value)


_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False}


def serialize_config(config: PipelineConfig) -> str:
    """Render a config as ``key = value`` lines in field order."""
    lines = []
    for f in dataclasses.fields(config):
        lines.append(f"{f.name} = {getattr(config, f.name)}")
    return "\n".join(lines) + "\n"


def parse_config(text: str, base: Optional[PipelineConfig] = None) -> PipelineConfig:
    """Parse ``key = value`` lines over a base config (default values).

    Unknown keys and unparseable values raise :class:`MalformedHeader` with
    the offending line number.
    """
    values = dataclasses.asdict(base) if base is not None else dataclasses.asdict(
        PipelineConfig()
    )

    for lineno, raw in enumerate(text_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedHeader(f"config line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in values:
            raise MalformedHeader(f"config line {lineno}: unknown key {key!r}")
        kind = type(values[key])
        try:
            values[key] = _BOOL_WORDS[val.lower()] if kind is bool else kind(val)
        except (KeyError, ValueError):
            raise MalformedHeader(
                f"config line {lineno}: bad value {val!r} for {key!r}"
            ) from None
    return PipelineConfig(**values)


def load_config(path: str) -> PipelineConfig:
    return parse_config(read_text(path))
