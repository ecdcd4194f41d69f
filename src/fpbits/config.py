"""Pipeline configuration.

One flat dataclass covers every tunable stage parameter; the on-disk form is
a plain ``key = value`` text file with ``#`` comments. The serialized text
is also embedded verbatim in trained model containers, so a model always
carries the exact configuration it was built with.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

from .errors import MalformedHeader
from .template_io import read_text


@dataclass
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
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise MalformedHeader(f"{f.name} must be finite, got {value}")
        # comparisons are written so that they fail on NaN as well
        for name in ("r_m", "r_t", "sigma_t0", "sigma_t_slope", "sigma_r0", "sigma_r_slope"):
            if not getattr(self, name) > 0.0:
                raise MalformedHeader(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.downscale_area >= 1.0:
            raise MalformedHeader(
                f"downscale_area must be >= 1, got {self.downscale_area}"
            )
        if not self.sigma_t_slope >= self.sigma_r_slope:
            raise MalformedHeader(
                f"sigma_t_slope ({self.sigma_t_slope}) must be >= sigma_r_slope "
                f"({self.sigma_r_slope})"
            )
        minimums = (
            ("n_p", 2), ("K", 1), ("N_c", 1), ("top_t", 1), ("kmeans_max_iters", 1),
            ("enroll_size", 1), ("min_nL", 1), ("seed", 0),
        )
        for name, low in minimums:
            if getattr(self, name) < low:
                raise MalformedHeader(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.max_nL < self.min_nL:
            raise MalformedHeader(
                f"max_nL ({self.max_nL}) must be >= min_nL ({self.min_nL})"
            )


# removed keys that older model texts still carry, with the one value that
# keeps their meaning: the line is accepted and ignored
_RETIRED = {"augment_pool": 0}

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
    the offending line number, as does a retired key with any value but the
    one it still accepts.
    """
    values = dataclasses.asdict(base) if base is not None else dataclasses.asdict(
        PipelineConfig()
    )
    types = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedHeader(f"config line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in _RETIRED:
            try:
                retired_ok = int(val) == _RETIRED[key]
            except ValueError:
                retired_ok = False
            if not retired_ok:
                raise MalformedHeader(
                    f"config line {lineno}: {key!r} was removed; only "
                    f"'{key} = {_RETIRED[key]}' is accepted, got {val!r}"
                )
            continue
        if key not in values:
            raise MalformedHeader(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = _convert(val, type(values[key]))
        except ValueError:
            raise MalformedHeader(
                f"config line {lineno}: bad value {val!r} for {key!r}"
            ) from None
    return PipelineConfig(**values)


def _convert(val: str, target: type):
    if target is bool:
        low = val.lower()
        if low not in _BOOL_WORDS:
            raise ValueError(val)
        return _BOOL_WORDS[low]
    if target is int:
        return int(val)
    if target is float:
        return float(val)
    return val


def load_config(path: str) -> PipelineConfig:
    return parse_config(read_text(path))
