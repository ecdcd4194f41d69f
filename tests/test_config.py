"""Configuration text: parsing and field validation."""

import pytest

from fpbits.config import PipelineConfig, parse_config, serialize_config
from fpbits.errors import MalformedHeader


def test_defaults_roundtrip():
    config = PipelineConfig()
    assert parse_config(serialize_config(config)) == config


@pytest.mark.parametrize(
    "line",
    [
        "r_m = 0",
        "r_m = -5",
        "r_t = -1",
        "r_t = nan",
        "downscale_area = 0.5",
        "sigma_r0 = 0",
        "sigma_t0 = inf",
        "sigma_t_slope = 0.01",  # below the default radial slope, 0.02
        "sigma_r_slope = 0",
        "omega_M = nan",
        "omega_T = nan",
        "omega_T = -inf",
        "tau_s = nan",
        "n_p = 1",
        "K = 0",
        "N_c = 0",
        "top_t = 0",
        "kmeans_max_iters = 0",
        "augment_pool = -1",
        "enroll_size = 0",
        "min_nL = 0",
        "max_nL = 3",  # below the default min_nL, 4
    ],
)
def test_invalid_values_are_typed_errors(line):
    with pytest.raises(MalformedHeader):
        parse_config(line)


def test_boundary_values_are_accepted():
    config = parse_config(
        "downscale_area = 1\nsigma_t_slope = 0.02\nN_c = 1\nkmeans_max_iters = 1\n"
        "min_nL = 10\nmax_nL = 10\naugment_pool = 0"
    )
    assert config.downscale_area == 1.0 and config.max_nL == config.min_nL
