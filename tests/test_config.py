"""Configuration text: parsing and field validation."""

import numpy as np
import pytest

from fpbits.config import PipelineConfig, load_config, parse_config, serialize_config
from fpbits.errors import FpbitsError, MalformedHeader


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
        "seed = -1",
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


@pytest.mark.parametrize("value", ["3", "false", ""])
def test_retired_augment_pool_other_values_name_the_key(value):
    # "augment_pool = 0" is accepted and ignored (test_boundary_values_are_accepted)
    with pytest.raises(MalformedHeader, match="line 2: 'augment_pool' was removed"):
        parse_config(f"K = 7\naugment_pool = {value}\n")


def _mutate(rng, blob):
    """Overwrite, truncate, insert into or replace a byte string."""
    out = bytearray(blob)
    op = int(rng.integers(4))
    if op == 0:
        for _ in range(int(rng.integers(1, 8))):
            out[int(rng.integers(len(out)))] = int(rng.integers(256))
    elif op == 1:
        out = out[: int(rng.integers(len(out) + 1))]
    elif op == 2:
        pos = int(rng.integers(len(out) + 1))
        out[pos:pos] = rng.integers(0, 256, size=int(rng.integers(1, 16)), dtype=np.uint8).tobytes()
    else:
        out = bytearray(rng.integers(0, 256, size=int(rng.integers(0, 200)), dtype=np.uint8))
    return bytes(out)


def test_fuzz_config_text():
    # every mutated config text parses or is rejected with a typed error
    rng = np.random.default_rng(1304)
    seed = serialize_config(PipelineConfig()).encode("ascii")
    crashes = []
    parsed = 0
    for _ in range(3000):
        payload = _mutate(rng, seed)
        try:
            parse_config(payload.decode("latin-1"))
        except FpbitsError:
            continue
        except Exception as exc:  # anything untyped is a crash
            crashes.append(f"{type(exc).__name__}: {exc}")
            continue
        parsed += 1
    assert not crashes, f"{len(crashes)} untyped, first: {crashes[0]}"
    assert parsed > 0


def test_load_config_rejects_non_utf8(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"r_m = 8\xff0\n")
    with pytest.raises(MalformedHeader):
        load_config(str(path))
    path.write_bytes(serialize_config(PipelineConfig(K=7)).encode("ascii"))
    assert load_config(str(path)) == PipelineConfig(K=7)
