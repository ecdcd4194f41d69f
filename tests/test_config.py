"""Configuration text: parsing and field validation."""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from fpbits import local_structures
from fpbits.config import PipelineConfig, load_config, parse_config, serialize_config
from fpbits.errors import FpbitsError, MalformedHeader
from fpbits.local_structures import StructureGeometry


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
        "sigma_t0 = 0",
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
        "augment_pool = -1",  # a removed key is unknown, whatever its value
        "augment_pool = 0",
        "enroll_size = 0",
        "min_nL = 0",
        "max_nL = 3",  # below the default min_nL, 4
        "seed = -1",
        "pca_subsample = -5",
    ],
)
def test_invalid_values_are_typed_errors(line):
    with pytest.raises(MalformedHeader):
        parse_config(line)


# every library parameter that takes a config value, by module and function;
# the caller passes the config's value, so the library spells no second default
CONFIG_VALUED = {
    "matching": {
        "lgs_pair_budget": ("min_pairs", "max_pairs", "midpoint", "steepness"),
        "lgs_score": ("min_pairs", "max_pairs", "midpoint", "steepness"),
        "masked_score": ("mask_both",),
        "masked_scores": ("mask_both",),
    },
    "bit_training": {
        "adaptive_threshold": ("alpha", "beta"),
        "train_mask": ("alpha", "beta"),
        "train_finger": ("alpha", "beta"),
    },
    "subspace_fusion": {
        "fuse": ("weight_m", "weight_t"),
        "fuse_matrix": ("weight_m", "weight_t"),
    },
    "codebook": {
        "estimate_radii": ("n_boundary",),
        "kmeans_train": ("max_iters", "seed"),
    },
}
CONFIG_PARAMS = [
    (module, func, name)
    for module, funcs in CONFIG_VALUED.items()
    for func, names in funcs.items()
    for name in names
]


@pytest.mark.parametrize("module, func, name", CONFIG_PARAMS,
                         ids=[f"{f}.{n}" for _, f, n in CONFIG_PARAMS])
def test_config_valued_parameters_have_no_default(module, func, name):
    fn = getattr(importlib.import_module(f"fpbits.{module}"), func)
    param = inspect.signature(fn).parameters[name]
    assert param.default is inspect.Parameter.empty, (func, name, param.default)


def test_boundary_values_are_accepted():
    config = parse_config(
        "downscale_area = 1\nsigma_t_slope = 0.02\nN_c = 1\nkmeans_max_iters = 1\n"
        "min_nL = 10\nmax_nL = 10"
    )
    assert config.downscale_area == 1.0 and config.max_nL == config.min_nL


@pytest.mark.parametrize("value", ["3", "false", ""])
def test_retired_augment_pool_other_values_name_the_key(value):
    # the key was removed, so every value of it is an unknown key's
    with pytest.raises(MalformedHeader, match="line 2: unknown key 'augment_pool'"):
        parse_config(f"K = 7\naugment_pool = {value}\n")


TYPE_CASES = [
    ("n_p", 4.0),
    ("K", 8.5),
    ("K", True),
    ("top_t", 2.5),
    ("enroll_size", 1.5),
    ("seed", "0"),
    ("gate_all", "no"),
    ("gate_all", 1),
    ("mask_both", 0),
    ("r_t", True),
    ("r_t", "40"),
    ("tau_s", None),
    ("r_m", 10**400),  # an int past float's range
]


@pytest.mark.parametrize("field, value", TYPE_CASES,
                         ids=[f"{f}={v!r}"[:24] for f, v in TYPE_CASES])
def test_fields_take_their_defaults_type(field, value):
    with pytest.raises(MalformedHeader, match=f"^{field} must be "):
        PipelineConfig(**{field: value})


def test_float_fields_store_ints_as_floats():
    config = PipelineConfig(r_t=40, tau_s=0)
    assert type(config.r_t) is float and type(config.tau_s) is float
    assert serialize_config(config) == serialize_config(PipelineConfig(r_t=40.0, tau_s=0.0))


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


EXTREME_VALUES = ["0", "-1", "1e9", "1e300", str(2**64), "nan", "inf"]


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(PipelineConfig)])
def test_extreme_values_are_accepted_or_typed_errors(key):
    # an accepted config's geometry is built, and nothing more: no case trains or
    # builds a lattice past the bound
    crashes, accepted = [], 0
    for value in EXTREME_VALUES:
        try:
            StructureGeometry.from_config(parse_config(f"{key} = {value}"))
        except FpbitsError:
            continue
        except Exception as exc:  # anything untyped is a crash
            crashes.append(f"{key} = {value}: {type(exc).__name__}: {exc}")
            continue
        accepted += 1
    assert not crashes, crashes
    assert accepted < len(EXTREME_VALUES)  # nan is no int, bool or finite float


def test_radii_over_the_lattice_bound_are_refused_before_any_lattice_is_built(monkeypatch):
    # the largest whole radius the bound takes
    geometry = StructureGeometry.from_config(PipelineConfig(r_t=128.9, r_m=128.9,
                                                            downscale_area=1.0))
    assert geometry.n_t == geometry.n_m and int(geometry.lattice_t.max()) == 128
    built = []
    monkeypatch.setattr(local_structures, "_disc_lattice", built.append)
    # the config itself refuses them, so no command gets as far as a geometry
    for text, lattice in [("r_t = 129", "lattice_t radius 129.0"),
                          ("r_m = 1e9", "lattice_m radius 316227766"),
                          ("r_m = 408\ndownscale_area = 10", "lattice_m radius 129.0")]:
        with pytest.raises(MalformedHeader, match=f"^{lattice}.* is over the 128 px bound$"):
            parse_config(text)
    with pytest.raises(MalformedHeader, match="^lattice_t radius 129.0 is over the 128 px bound$"):
        PipelineConfig(r_t=129.0)
    assert built == []


def test_load_config_rejects_non_utf8(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"r_m = 8\xff0\n")
    with pytest.raises(MalformedHeader):
        load_config(str(path))
    path.write_bytes(serialize_config(PipelineConfig(K=7)).encode("ascii"))
    assert load_config(str(path)) == PipelineConfig(K=7)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config_keys():
    """The backticked keys in the first column of the README's config table."""
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]


def test_readme_config_table_lists_every_field_once():
    # the README calls the config text the only copy of every value; its
    # table must name exactly the fields a config carries
    keys = readme_config_keys()
    assert len(keys) == len(set(keys)), keys
    assert keys == [f.name for f in dataclasses.fields(PipelineConfig)]


RANGE_MESSAGES = {
    "r_m = 0": "r_m must be > 0, got 0.0",
    "sigma_r_slope = 0": "sigma_r_slope must be > 0, got 0.0",
    "downscale_area = 0.5": "downscale_area must be >= 1, got 0.5",
    "sigma_t_slope = 0.01": "sigma_t_slope (0.01) must be >= sigma_r_slope (0.02)",
    "n_p = 1": "n_p must be >= 2, got 1",
    "K = 0": "K must be >= 1, got 0",
    "kmeans_max_iters = 0": "kmeans_max_iters must be >= 1, got 0",
    "min_nL = 0": "min_nL must be >= 1, got 0",
    "max_nL = 3": "max_nL (3) must be >= min_nL (4)",
    "seed = -1": "seed must be >= 0, got -1",
    "pca_subsample = -5": "pca_subsample must be >= 0, got -5",
    "r_t = nan": "r_t must be finite, got nan",
}


@pytest.mark.parametrize("line", sorted(RANGE_MESSAGES))
def test_range_messages_keep_their_text(line):
    with pytest.raises(MalformedHeader) as info:
        parse_config(line)
    assert str(info.value) == RANGE_MESSAGES[line]
