"""Versioned binary containers for trained artifacts.

Models and finger models share one layout: a 4-byte magic, a version word,
a length-prefixed JSON header (sorted keys, so identical content is
identical bytes), then the named arrays' raw little-endian data in header
order. Writing the same artifact twice produces the same bytes, and the
model and finger loaders accept only that encoding.

* ``FPBM`` - pipeline model: config text, descriptor lattices, both
  subspace models, and the codebook.
* ``FPFM`` - one finger's fitted statistics, mask, and enrolled string.
* ``FPBS`` - one bit-string: a fixed 16-byte header, then the packed bits.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .bit_training import FingerModel
from .codebook import BitString, Codebook
from .config import PipelineConfig, check_fields, parse_config, serialize_config
from .errors import (
    ArrayRecord,
    BadMagic,
    MalformedHeader,
    ModelMissing,
    TruncatedRecord,
    UnsupportedVersion,
    check_arrays,
)
from .local_structures import StructureGeometry
from .subspace_fusion import PcaModel
from .template_io import read_bytes

MODEL_MAGIC = b"FPBM"
BITS_MAGIC = b"FPBS"
FINGER_MAGIC = b"FPFM"
CONTAINER_VERSION = 1

_DTYPES = {"f8": "<f8", "i8": "<i8", "u1": "|u1"}


@dataclass(eq=False, frozen=True)
class PipelineModel(ArrayRecord):
    """Everything needed to turn a (template, image) pair into a bit-string.

    ``config`` is the only home of every configured value; ``geometry`` is
    built from it, keeps it as ``geometry.config`` and adds only the two
    disc lattices. ``population_mean`` is the two-stage mean of the
    training impressions' distance vectors, which enrollment measures each
    finger's spread against. The constructor ties its parts' shapes to the config.
    """

    config: PipelineConfig
    pca_m: PcaModel
    pca_t: PcaModel
    codebook: Codebook
    population_mean: np.ndarray  # (K,)
    geometry: StructureGeometry = field(init=False)

    def __post_init__(self):
        geometry = StructureGeometry.from_config(self.config)
        object.__setattr__(self, "geometry", geometry)
        p, k = self.config.n_p, self.config.K
        check_arrays(self.pca_m, MalformedHeader, basis=(float, geometry.n_m, p))
        check_arrays(self.pca_t, MalformedHeader, basis=(float, geometry.n_t, p))
        check_arrays(self.codebook, MalformedHeader, centroids=(float, k, 2 * p))
        check_arrays(self, MalformedHeader, population_mean=(float, k))


# ---------------------------------------------------------------------------
# generic container
# ---------------------------------------------------------------------------

def _pack(magic: bytes, meta: dict, arrays: List[Tuple[str, np.ndarray, str]]) -> bytes:
    header = {
        "meta": meta,
        "arrays": [
            {"name": name, "dtype": code, "shape": list(arr.shape)}
            for name, arr, code in arrays
        ],
    }
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = _head(magic, len(hjson))
    # join copies each array's buffer once; ascontiguousarray converts only an
    # array whose dtype or layout differs. Every load re-saves, so this is on
    # the load path too
    data = [np.ascontiguousarray(arr, dtype=_DTYPES[code]) for _, arr, code in arrays]
    return b"".join([head, hjson, *data])


def _head(magic: bytes, *words: int) -> bytes:
    """A container's head: the magic, the version word, then ``words``, little-endian."""
    return magic + b"".join(w.to_bytes(4, "little") for w in (CONTAINER_VERSION, *words))


def _check_head(magic: bytes, data: bytes, size: int) -> None:
    """Check the magic and version words of a container at least ``size`` bytes long."""
    if len(data) < 4 or data[:4] != magic:
        raise BadMagic(f"expected magic {magic!r}, got {data[:4]!r}")
    if len(data) < size:
        raise TruncatedRecord(f"{magic.decode()} header truncated")
    version = int.from_bytes(data[4:8], "little")
    if version != CONTAINER_VERSION:
        raise UnsupportedVersion(f"{magic.decode()} version {version} not supported")


def _unpack(
    magic: bytes,
    data: bytes,
    meta_schema: Dict[str, type],
    array_schema: Dict[str, Tuple[str, Tuple]],
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Decode a container: its head, its header's fields and its arrays.

    ``meta_schema`` gives each header field's type, for :func:`check_fields`.
    ``array_schema`` maps each array name to its dtype code and shape, in
    which ``None`` takes any size; how sizes agree is the records' rule.
    Every array is required, and no other may appear.
    """
    _check_head(magic, data, 12)
    hlen = int.from_bytes(data[8:12], "little")
    if len(data) < 12 + hlen:
        raise TruncatedRecord("container JSON header truncated")
    try:
        header = json.loads(data[12 : 12 + hlen].decode("utf-8"))
    # ValueError covers bad UTF-8, bad JSON and integers past Python's
    # digit limit; RecursionError covers absurdly deep nesting
    except (ValueError, RecursionError) as exc:
        raise MalformedHeader(f"container header is not valid JSON: {exc}") from None
    if (
        not isinstance(header, dict)
        or not isinstance(header.get("meta"), dict)
        or not isinstance(header.get("arrays"), list)
    ):
        raise MalformedHeader("container header needs a 'meta' object and an 'arrays' list")
    meta = check_fields(header["meta"], meta_schema, MalformedHeader)

    arrays: Dict[str, np.ndarray] = {}
    pos = 12 + hlen
    for spec in header["arrays"]:
        name = spec.get("name") if isinstance(spec, dict) else None
        if name not in array_schema or name in arrays:
            raise MalformedHeader(f"unexpected or repeated array {name!r}")
        code, dims = array_schema[name]
        shape = spec.get("shape")
        if (
            spec.get("dtype") != code
            or not isinstance(shape, list)
            or len(shape) != len(dims)
            or any(type(n) is not int or n < 0 for n in shape)
            or any(dim not in (None, n) for dim, n in zip(dims, shape))
        ):
            raise MalformedHeader(
                f"array {name!r} must be {code} of shape {dims}, got "
                f"{spec.get('dtype')!r} {shape!r}"
            )
        dtype = np.dtype(_DTYPES[code])
        nbytes = math.prod(shape) * dtype.itemsize
        if pos + nbytes > len(data):
            raise TruncatedRecord(f"array {name!r} truncated")
        # the copy aligns the array for BLAS; the record built from it freezes it
        arr = np.frombuffer(data, dtype=dtype, count=math.prod(shape), offset=pos)
        arrays[name] = arr.reshape(shape).copy()
        pos += nbytes
    missing = set(array_schema) - set(arrays)
    if missing:
        raise MalformedHeader(f"container lacks arrays {sorted(missing)}")
    if pos != len(data):
        raise MalformedHeader(f"{len(data) - pos} bytes follow the last array")
    return meta, arrays


def write_file_atomic(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data`` so a reader sees the old or the new file.

    The bytes go to a unique temporary file in the same directory, reach
    the disk (fsync), and are then renamed over ``path``. On any failure the
    temporary file is removed and ``path`` is left as it was. A directory
    that cannot take the temporary file, or a ``path`` the rename cannot
    replace (a directory, say), raises ``ModelMissing`` naming ``path``.
    """
    directory, base = os.path.split(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(prefix=base + ".", suffix=".tmp", dir=directory)
    except OSError as exc:
        raise ModelMissing(f"cannot write {path!r}: {exc.strerror or exc}") from None
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp creates the file 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise ModelMissing(f"cannot write {path!r}: {exc.strerror or exc}") from None
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# pipeline model
# ---------------------------------------------------------------------------

def save_model(model: PipelineModel) -> bytes:
    cb = model.codebook
    meta = {"kind": "pipeline-model", "config": serialize_config(model.config)}
    arrays: List[Tuple[str, np.ndarray, str]] = [
        ("lattice_m", model.geometry.lattice_m, "i8"),
        ("lattice_t", model.geometry.lattice_t, "i8"),
        ("pca_m_mean", model.pca_m.mean, "f8"),
        ("pca_m_basis", model.pca_m.basis, "f8"),
        ("pca_m_variance", model.pca_m.explained_variance, "f8"),
        ("pca_t_mean", model.pca_t.mean, "f8"),
        ("pca_t_basis", model.pca_t.basis, "f8"),
        ("pca_t_variance", model.pca_t.explained_variance, "f8"),
        ("centroids", cb.centroids, "f8"),
        ("radii", cb.radii, "f8"),
        ("cardinalities", cb.cardinalities, "i8"),
        ("global_mean", model.population_mean, "f8"),
    ]
    return _pack(MODEL_MAGIC, meta, arrays)


_MODEL_META = {"kind": str, "config": str}
_MODEL_ARRAYS = {
    "lattice_m": ("i8", (None, 2)), "lattice_t": ("i8", (None, 2)),
    "pca_m_mean": ("f8", (None,)), "pca_m_basis": ("f8", (None, None)),
    "pca_m_variance": ("f8", (None,)), "pca_t_mean": ("f8", (None,)),
    "pca_t_basis": ("f8", (None, None)), "pca_t_variance": ("f8", (None,)),
    "centroids": ("f8", (None, None)), "radii": ("f8", (None,)),
    "cardinalities": ("i8", (None,)), "global_mean": ("f8", (None,)),
}


def load_model(data: bytes) -> PipelineModel:
    """Decode a model container; the records built from it check how its parts agree."""
    meta, arrays = _unpack(MODEL_MAGIC, data, _MODEL_META, _MODEL_ARRAYS)
    if meta["kind"] != "pipeline-model":
        raise MalformedHeader(f"not a pipeline model container: {meta['kind']!r}")
    config = parse_config(meta["config"])
    # the stored lattices guard against a change to the lattice construction; the re-save
    # compares them, and this bound first keeps a build near the file's size: radius R's
    # lattice spans -r..r for r = floor(R), with all 2r(r + 1) + 1 points |x| + |y| <= r
    for name, radius in zip(("lattice_m", "lattice_t"), config.lattice_radii):
        stored, r = arrays[name], math.floor(radius)
        if stored.size == 0 or int(stored.max()) != r or len(stored) < 2 * r * (r + 1) + 1:
            raise MalformedHeader(f"{name} disagrees with the model's config radius {radius}")
    model = PipelineModel(
        config=config,
        pca_m=PcaModel(arrays["pca_m_mean"], arrays["pca_m_basis"], arrays["pca_m_variance"]),
        pca_t=PcaModel(arrays["pca_t_mean"], arrays["pca_t_basis"], arrays["pca_t_variance"]),
        codebook=Codebook(arrays["centroids"], arrays["radii"], arrays["cardinalities"]),
        population_mean=arrays["global_mean"],
    )
    if save_model(model) != data:
        raise MalformedHeader("model file does not re-save to its own bytes")
    return model


def load_model_file(path: str) -> PipelineModel:
    """:func:`load_model` of a file; an unreadable path raises ``ModelMissing``."""
    return load_model(read_bytes(path))


# ---------------------------------------------------------------------------
# bit-strings
# ---------------------------------------------------------------------------

def save_bitstring(bs: BitString) -> bytes:
    # the format's template-length word, which always equals the bit count, then the count
    return _head(BITS_MAGIC, len(bs), len(bs)) + np.packbits(bs.bits).tobytes()


def load_bitstring(data: bytes) -> BitString:
    _check_head(BITS_MAGIC, data, 16)
    template_length = int.from_bytes(data[8:12], "little")
    k = int.from_bytes(data[12:16], "little")
    if template_length != k:
        raise MalformedHeader(
            f"template length {template_length} differs from the bit count {k}"
        )
    nbytes = (k + 7) // 8
    raw = data[16 : 16 + nbytes]
    if len(raw) < nbytes:
        raise TruncatedRecord(
            f"bit-string payload holds {len(raw)} bytes, needs {nbytes}"
        )
    if len(data) > 16 + nbytes:
        raise MalformedHeader(f"{len(data) - 16 - nbytes} bytes follow the payload")
    # the last byte is zero-padded, so each string has exactly one encoding
    if k % 8 and raw[-1] & ((1 << (8 - k % 8)) - 1):
        raise MalformedHeader(f"padding bits after bit {k} are not zero")
    return BitString(np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:k].astype(bool))


# ---------------------------------------------------------------------------
# finger models
# ---------------------------------------------------------------------------

def save_finger(finger: FingerModel) -> bytes:
    meta = {
        "kind": "finger-model",
        "finger_id": finger.finger_id,
        "n_mean": finger.n_mean,
        "template_length": len(finger.reference),
    }
    arrays = [
        ("power", finger.power, "f8"),
        ("reliability", finger.reliability, "f8"),
        ("mask", finger.mask.astype(np.uint8), "u1"),
        ("enrolled", finger.reference.astype(np.uint8), "u1"),
    ]
    return _pack(FINGER_MAGIC, meta, arrays)


_FINGER_META = {"kind": str, "finger_id": str, "n_mean": float, "template_length": int}
_FINGER_ARRAYS = {"power": ("f8", (None,)), "reliability": ("f8", (None,)),
                  "mask": ("u1", (None,)), "enrolled": ("u1", (None,))}


def load_finger(data: bytes) -> FingerModel:
    meta, arrays = _unpack(FINGER_MAGIC, data, _FINGER_META, _FINGER_ARRAYS)
    if meta["kind"] != "finger-model":
        raise MalformedHeader(f"not a finger model container: {meta['kind']!r}")
    if meta["template_length"] != len(arrays["enrolled"]):
        raise MalformedHeader(
            f"template length {meta['template_length']} differs from the enrolled "
            f"string's {len(arrays['enrolled'])} bits"
        )
    for name in ("mask", "enrolled"):
        if (arrays[name] > 1).any():
            raise MalformedHeader(f"{name} bytes must be 0 or 1")
    finger = FingerModel(
        finger_id=meta["finger_id"],
        power=arrays["power"],
        reliability=arrays["reliability"],
        mask=arrays["mask"].astype(bool),
        n_mean=meta["n_mean"],
        reference=arrays["enrolled"].astype(bool),
    )
    if save_finger(finger) != data:
        raise MalformedHeader("finger file does not re-save to its own bytes")
    return finger
