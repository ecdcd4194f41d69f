"""Versioned binary containers for trained artifacts.

Models and finger models share one layout: a 4-byte magic, a version word,
a length-prefixed JSON header (sorted keys, so identical content is
identical bytes), then the named arrays' raw little-endian data in header
order. One table per container gives each array's name, dtype and place in
the record, and both the writer and the reader follow it.

* ``FPBM`` - pipeline model: config text, descriptor lattices, both
  subspace models, and the codebook.
* ``FPFM`` - one finger's fitted statistics, mask, and enrolled string.
* ``FPBS`` - one bit-string: a fixed 16-byte header, then the packed bits.

Every loader decodes only what it needs to build its record, then saves that
record again and refuses the file unless this gives the file's own bytes. So
each artifact has exactly one encoding, and that one rule refuses whatever
else a file could hold: another header value, a flag byte other than 0 or
1, a set padding bit or a trailing byte.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Tuple

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

def _pack(magic: bytes, meta: dict, layout: Dict[str, Tuple[str, str]], record) -> bytes:
    """A container of ``record``: each ``name: (dtype code, attribute path)`` of
    ``layout``, in its order, is the array at that path of ``record``."""
    # ascontiguousarray converts only an array whose dtype or layout differs,
    # and join copies each buffer once. Every load re-saves, so this is on the
    # load path too
    arrays = [(name, code, np.ascontiguousarray(attrgetter(path)(record), dtype=_DTYPES[code]))
              for name, (code, path) in layout.items()]
    header = {"meta": meta, "arrays": [{"name": name, "dtype": code, "shape": list(arr.shape)}
                                       for name, code, arr in arrays]}
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"".join([_head(magic, len(hjson)), hjson, *(arr for _, _, arr in arrays)])


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
    magic: bytes, data: bytes, meta_kinds: Dict[str, type], layout: Dict[str, Tuple[str, str]]
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Decode a container: the header fields named in ``meta_kinds``, checked by
    :func:`check_fields`, and each array of ``layout`` by its dtype code.

    Only what decoding needs is checked here; :func:`_resaves` refuses the rest.
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
    meta = check_fields(header["meta"], meta_kinds, MalformedHeader)

    arrays: Dict[str, np.ndarray] = {}
    pos = 12 + hlen
    for spec in header["arrays"]:
        name = spec.get("name") if isinstance(spec, dict) else None
        if name not in layout or name in arrays:
            raise MalformedHeader(f"unexpected or repeated array {name!r}")
        shape = spec.get("shape")
        # no axis of an array the writer writes is longer than its file
        if not isinstance(shape, list) or any(
                type(n) is not int or not 0 <= n <= len(data) for n in shape):
            raise MalformedHeader(f"array {name!r} needs a list of sizes, got {shape!r}")
        dtype = np.dtype(_DTYPES[layout[name][0]])
        count = math.prod(shape)
        if pos + count * dtype.itemsize > len(data):
            raise TruncatedRecord(f"array {name!r} truncated")
        # the copy aligns the array for BLAS; the record built from it freezes it
        arrays[name] = np.frombuffer(data, dtype, count, pos).reshape(shape).copy()
        pos += count * dtype.itemsize
    missing = set(layout) - set(arrays)
    if missing:
        raise MalformedHeader(f"container lacks arrays {sorted(missing)}")
    return meta, arrays


def _resaves(data: bytes, record, save: Callable[..., bytes]):
    """``record``, decoded from ``data``, if ``save`` writes it as ``data`` itself.

    So each record has exactly one encoding: a file that holds anything the
    writer would not write (another header value, flag byte, padding bit or
    byte count) is refused with ``MalformedHeader`` naming the first byte
    that differs.
    """
    again = save(record)
    if again != data:
        n = min(len(again), len(data))
        differ = np.frombuffer(again, np.uint8, n) != np.frombuffer(data, np.uint8, n)
        first = int(differ.argmax()) if differ.any() else n
        raise MalformedHeader(f"{again[:4].decode()} file does not re-save to its own bytes; "
                              f"the first differing byte is at offset {first}")
    return record


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

# each array's name in the file: its dtype code and its path in the record, in file order
_MODEL_ARRAYS = {
    "lattice_m": ("i8", "geometry.lattice_m"),
    "lattice_t": ("i8", "geometry.lattice_t"),
    "pca_m_mean": ("f8", "pca_m.mean"),
    "pca_m_basis": ("f8", "pca_m.basis"),
    "pca_m_variance": ("f8", "pca_m.explained_variance"),
    "pca_t_mean": ("f8", "pca_t.mean"),
    "pca_t_basis": ("f8", "pca_t.basis"),
    "pca_t_variance": ("f8", "pca_t.explained_variance"),
    "centroids": ("f8", "codebook.centroids"),
    "radii": ("f8", "codebook.radii"),
    "cardinalities": ("i8", "codebook.cardinalities"),
    "global_mean": ("f8", "population_mean"),
}


def save_model(model: PipelineModel) -> bytes:
    meta = {"kind": "pipeline-model", "config": serialize_config(model.config)}
    return _pack(MODEL_MAGIC, meta, _MODEL_ARRAYS, model)


def load_model(data: bytes) -> PipelineModel:
    """Decode a model container; the records built from it check how its parts agree."""
    meta, arrays = _unpack(MODEL_MAGIC, data, {"config": str}, _MODEL_ARRAYS)
    config = parse_config(meta["config"])
    # the stored lattices guard against a change to the lattice construction; the re-save
    # compares them, and this bound first keeps a build near the file's size: radius R's
    # lattice spans -r..r for r = floor(R), with all 2r(r + 1) + 1 points |x| + |y| <= r,
    # two words each
    for name, radius in zip(("lattice_m", "lattice_t"), config.lattice_radii):
        stored, r = arrays[name], math.floor(radius)
        if stored.size == 0 or int(stored.max()) != r or stored.size < 4 * r * (r + 1) + 2:
            raise MalformedHeader(f"{name} disagrees with the model's config radius {radius}")
    model = PipelineModel(
        config=config,
        pca_m=PcaModel(arrays["pca_m_mean"], arrays["pca_m_basis"], arrays["pca_m_variance"]),
        pca_t=PcaModel(arrays["pca_t_mean"], arrays["pca_t_basis"], arrays["pca_t_variance"]),
        codebook=Codebook(arrays["centroids"], arrays["radii"], arrays["cardinalities"]),
        population_mean=arrays["global_mean"],
    )
    return _resaves(data, model, save_model)


# ---------------------------------------------------------------------------
# bit-strings
# ---------------------------------------------------------------------------

def save_bitstring(bs: BitString) -> bytes:
    # the format's template-length word, which always equals the bit count, then the count
    return _head(BITS_MAGIC, len(bs), len(bs)) + np.packbits(bs.bits).tobytes()


def load_bitstring(data: bytes) -> BitString:
    _check_head(BITS_MAGIC, data, 16)
    k = int.from_bytes(data[12:16], "little")
    nbytes = (k + 7) // 8
    if len(data) < 16 + nbytes:
        raise TruncatedRecord(f"bit-string payload holds {len(data) - 16} bytes, needs {nbytes}")
    bits = np.unpackbits(np.frombuffer(data, np.uint8, nbytes, 16), count=k).astype(bool)
    return _resaves(data, BitString(bits), save_bitstring)


# ---------------------------------------------------------------------------
# finger models
# ---------------------------------------------------------------------------

_FINGER_ARRAYS = {"power": ("f8", "power"), "reliability": ("f8", "reliability"),
                  "mask": ("u1", "mask"), "enrolled": ("u1", "reference")}


def save_finger(finger: FingerModel) -> bytes:
    meta = {
        "kind": "finger-model",
        "finger_id": finger.finger_id,
        "n_mean": finger.n_mean,
        "template_length": len(finger.reference),
    }
    return _pack(FINGER_MAGIC, meta, _FINGER_ARRAYS, finger)


def load_finger(data: bytes) -> FingerModel:
    meta, arrays = _unpack(FINGER_MAGIC, data, {"finger_id": str, "n_mean": float},
                           _FINGER_ARRAYS)
    finger = FingerModel(
        finger_id=meta["finger_id"],
        power=arrays["power"],
        reliability=arrays["reliability"],
        mask=arrays["mask"].astype(bool),
        n_mean=meta["n_mean"],
        reference=arrays["enrolled"].astype(bool),
    )
    return _resaves(data, finger, save_finger)
