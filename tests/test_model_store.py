"""Binary artifact containers: byte determinism, round-trips, corruption."""

import dataclasses
import json
import os
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from fpbits import local_structures
from fpbits.bit_training import FingerModel
from fpbits.codebook import BitString, Codebook, DistanceVector, cardinality_weights
from fpbits.config import PipelineConfig, serialize_config
from fpbits.errors import (
    BadMagic,
    FpbitsError,
    MalformedHeader,
    TruncatedRecord,
    UnsupportedVersion,
)
from fpbits.matching import fold_compress, intersection_score, masked_score
from fpbits.model_store import (
    MODEL_MAGIC,
    _DTYPES,
    PipelineModel,
    _pack,
    load_bitstring,
    load_finger,
    load_model,
    save_bitstring,
    save_finger,
    save_model,
    write_file_atomic,
)
from fpbits.pipeline import encode_dataset, encode_impression, evaluate_split, train_model
from fpbits.protocol import compute_eer
from fpbits.subspace_fusion import PcaModel
from fpbits.synth import SynthParams, make_master, synth_dataset
from fpbits.template_io import (
    MINUTIA_DTYPE,
    GrayImage,
    MinutiaTemplate,
    parse_text_template,
    read_bytes,
    read_pgm,
    serialize_text_template,
    write_pgm,
)


def tiny_model():
    params = SynthParams(n_subjects=3, n_impressions=3, width=128, height=128,
                         n_minutiae=12, seed=2)
    items = synth_dataset(params)
    config = PipelineConfig(K=16, n_p=8, N_c=20, pca_subsample=400, seed=1)
    return items, train_model(items, config)


def _refusal(magic, offset):
    """The message, as a regex, of a file refused because it does not re-save to itself."""
    return (rf"^{magic} file does not re-save to its own bytes; "
            rf"the first differing byte is at offset {offset}$")


# ---------------------------------------------------------------------------
# pipeline model container
# ---------------------------------------------------------------------------

def test_model_roundtrip_and_byte_determinism():
    items, model = tiny_model()
    blob1 = save_model(model)
    back = load_model(blob1)
    blob2 = save_model(back)
    assert blob1 == blob2

    assert serialize_config(back.config) == serialize_config(model.config)
    assert np.array_equal(back.codebook.centroids, model.codebook.centroids)
    assert np.array_equal(back.codebook.radii, model.codebook.radii)
    assert np.array_equal(back.codebook.cardinalities, model.codebook.cardinalities)
    assert np.array_equal(back.codebook.weights, model.codebook.weights)
    assert np.array_equal(back.population_mean, model.population_mean)
    assert np.array_equal(back.geometry.lattice_m, model.geometry.lattice_m)
    assert np.array_equal(back.geometry.lattice_t, model.geometry.lattice_t)
    assert np.array_equal(back.pca_m.basis, model.pca_m.basis)
    assert np.array_equal(back.pca_t.mean, model.pca_t.mean)

    # a reloaded model encodes identically
    key = sorted(items.keys())[0]
    template, image = items[key]
    original = encode_impression(template, image, model)
    reloaded = encode_impression(template, image, back)
    assert original.bits == reloaded.bits
    assert np.array_equal(original.distances.values, reloaded.distances.values)


def test_model_file_io(tmp_path):
    _, model = tiny_model()
    path = str(tmp_path / "model.fpbm")
    write_file_atomic(path, save_model(model))
    assert not os.path.exists(path + ".tmp")
    back = load_model(read_bytes(path))
    assert back.codebook.k == model.codebook.k


def test_model_corruption_errors():
    _, model = tiny_model()
    blob = save_model(model)
    with pytest.raises(BadMagic):
        load_model(b"WRNG" + blob[4:])
    with pytest.raises(UnsupportedVersion):
        load_model(blob[:4] + (99).to_bytes(4, "little") + blob[8:])
    with pytest.raises(TruncatedRecord):
        load_model(blob[: len(blob) // 2])
    with pytest.raises(TruncatedRecord):
        load_model(blob[:10])
    hlen = int.from_bytes(blob[8:12], "little")
    garbled = blob[:12] + b"{" * hlen + blob[12 + hlen:]
    with pytest.raises(MalformedHeader):
        load_model(garbled)


# ---------------------------------------------------------------------------
# bit-string container
# ---------------------------------------------------------------------------

def test_bitstring_roundtrip():
    rng = np.random.default_rng(199)
    for k in (1, 7, 8, 9, 64, 200):
        bs = BitString(rng.random(k) < 0.4)
        back = load_bitstring(save_bitstring(bs))
        assert back == bs


def test_bitstring_roundtrip_after_fold():
    bs = fold_compress(BitString(np.ones(20, dtype=bool)), 7)
    back = load_bitstring(save_bitstring(bs))
    assert len(back) == 7
    assert back == bs


def test_bitstring_nonzero_padding_rejected():
    # a 33-bit string fills 5 bytes; the low 7 bits of the last are padding
    bs = BitString(np.arange(33) % 3 == 0)
    blob = save_bitstring(bs)
    assert blob[-1] & 0x7F == 0
    for padding in (0x01, 0x40, 0x7F):
        bad = bytearray(blob)
        bad[-1] |= padding
        # the padding is in the last byte, 16 + 5 - 1
        with pytest.raises(MalformedHeader, match=_refusal("FPBS", 20)):
            load_bitstring(bytes(bad))
    assert load_bitstring(blob) == bs
    # a whole number of bytes leaves no padding to check
    full = BitString(np.ones(32, dtype=bool))
    assert load_bitstring(save_bitstring(full)) == full


def test_bitstring_corruption():
    blob = save_bitstring(BitString(np.ones(10, dtype=bool)))
    with pytest.raises(BadMagic):
        load_bitstring(b"XXXX" + blob[4:])
    with pytest.raises(TruncatedRecord):
        load_bitstring(blob[:-1])


# ---------------------------------------------------------------------------
# finger container
# ---------------------------------------------------------------------------

def test_finger_roundtrip():
    rng = np.random.default_rng(211)
    k = 32
    finger = FingerModel(
        finger_id="s014",
        power=rng.uniform(0, 2, k),
        reliability=rng.uniform(0, 1, k),
        mask=rng.random(k) < 0.5,
        n_mean=27.5,
        reference=rng.random(k) < 0.5,
    )
    blob = save_finger(finger)
    back = load_finger(blob)
    assert back.finger_id == "s014"
    for name in ("power", "reliability", "mask", "reference"):
        got, want = getattr(back, name), getattr(finger, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert back.n_mean == finger.n_mean
    assert save_finger(load_finger(blob)) == blob


def test_write_file_atomic_replaces(tmp_path):
    path = str(tmp_path / "out.bin")
    write_file_atomic(path, b"first")
    write_file_atomic(path, b"second")
    with open(path, "rb") as fh:
        assert fh.read() == b"second"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_write_file_atomic_failure_keeps_old_file(tmp_path, monkeypatch):
    path = str(tmp_path / "out.bin")
    write_file_atomic(path, b"first")

    def broken_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", broken_fsync)
    with pytest.raises(OSError, match="disk full"):
        write_file_atomic(path, b"second, never durable")
    with open(path, "rb") as fh:
        assert fh.read() == b"first"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_write_file_atomic_mode_follows_umask(tmp_path):
    path = str(tmp_path / "out.bin")
    old = os.umask(0o027)
    try:
        write_file_atomic(path, b"data")
    finally:
        os.umask(old)
    assert os.stat(path).st_mode & 0o777 == 0o640


# ---------------------------------------------------------------------------
# header schema checks
# ---------------------------------------------------------------------------

def _finger(k=8, power_len=None):
    rng = np.random.default_rng(223)
    return FingerModel(
        finger_id="s001",
        power=rng.uniform(0, 2, power_len or k),
        reliability=rng.uniform(0, 1, k),
        mask=rng.random(k) < 0.5,
        n_mean=20.0,
        reference=rng.random(k) < 0.5,
    )


def _repack(blob, magic, edit):
    """Re-pack a container after ``edit(header)`` changed its JSON header."""
    hlen = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12 : 12 + hlen])
    edit(header)
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return magic + blob[4:8] + len(hjson).to_bytes(4, "little") + hjson + blob[12 + hlen :]


def test_finger_array_lengths_must_agree():
    with pytest.raises(MalformedHeader):
        load_finger(save_finger(_finger(k=8, power_len=9)))


@pytest.mark.parametrize("name, offset", [("mask", -32), ("enrolled", -16)])
@pytest.mark.parametrize("value", [2, 255])
def test_finger_flags_other_than_0_and_1_rejected(name, offset, value):
    # K = 16: the file ends with the 16 mask bytes, then the 16 enrolled bytes
    blob = save_finger(_finger(k=16))
    assert set(blob[-32:]) <= {0, 1}
    bad = bytearray(blob)
    bad[offset + 5] = value
    with pytest.raises(MalformedHeader, match=_refusal("FPFM", len(blob) + offset + 5)):
        load_finger(bytes(bad))
    # the canonical file loads and saves back to the same bytes
    assert save_finger(load_finger(blob)) == blob


def _finger_meta(blob):
    hlen = int.from_bytes(blob[8:12], "little")
    return json.loads(blob[12 : 12 + hlen])["meta"]


@pytest.mark.parametrize("k", [1, 9, 200])
def test_containers_write_the_bit_count_as_template_length(k):
    bs = BitString(np.arange(k) % 3 == 0)
    blob = save_bitstring(bs)
    assert int.from_bytes(blob[8:12], "little") == k  # template length
    assert int.from_bytes(blob[12:16], "little") == k  # bit count
    assert _finger_meta(save_finger(_finger(k=k)))["template_length"] == k


def _fpfm_with_template_length(k, template_length):
    return _repack(save_finger(_finger(k=k)), b"FPFM",
                   lambda h: h["meta"].update(template_length=template_length))


def _fpbs_with_template_length(k, template_length):
    blob = bytearray(save_bitstring(BitString(np.ones(k, dtype=bool))))
    blob[8:12] = template_length.to_bytes(4, "little")
    return bytes(blob)


def test_finger_template_length_not_below_string():
    # as long a header: the first difference is the value itself
    blob, key = _fpfm_with_template_length(8, 7), b'"template_length":'
    with pytest.raises(MalformedHeader, match=_refusal("FPFM", blob.index(key) + len(key))):
        load_finger(blob)


def test_finger_template_length_above_string_rejected():
    # a longer header: the first difference is the header length word
    with pytest.raises(MalformedHeader, match=_refusal("FPFM", 8)):
        load_finger(_fpfm_with_template_length(8, 16))


def test_bitstring_fold_length_above_template_length():
    # the bit count 10 above a template length of 9, the word at offset 8
    with pytest.raises(MalformedHeader, match=_refusal("FPBS", 8)):
        load_bitstring(_fpbs_with_template_length(10, 9))


def test_bitstring_template_length_above_bit_count_rejected():
    # a folded string from an older writer: 10 bits of a 20-bit template
    with pytest.raises(MalformedHeader, match=_refusal("FPBS", 8)):
        load_bitstring(_fpbs_with_template_length(10, 20))


@pytest.mark.parametrize("loader, save", [
    (load_bitstring, lambda: save_bitstring(BitString(np.ones(10, dtype=bool)))),
    (load_finger, lambda: save_finger(_finger())),
    (load_model, lambda: save_model(FROZEN_RECORDS["PipelineModel"]())),
], ids=["fpbs", "fpfm", "fpbm"])
def test_trailing_bytes_rejected(loader, save):
    blob = save()
    loader(blob)
    with pytest.raises(MalformedHeader, match=_refusal(blob[:4].decode(), len(blob))):
        loader(blob + b"\0")


def _set_config(header, key, value):
    """Rewrite the ``key`` line of the config text a model header carries."""
    meta = header["meta"]
    meta["config"] = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", meta["config"])


@pytest.mark.parametrize("edit", [
    lambda h: _set_config(h, "top_t", "0"),
    lambda h: _set_config(h, "top_t", "true"),
    lambda h: _set_config(h, "tau_s", "x"),
    lambda h: _drop_last_array(h, "global_mean"),
    lambda h: h["meta"].update(config="r_m = 81\n"),  # lattice from r_m = 81
    lambda h: h.update(meta=[]),
    lambda h: h["arrays"].append(h["arrays"][0]),
    lambda h: h["arrays"][0].update(name="lattice_q"),
    lambda h: h["arrays"][0].update(dtype="f8"),
    lambda h: h["arrays"][0].update(shape=[-1, 2]),
    lambda h: h["arrays"][0].update(shape=[2.5, 2]),
    # an empty basis with an axis past numpy's limit raised an untyped ValueError
    lambda h: h["arrays"][3].update(shape=[0, 10**30]),
    lambda h: h["meta"].update(kind="finger-model"),
])
def test_model_header_schema(edit):
    _, model = tiny_model()
    blob = save_model(model)
    with pytest.raises(MalformedHeader):
        load_model(_repack(blob, b"FPBM", edit))


def _drop_last_array(header, name):
    """Header edit: remove the last array's entry, which must be ``name``."""
    assert header["arrays"][-1]["name"] == name
    header["arrays"].pop()


def test_model_without_population_mean_rejected():
    # the population mean is the last array: dropping its entry and its bytes
    # leaves a well-formed container that lacks it
    _, model = tiny_model()
    blob = _repack(save_model(model), b"FPBM",
                   lambda h: _drop_last_array(h, "global_mean"))
    with pytest.raises(MalformedHeader, match=r"lacks arrays \['global_mean'\]"):
        load_model(blob[: -8 * model.codebook.k])


def _contents(blob):
    """A container's meta and its ``(name, array, dtype code)`` list, as
    :func:`_packed` takes them."""
    hlen = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12 : 12 + hlen])
    arrays, pos = [], 12 + hlen
    for spec in header["arrays"]:
        dtype = np.dtype(_DTYPES[spec["dtype"]])
        nbytes = int(np.prod(spec["shape"])) * dtype.itemsize
        arr = np.frombuffer(blob[pos : pos + nbytes], dtype).reshape(spec["shape"])
        arrays.append((spec["name"], arr, spec["dtype"]))
        pos += nbytes
    return header["meta"], arrays


def _packed(meta, arrays):
    """A model container of ``(name, array, dtype code)`` triples, in their order."""
    layout = {name: (code, name) for name, _, code in arrays}
    return _pack(MODEL_MAGIC, meta, layout, SimpleNamespace(**{n: a for n, a, _ in arrays}))


def _legacy_weights(blob):
    """A model as the format before the derived weights wrote it: a
    ``weights`` array before the population mean, and a
    ``has_global_mean`` header key."""
    meta, arrays = _contents(blob)
    weights = cardinality_weights({n: a for n, a, _ in arrays}["cardinalities"])
    arrays.insert(-1, ("weights", weights, "f8"))
    return _packed(dict(meta, has_global_mean=True), arrays)


def _edit_config(edit):
    """Header edit: ``edit`` rewrites the model's config text."""
    return lambda h: h["meta"].update(config=edit(h["meta"]["config"]))


def _reversed_lines(text):
    return "\n".join(reversed(text.splitlines())) + "\n"


# Each of these loaded before a file had to re-save to its own bytes
OTHER_MODEL_ENCODINGS = {
    "legacy-weights": _legacy_weights,
    "augment-pool-line": lambda blob: _repack(blob, b"FPBM", _edit_config(
        lambda text: text.replace("kmeans_max_iters = 100\n",
                                  "kmeans_max_iters = 100\naugment_pool = 0\n"))),
    "top_t-header-field": lambda blob: _repack(
        blob, b"FPBM", lambda h: h["meta"].update(top_t=5)),
    "config-comment": lambda blob: _repack(blob, b"FPBM", _edit_config(
        lambda text: "# trained by hand\n" + text)),
    "reversed-config-keys": lambda blob: _repack(blob, b"FPBM", _edit_config(_reversed_lines)),
    "gate_all-yes": lambda blob: _repack(blob, b"FPBM", _edit_config(
        lambda text: text.replace("gate_all = True", "gate_all = yes"))),
}
OTHER_FINGER_ENCODINGS = {
    "finger-alpha-beta": lambda blob: _repack(
        blob, b"FPFM", lambda h: h["meta"].update(alpha=0.45, beta=0.4)),
    "n_mean-json-int": lambda blob: _repack(
        blob, b"FPFM", lambda h: h["meta"].update(n_mean=int(h["meta"]["n_mean"]))),
    "finger-kind": lambda blob: _repack(
        blob, b"FPFM", lambda h: h["meta"].update(kind="pipeline-model")),
}


@pytest.mark.parametrize("name", sorted(OTHER_MODEL_ENCODINGS) + sorted(OTHER_FINGER_ENCODINGS))
def test_other_encodings_are_rejected(name):
    if name in OTHER_MODEL_ENCODINGS:
        blob, load = save_model(tiny_model()[1]), load_model
        other = OTHER_MODEL_ENCODINGS[name](blob)
    else:
        blob, load = save_finger(_finger()), load_finger
        other = OTHER_FINGER_ENCODINGS[name](blob)
    assert other != blob
    load(blob)
    with pytest.raises(MalformedHeader):
        load(other)


def _pca(dim):
    return PcaModel(np.zeros(dim), np.eye(dim, 2), np.ones(2))


# each record checked at construction, or built from checked ones
FROZEN_RECORDS = {
    "PipelineConfig": PipelineConfig,
    "SynthParams": SynthParams,
    "MinutiaTemplate": lambda: MinutiaTemplate(
        np.array([(1.0, 2.0, 0.5, "T", 50)], MINUTIA_DTYPE), 10, 10),
    "GrayImage": lambda: GrayImage(np.zeros((2, 3), dtype=np.uint8)),
    "DistanceVector": lambda: DistanceVector(np.zeros(4)),
    "Codebook": lambda: Codebook(np.zeros((2, 4)), np.ones(2), np.array([3, 1])),
    "PcaModel": lambda: _pca(4),
    "PipelineModel": lambda: PipelineModel(
        config=PipelineConfig(r_m=12.0, r_t=4.0, K=2, n_p=2), pca_m=_pca(45), pca_t=_pca(49),
        codebook=Codebook(np.zeros((2, 4)), np.ones(2), np.array([3, 1])),
        population_mean=np.zeros(2)),
    "FingerModel": lambda: _finger(k=4),
    "BitString": lambda: BitString(np.array([True, False, True])),
    "StructureGeometry": lambda: local_structures.StructureGeometry.from_config(
        PipelineConfig(r_m=12.0, r_t=4.0)),
}
# after these assignments, a model saved from the config was refused by its own loader
CONFIG_DRIFT = [("r_t", 40), ("gate_all", "no")]


@pytest.mark.parametrize("name", ["config drift"] + sorted(FROZEN_RECORDS))
def test_checked_records_refuse_assignment(name):
    if name == "config drift":
        record, assignments = PipelineConfig(), CONFIG_DRIFT
    else:
        record = FROZEN_RECORDS[name]()
        assignments = [(f.name, None) for f in dataclasses.fields(record)]
    for field, value in assignments:
        before = getattr(record, field)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, value)
        assert getattr(record, field) is before, field


def _arrays(record, path=""):
    """``(path, array)`` of every array a record keeps, nested records included."""
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, np.ndarray):
            yield path + f.name, value
        elif dataclasses.is_dataclass(value):
            yield from _arrays(value, f"{path}{f.name}.")


def _assert_read_only(record):
    found = list(_arrays(record))
    for path, array in found:
        before = array.copy()
        with pytest.raises(ValueError, match="read-only"):
            if array.size:  # an element write
                array[(0,) * array.ndim] = before[(0,) * array.ndim]
            else:
                array[...] = before
        assert np.array_equal(array, before), path
    return [path for path, _ in found]


@pytest.mark.parametrize("name", sorted(FROZEN_RECORDS))
def test_frozen_records_keep_read_only_arrays(name):
    paths = _assert_read_only(FROZEN_RECORDS[name]())
    assert bool(paths) == (name not in ("PipelineConfig", "SynthParams"))
    if name == "PipelineModel":
        assert "geometry.lattice_m" in paths and "codebook.weights" in paths


def test_fitted_and_loaded_models_keep_read_only_arrays():
    _, model = tiny_model()
    _assert_read_only(model)
    with pytest.raises(ValueError, match="read-only"):
        model.codebook.cardinalities[:] = model.codebook.cardinalities[::-1].copy()
    back = load_model(save_model(model))
    assert np.array_equal(back.codebook.weights, model.codebook.weights)
    _assert_read_only(back)
    # the loader's copy keeps every array aligned for BLAS
    assert all(array.flags.aligned for _, array in _arrays(back))
    _assert_read_only(load_finger(save_finger(_finger())))


# the part whose shape each config change contradicts
CONFIG_MISFITS = {
    "K": r"Codebook.centroids must be .* shape \(20, 16\), got float64 \(16, 16\)",
    "n_p": r"PcaModel.basis must be .* shape \(2017, 6\), got float64 \(2017, 8\)",
    "r_t": r"PcaModel.basis must be .* shape \(2821, 8\), got float64 \(5025, 8\)",
}


@pytest.mark.parametrize("change", [{"K": 20}, {"n_p": 6}, {"r_t": 30.0}])
def test_a_fitted_model_refuses_a_config_its_arrays_do_not_fit(change):
    # each of these saved, and then its own loader refused the file
    _, model = tiny_model()
    config = dataclasses.replace(model.config, **change)
    with pytest.raises(MalformedHeader, match=CONFIG_MISFITS[next(iter(change))]):
        dataclasses.replace(model, config=config)


def _assert_round_trips(record, save, load):
    blob = save(record)
    back = load(blob)
    assert save(back) == blob
    for (path, got), (_, want) in zip(_arrays(back), _arrays(record)):
        assert got.dtype == want.dtype and np.array_equal(got, want), path
    return back


def test_a_fitted_model_takes_other_conversion_settings():
    _, model = tiny_model()
    model = dataclasses.replace(model, config=dataclasses.replace(model.config, top_t=3))
    _assert_round_trips(model, save_model, load_model)
    assert load_model(save_model(model)).config.top_t == 3


MISMATCHED_RECORDS = {
    "pca mean": lambda: PcaModel(np.zeros(5), np.eye(4, 2), np.ones(2)),
    "pca variance": lambda: PcaModel(np.zeros(4), np.eye(4, 2), np.ones(3)),
    "pca basis rank": lambda: PcaModel(np.zeros(4), np.zeros(4), np.ones(2)),
    "codebook radii": lambda: Codebook(np.zeros((2, 4)), np.ones(3), np.array([3, 1])),
    "codebook cardinalities": lambda: Codebook(np.zeros((2, 4)), np.ones(2), np.array([3])),
    "codebook centroid rank": lambda: Codebook(np.zeros(2), np.ones(2), np.array([3, 1])),
    # saved as 3, 1, 2: the loaded codebook weighed cluster 2 at 0.5, not 0.6
    "codebook float cardinalities": lambda: Codebook(
        np.zeros((3, 4)), np.ones(3), np.array([3.5, 1.0, 2.0])),
    # at K = 0 the weights were derived first, with an untyped ValueError
    "codebook no clusters": lambda: Codebook(np.zeros((0, 4)), np.ones(0), np.zeros(0, int)),
    "finger power": lambda: _finger(k=8, power_len=9),
    "finger reference": lambda: dataclasses.replace(_finger(k=8), reference=np.ones(7, bool)),
    "finger matrix": lambda: dataclasses.replace(
        _finger(k=4), power=np.zeros((1, 4)), reliability=np.zeros((1, 4)),
        mask=np.ones((1, 4), bool), reference=np.ones((1, 4), bool)),
    "finger n_mean nan": lambda: dataclasses.replace(_finger(), n_mean=float("nan")),
    "finger n_mean huge": lambda: dataclasses.replace(_finger(), n_mean=10**400),
    "finger n_mean str": lambda: dataclasses.replace(_finger(), n_mean="20"),
    "finger id": lambda: dataclasses.replace(_finger(), finger_id=1),
    # an int flag of 2 saved as a file its loader refused
    "finger int mask": lambda: dataclasses.replace(_finger(k=3), mask=np.array([0, 2, 1])),
    # each of these was built; the finger, model and codebook ones then failed to save
    # untyped, saved with a warning or loaded back as other values
    "codebook negative cardinalities": lambda: Codebook(np.zeros((1, 2)), np.ones(1),
                                                        np.array([-3])),
    "codebook complex centroids": lambda: Codebook(np.zeros((2, 4), complex), np.ones(2),
                                                   np.array([3, 1])),
    "pca str mean": lambda: PcaModel(np.zeros(4).astype(str), np.eye(4, 2), np.ones(2)),
    "finger str power": lambda: dataclasses.replace(_finger(k=2), power=np.array(["a", "b"])),
    "finger complex power": lambda: dataclasses.replace(_finger(k=2),
                                                        power=np.array([1 + 2j, 0])),
    "finger bool n_mean": lambda: dataclasses.replace(_finger(), n_mean=True),
    "model str population mean": lambda: dataclasses.replace(
        FROZEN_RECORDS["PipelineModel"](), population_mean=np.array(["0", "1"])),
    # these two were flattened to a row
    "distance vector matrix": lambda: DistanceVector(np.zeros((2, 3))),
    "bit-string matrix": lambda: BitString(np.ones((2, 3), bool)),
    # these two were cast to bool
    "bit-string int bits": lambda: BitString(np.array([0, 2, 1])),
    "bit-string list": lambda: BitString([True, False]),
    "model population mean": lambda: dataclasses.replace(
        FROZEN_RECORDS["PipelineModel"](), population_mean=np.zeros(3)),
    "model centroids": lambda: dataclasses.replace(
        FROZEN_RECORDS["PipelineModel"](),
        codebook=Codebook(np.zeros((2, 6)), np.ones(2), np.array([3, 1]))),
    # each of these was built, and was unequal to itself under the one equality rule
    "pca nan mean": lambda: PcaModel(np.array([0.0, np.nan, 0.0, 0.0]), np.eye(4, 2), np.ones(2)),
    "pca inf variance": lambda: PcaModel(np.zeros(4), np.eye(4, 2), np.array([1.0, np.inf])),
    "codebook nan centroids": lambda: Codebook(np.full((2, 4), np.nan), np.ones(2),
                                               np.array([3, 1])),
    "codebook inf radii": lambda: Codebook(np.zeros((2, 4)), np.array([1.0, -np.inf]),
                                           np.array([3, 1])),
    "finger nan power": lambda: dataclasses.replace(_finger(k=2), power=np.array([np.nan, 1.0])),
    "finger inf reliability": lambda: dataclasses.replace(
        _finger(k=2), reliability=np.array([0.5, np.inf])),
    "distance vector nan": lambda: DistanceVector(np.array([np.nan, 1.0])),
    "distance vector inf": lambda: DistanceVector(np.array([1.0, -np.inf])),
    "model nan population mean": lambda: dataclasses.replace(
        FROZEN_RECORDS["PipelineModel"](), population_mean=np.array([0.0, np.nan])),
}


def _noting_refusals(post_init, refused):
    """``post_init`` that adds to ``refused`` the writeable arrays of each record it refuses."""
    def checked(record):
        given = [a for a in vars(record).values() if isinstance(a, np.ndarray) and a.flags.writeable]
        try:
            post_init(record)
        except FpbitsError:
            refused.append(given)
            raise
    return checked


@pytest.mark.parametrize("name", sorted(MISMATCHED_RECORDS))
def test_records_with_mismatched_parts_are_refused_when_built(name, monkeypatch):
    # and a refused record leaves the arrays it was given writeable (a codebook
    # froze its negative cardinalities before it refused them)
    refused = []
    for record in (BitString, Codebook, DistanceVector, FingerModel, PcaModel, PipelineModel):
        monkeypatch.setattr(record, "__post_init__",
                            _noting_refusals(record.__post_init__, refused))
    with pytest.raises(MalformedHeader):
        MISMATCHED_RECORDS[name]()
    assert refused and all(array.flags.writeable for given in refused for array in given)


# the save and load of each record that has a file form; a codebook is saved in a model
RECORD_FILES = {
    "PipelineModel": (save_model, load_model),
    "Codebook": (lambda cb: save_model(dataclasses.replace(FROZEN_RECORDS["PipelineModel"](),
                                                           codebook=cb)),
                 lambda blob: load_model(blob).codebook),
    "FingerModel": (save_finger, load_finger),
    "BitString": (save_bitstring, load_bitstring),
    "GrayImage": (write_pgm, read_pgm),
    "MinutiaTemplate": (serialize_text_template, parse_text_template),
}


def _wrong_arrays(array):
    """``(label, array)`` of each swap the record-array fuzzer makes for ``array``."""
    shape = array.shape
    return [
        ("str", np.ones(shape).astype(str)),
        ("object", np.ones(shape).astype(object)),
        ("complex", np.ones(shape, complex)),
        ("rank", array[None]),
        ("length", np.zeros((shape[0] + 1,) + shape[1:], array.dtype)),
        ("nan", np.full(shape, np.nan)),
        ("inf", np.full(shape, np.inf)),
        ("empty", np.zeros((0,) + shape[1:], array.dtype)),
        # an int field took this and saved it through the <i8 cast, wrapped negative
        ("uint64", np.full(shape, 2**63, np.uint64)),
    ]


def test_fuzz_record_arrays_zero_untyped():
    # each array field of each record swapped for a wrong one: the record is refused
    # with a typed error, or it is built, equals itself and, where it has a file form,
    # saves and loads back to the same bytes and values (a NaN or an infinity is refused)
    crashes, built = [], 0
    for name, make in sorted(FROZEN_RECORDS.items()):
        record = make()
        fields = [f.name for f in dataclasses.fields(record)
                  if f.init and isinstance(getattr(record, f.name), np.ndarray)]
        for field in fields:
            for label, wrong in _wrong_arrays(getattr(record, field)):
                case = f"{name}.{field} {label}"
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        try:
                            swapped = dataclasses.replace(record, **{field: wrong})
                        except FpbitsError:
                            continue
                        built += 1
                        assert swapped == swapped, case
                        if name in RECORD_FILES:
                            save, load = RECORD_FILES[name]
                            blob = save(swapped)
                            back = load(blob)
                            assert save(back) == blob, case
                            for (path, got), (_, want) in zip(_arrays(back), _arrays(swapped)):
                                assert np.array_equal(got, want), case
                # anything untyped, or a typed refusal of a record that was built
                except Exception as exc:
                    crashes.append(f"{case}: {type(exc).__name__}: {exc}")
    assert not crashes, f"{len(crashes)} crashed, first: {crashes[:3]}"
    assert built > 0


# every model and finger record these tests build
BUILT_RECORDS = {
    "tiny model": (lambda: tiny_model()[1], save_model, load_model),
    "fuzz model": (lambda: _fuzz_model()[1], save_model, load_model),
    "frozen-records model": (FROZEN_RECORDS["PipelineModel"], save_model, load_model),
    "finger": (_finger, save_finger, load_finger),
    "finger k=1": (lambda: _finger(k=1), save_finger, load_finger),
    # an int n_mean once saved as a file its loader refused
    "finger of int n_mean": (lambda: dataclasses.replace(_finger(), n_mean=20),
                             save_finger, load_finger),
}


@pytest.mark.parametrize("name", sorted(BUILT_RECORDS))
def test_every_built_record_saves_and_loads_back(name):
    build, save, load = BUILT_RECORDS[name]
    record = build()
    back = _assert_round_trips(record, save, load)
    if name == "finger of int n_mean":
        assert type(record.n_mean) is float and back.n_mean == record.n_mean


@pytest.mark.parametrize("kind", ["fpbm", "fpfm", "fpbs"])
def test_one_head_check_serves_every_container(kind):
    blob, load = {
        "fpbm": lambda: (save_model(FROZEN_RECORDS["PipelineModel"]()), load_model),
        "fpfm": lambda: (save_finger(_finger()), load_finger),
        "fpbs": lambda: (save_bitstring(BitString(np.ones(9, bool))), load_bitstring),
    }[kind]()
    magic = kind.upper().encode()
    with pytest.raises(BadMagic, match=f"expected magic b'{kind.upper()}'"):
        load(b"XXXX" + blob[4:])
    with pytest.raises(UnsupportedVersion, match=f"^{kind.upper()} version 2 not supported"):
        load(magic + (2).to_bytes(4, "little") + blob[8:])
    with pytest.raises(TruncatedRecord, match=f"^{kind.upper()} header truncated"):
        load(blob[:11])
    load(blob)


def test_a_record_rule_refuses_a_file_the_format_accepts():
    # the container format leaves array sizes free; PcaModel ties its mean to its basis
    blob = save_model(FROZEN_RECORDS["PipelineModel"]())
    meta, arrays = _contents(blob)
    arrays = [(n, np.zeros(46) if n == "pca_m_mean" else a, c) for n, a, c in arrays]
    with pytest.raises(MalformedHeader,
                       match=r"PcaModel.mean must .* \(45,\), got float64 \(46,\)"):
        load_model(_packed(meta, arrays))
    # a negative count once loaded
    meta, arrays = _contents(blob)
    arrays = [(n, np.array([-3, 1]) if n == "cardinalities" else a, c) for n, a, c in arrays]
    with pytest.raises(MalformedHeader,
                       match=r"^need K >= 1 and cardinalities >= 0, got \[-3  1\]$"):
        load_model(_packed(meta, arrays))


def test_written_float_fields_keep_one_spelling():
    # an int given to a float field is stored as a float, so the model text
    # spells it as the config reader does, and the model loads
    _, model = tiny_model()
    model = dataclasses.replace(model, config=dataclasses.replace(model.config, r_t=40))
    assert "\nr_t = 40.0\n" in serialize_config(model.config)
    blob = save_model(model)
    assert save_model(load_model(blob)) == blob


def _lattice_spy(monkeypatch):
    """Record the radius of every disc lattice built from now on."""
    built = []
    real = local_structures._disc_lattice

    def spy(radius):
        built.append(radius)
        return real(radius)

    monkeypatch.setattr(local_structures, "_disc_lattice", spy)
    return built


def test_huge_radius_is_refused_before_any_lattice_is_built(monkeypatch):
    # unchecked, r_t = 1e6 would ask for a lattice of 58 TiB
    _, model = tiny_model()
    blob = _repack(save_model(model), b"FPBM", lambda h: _set_config(h, "r_t", "1000000.0"))
    built = _lattice_spy(monkeypatch)
    with pytest.raises(MalformedHeader,
                       match="^lattice_t radius 1000000.0 is over the 128 px bound$"):
        load_model(blob)
    assert built == []


def test_stored_lattices_are_checked_before_any_lattice_is_built(monkeypatch):
    _, model = tiny_model()
    blob = save_model(model)
    built = _lattice_spy(monkeypatch)
    load_model(blob)
    assert built == list(model.config.lattice_radii)

    # a radius the stored lattice does not reach
    built.clear()
    wide = _repack(blob, b"FPBM", lambda h: _set_config(h, "r_t", "100.0"))
    with pytest.raises(MalformedHeader, match="lattice_t disagrees"):
        load_model(wide)
    # the radius's extreme point alone: too few points for that radius
    meta, arrays = _contents(wide)
    p = model.config.n_p
    one_point = {"lattice_t": np.array([[100, 0]]), "pca_t_mean": np.zeros(1),
                 "pca_t_basis": np.zeros((1, p))}
    arrays = [(n, one_point.get(n, a), c) for n, a, c in arrays]
    with pytest.raises(MalformedHeader, match="lattice_t disagrees"):
        load_model(_packed(meta, arrays))
    assert built == []


# the loader reads no template length; the re-save refuses one it would not write,
# here first at the longer header's length word
_NOT_RESAVED = ("FPFM file does not re-save to its own bytes; "
                "the first differing byte is at offset 8")
HEADER_FIELD_CASES = [
    ("n_mean", "20", "n_mean must be of type float, got '20'"),
    ("n_mean", True, "n_mean must be of type float, got True"),
    ("template_length", 8.0, _NOT_RESAVED),
    ("template_length", False, _NOT_RESAVED),
    ("finger_id", None, "finger_id must be of type str, got None"),
]


@pytest.mark.parametrize("key, value, message", HEADER_FIELD_CASES,
                         ids=[f"{k}={v!r}" for k, v, _ in HEADER_FIELD_CASES])
def test_header_fields_follow_the_settings_type_rule(key, value, message):
    # the rule and the wording of PipelineConfig's and SynthParams' fields
    blob = _repack(save_finger(_finger()), b"FPFM", lambda h: h["meta"].update({key: value}))
    with pytest.raises(MalformedHeader) as info:
        load_finger(blob)
    assert str(info.value) == message


@pytest.mark.parametrize("header", [
    b'{"meta":{},"arrays":[],"x":' + b"9" * 5000 + b"}",  # past the digit limit
    b"[" * 100000 + b"]" * 100000,  # past the recursion limit
    b'{"meta":{"kind":"finger-model","finger_id":"x","n_mean":1' + b"0" * 400
    + b',"template_length":1},"arrays":[]}',  # n_mean > float max
], ids=["long-int", "deep", "huge-float-field"])
def test_crafted_headers_rejected(header):
    blob = b"FPFM" + (1).to_bytes(4, "little") + len(header).to_bytes(4, "little") + header
    with pytest.raises(MalformedHeader):
        load_finger(blob)


# ---------------------------------------------------------------------------
# header fuzzing: every mutated container is loaded or rejected with a typed
# error (criterion 13's bar, applied to the binary containers)
# ---------------------------------------------------------------------------

def _fuzz_model():
    params = SynthParams(n_subjects=3, n_impressions=3, width=96, height=96,
                         n_minutiae=10, seed=5)
    items = synth_dataset(params)
    config = PipelineConfig(r_m=30.0, r_t=10.0, K=8, n_p=4, N_c=10, seed=1)
    return items, train_model(items, config)


def _fuzz(blob, header_end, load, save, use, seed):
    """3000 loads of ``blob`` with 1-3 random bytes of its header replaced.

    Whatever loads must re-save to the mutated bytes and must work.
    """
    rng = np.random.default_rng(seed)
    crashes = []
    loaded = 0
    for _ in range(3000):
        out = bytearray(blob)
        for _ in range(int(rng.integers(1, 4))):
            out[int(rng.integers(header_end))] = int(rng.integers(256))
        try:
            result = load(bytes(out))
        except FpbitsError:
            continue
        except Exception as exc:  # anything untyped is a crash
            crashes.append(f"{type(exc).__name__}: {exc}")
            continue
        loaded += 1
        assert save(result) == out, "a mutated file loaded in a second encoding"
        use(result)  # what loads must also work
    assert not crashes, f"{len(crashes)} untyped, first: {crashes[0]}"
    return loaded


def _fuzz_model_headers(seed):
    items, model = _fuzz_model()
    blob = save_model(model)
    template, image = items[sorted(items)[0]]
    _fuzz(blob, 12 + int.from_bytes(blob[8:12], "little"), load_model, save_model,
          lambda m: encode_impression(template, image, m), seed=seed)


def test_fuzz_model_headers():
    _fuzz_model_headers(1301)


def test_fuzz_model_headers_at_seed_7():
    # this seed once loaded a config text spelling r_t as 10e0
    _fuzz_model_headers(7)


def test_fuzz_finger_headers():
    blob = save_finger(_finger())
    _fuzz(blob, 12 + int.from_bytes(blob[8:12], "little"), load_finger, save_finger,
          lambda f: masked_score(BitString(f.reference), f, mask_both=True), seed=1302)


def test_fuzz_bitstring_headers():
    blob = save_bitstring(fold_compress(BitString(np.ones(20, dtype=bool)), 11))
    _fuzz(blob, 16, load_bitstring, save_bitstring, lambda bs: intersection_score(bs, bs),
          seed=1303)


# ---------------------------------------------------------------------------
# equality: a record that holds arrays compares by value and is unhashable
# ---------------------------------------------------------------------------

def _init_arrays(record, path=()):
    """``(path, array)`` of every array a record is built from, nested records included."""
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if f.init and isinstance(value, np.ndarray):
            yield path + (f.name,), value
        elif f.init and dataclasses.is_dataclass(value):
            yield from _init_arrays(value, path + (f.name,))


def _replaced(record, path, value):
    """``record`` rebuilt with the field at ``path`` set to ``value``."""
    head, *rest = path
    if rest:
        value = _replaced(getattr(record, head), rest, value)
    return dataclasses.replace(record, **{head: value})


def _one_element_changed(array):
    changed = array.copy()
    if array.dtype.names:  # a template's minutiae, by position
        changed["x"][0] += 1.0
    elif array.dtype == bool:
        changed[(0,) * array.ndim] ^= True
    else:
        changed[(0,) * array.ndim] += 1
    return changed


@pytest.mark.parametrize("name", sorted(FROZEN_RECORDS))
def test_records_compare_by_value(name):
    record = FROZEN_RECORDS[name]()
    copy = dataclasses.replace(record)
    assert copy is not record and (copy == record) is True and (copy != record) is False
    assert (record == object()) is False and (record != object()) is True
    arrays = list(_init_arrays(record))
    assert bool(arrays) == (name not in ("PipelineConfig", "SynthParams"))
    if not arrays:  # a record of plain values keeps the generated equality and hash
        assert hash(copy) == hash(record)
        return
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    for path, array in arrays:
        changed = _replaced(record, path, _one_element_changed(array))
        assert (changed == record) is False and (changed != record) is True, path
        # the other record types compare unequal, never raising
        assert all((changed == FROZEN_RECORDS[other]()) is False
                   for other in FROZEN_RECORDS if other != name), path


def test_equal_values_of_another_dtype_compare_equal():
    # arrays compare by value, as np.array_equal does
    assert GrayImage(np.ones((2, 2), np.uint8)) == GrayImage(np.ones((2, 2), np.int64))
    assert DistanceVector(np.arange(3.0)) == DistanceVector(np.arange(3))
    assert DistanceVector(np.zeros(3)) != DistanceVector(np.zeros(4))


def test_saved_records_load_back_equal():
    items, model = tiny_model()
    assert load_model(save_model(model)) == model
    finger = _finger()
    assert load_finger(save_finger(finger)) == finger
    bits = BitString(np.array([True, False, True, True]))
    assert load_bitstring(save_bitstring(bits)) == bits
    template, image = items[sorted(items)[0]]
    assert parse_text_template(serialize_text_template(template)) == dataclasses.replace(
        template, subject_id="", impression_id="")
    assert read_pgm(write_pgm(image)) == image


def test_repeated_runs_return_equal_records():
    # the records that hold arrays, or records that do, built twice from one input
    items, model = tiny_model()
    model = dataclasses.replace(model, config=dataclasses.replace(model.config, enroll_size=2))
    params = SynthParams(n_subjects=3, n_impressions=3, width=128, height=128,
                         n_minutiae=12, seed=2)
    first, second = encode_dataset(items, model), encode_dataset(items, model)
    key, other = sorted(items)[:2]
    split = evaluate_split(first, model)
    pairs = [
        (first[key], second[key]),
        (split, evaluate_split(second, model)),
        (split.trained, compute_eer(split.trained.genuine_scores, split.trained.impostor_scores)),
        (make_master(params, 1), make_master(params, 1)),
        (make_master(params, 1).f_field, make_master(params, 1).f_field),
        (synth_dataset(params)[key], items[key]),
    ]
    assert all(type(a == b) is bool and a == b for a, b in pairs)
    for a, _ in pairs[:-1]:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    assert first[key] != first[other]
    assert make_master(params, 1) != make_master(params, 2)
    assert make_master(params, 1).f_field != make_master(params, 2).f_field
