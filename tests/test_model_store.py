"""Binary artifact containers: byte determinism, round-trips, corruption."""

import json
import os
import re

import numpy as np
import pytest

from fpbits.bit_training import FingerModel, train_finger
from fpbits.codebook import BitString, cardinality_weights
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
    _pack,
    load_bitstring,
    load_finger,
    load_model,
    load_model_file,
    save_bitstring,
    save_finger,
    save_model,
    write_file_atomic,
)
from fpbits.pipeline import encode_impression, enroll_subject, train_model
from fpbits.synth import SynthParams, synth_dataset


def tiny_model():
    params = SynthParams(n_subjects=3, n_impressions=3, width=128, height=128,
                         n_minutiae=12, seed=2)
    items = synth_dataset(params)
    config = PipelineConfig(K=16, n_p=8, N_c=20, pca_subsample=400, seed=1)
    return items, train_model(items, config)


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
    back = load_model_file(path)
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
        with pytest.raises(MalformedHeader, match="padding"):
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
    )
    enrolled = BitString(rng.random(k) < 0.5)
    back_finger, back_enrolled = load_finger(save_finger(finger, enrolled))
    assert back_finger.finger_id == "s014"
    assert np.array_equal(back_finger.power, finger.power)
    assert np.array_equal(back_finger.reliability, finger.reliability)
    assert np.array_equal(back_finger.mask, finger.mask)
    assert back_finger.n_mean == finger.n_mean
    assert back_enrolled == enrolled


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
    finger = FingerModel(
        finger_id="s001",
        power=rng.uniform(0, 2, power_len or k),
        reliability=rng.uniform(0, 1, k),
        mask=rng.random(k) < 0.5,
        n_mean=20.0,
    )
    return finger, BitString(rng.random(k) < 0.5)


def _repack(blob, magic, edit):
    """Re-pack a container after ``edit(header)`` changed its JSON header."""
    hlen = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12 : 12 + hlen])
    edit(header)
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return magic + blob[4:8] + len(hjson).to_bytes(4, "little") + hjson + blob[12 + hlen :]


def test_finger_array_lengths_must_agree():
    finger, enrolled = _finger(k=8, power_len=9)
    with pytest.raises(MalformedHeader):
        load_finger(save_finger(finger, enrolled))


def test_finger_header_with_alpha_and_beta_loads_to_the_same_finger():
    # finger files once copied the bar's alpha and beta into the header
    finger, enrolled = _finger()
    blob = save_finger(finger, enrolled)
    old = _repack(blob, b"FPFM", lambda h: h["meta"].update(alpha=0.45, beta=0.4))
    assert b'"alpha":0.45' in old and b'"beta":0.4' in old
    back, back_enrolled = load_finger(old)
    assert (back.finger_id, back.n_mean) == (finger.finger_id, finger.n_mean)
    for name in ("power", "reliability", "mask"):
        assert np.array_equal(getattr(back, name), getattr(finger, name)), name
    assert back_enrolled == enrolled
    assert save_finger(back, back_enrolled) == blob  # the keys are dropped


@pytest.mark.parametrize("name, offset", [("mask", -32), ("enrolled", -16)])
@pytest.mark.parametrize("value", [2, 255])
def test_finger_flags_other_than_0_and_1_rejected(name, offset, value):
    # K = 16: the file ends with the 16 mask bytes, then the 16 enrolled bytes
    finger, enrolled = _finger(k=16)
    blob = save_finger(finger, enrolled)
    assert set(blob[-32:]) <= {0, 1}
    bad = bytearray(blob)
    bad[offset + 5] = value
    with pytest.raises(MalformedHeader, match=name):
        load_finger(bytes(bad))
    # the canonical file loads and saves back to the same bytes
    assert save_finger(*load_finger(blob)) == blob


def _finger_meta(blob):
    hlen = int.from_bytes(blob[8:12], "little")
    return json.loads(blob[12 : 12 + hlen])["meta"]


@pytest.mark.parametrize("k", [1, 9, 200])
def test_containers_write_the_bit_count_as_template_length(k):
    bs = BitString(np.arange(k) % 3 == 0)
    blob = save_bitstring(bs)
    assert int.from_bytes(blob[8:12], "little") == k  # template length
    assert int.from_bytes(blob[12:16], "little") == k  # bit count
    finger, _ = _finger(k=k)
    assert _finger_meta(save_finger(finger, bs))["template_length"] == k


def _fpfm_with_template_length(k, template_length):
    finger, enrolled = _finger(k=k)
    return _repack(save_finger(finger, enrolled), b"FPFM",
                   lambda h: h["meta"].update(template_length=template_length))


def _fpbs_with_template_length(k, template_length):
    blob = bytearray(save_bitstring(BitString(np.ones(k, dtype=bool))))
    blob[8:12] = template_length.to_bytes(4, "little")
    return bytes(blob)


def test_finger_template_length_not_below_string():
    with pytest.raises(MalformedHeader, match="template length 7"):
        load_finger(_fpfm_with_template_length(8, 7))


def test_finger_template_length_above_string_rejected():
    with pytest.raises(MalformedHeader, match="template length 16"):
        load_finger(_fpfm_with_template_length(8, 16))


def test_bitstring_fold_length_above_template_length():
    # the bit count 10 above a template length of 9
    with pytest.raises(MalformedHeader, match="template length 9"):
        load_bitstring(_fpbs_with_template_length(10, 9))


def test_bitstring_template_length_above_bit_count_rejected():
    # a folded string from an older writer: 10 bits of a 20-bit template
    with pytest.raises(MalformedHeader, match="template length 20"):
        load_bitstring(_fpbs_with_template_length(10, 20))


@pytest.mark.parametrize("loader, blob", [
    (load_bitstring, save_bitstring(BitString(np.ones(10, dtype=bool)))),
    (load_finger, save_finger(*_finger())),
], ids=["fpbs", "fpfm"])
def test_trailing_bytes_rejected(loader, blob):
    loader(blob)
    with pytest.raises(MalformedHeader):
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
])
def test_model_header_schema(edit):
    _, model = tiny_model()
    blob = save_model(model)
    with pytest.raises(MalformedHeader):
        load_model(_repack(blob, b"FPBM", edit))


@pytest.mark.parametrize("fields", [
    {"tau_s": -0.05, "top_t": 5, "n_boundary": 20},  # copies of the config's values
    {"tau_s": -100.0, "top_t": 1, "n_boundary": 20},  # disagreeing with the config
], ids=["config-copies", "disagreeing"])
def test_header_conversion_fields_are_ignored(fields):
    # older model files carry tau_s / top_t / n_boundary header fields next
    # to the config text; they still load, and the config text's values apply
    items, model = tiny_model()
    assert (model.config.tau_s, model.config.top_t, model.config.N_c) == (-0.05, 5, 20)
    blob = _repack(save_model(model), b"FPBM", lambda h: h["meta"].update(fields))
    back = load_model(blob)
    assert serialize_config(back.config) == serialize_config(model.config)
    for key in sorted(items):
        want = encode_impression(*items[key], model).bits
        assert want.ones > 0, key
        assert encode_impression(*items[key], back).bits == want, key


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


def _legacy_format(model, weights=None):
    """``model`` as the earlier format wrote it.

    That format stored the codebook weights as an array, ``weights`` unless
    given, and a ``has_global_mean`` header key.
    """
    cb, pca_m, pca_t = model.codebook, model.pca_m, model.pca_t
    meta = {
        "kind": "pipeline-model",
        "config": serialize_config(model.config),
        "has_global_mean": True,
    }
    return _pack(MODEL_MAGIC, meta, [
        ("lattice_m", model.geometry.lattice_m, "i8"),
        ("lattice_t", model.geometry.lattice_t, "i8"),
        ("pca_m_mean", pca_m.mean, "f8"),
        ("pca_m_basis", pca_m.basis, "f8"),
        ("pca_m_variance", pca_m.explained_variance, "f8"),
        ("pca_t_mean", pca_t.mean, "f8"),
        ("pca_t_basis", pca_t.basis, "f8"),
        ("pca_t_variance", pca_t.explained_variance, "f8"),
        ("centroids", cb.centroids, "f8"),
        ("radii", cb.radii, "f8"),
        ("cardinalities", cb.cardinalities, "i8"),
        ("weights", cb.weights if weights is None else weights, "f8"),
        ("global_mean", model.population_mean, "f8"),
    ])


def test_legacy_format_model_loads_and_encodes_identically():
    items, model = tiny_model()
    old = _legacy_format(model)
    assert b'"has_global_mean":true' in old and b'"name":"weights"' in old
    back = load_model(old)
    assert save_model(back) == save_model(model)  # the key and array are dropped
    for key in sorted(items):
        want = encode_impression(*items[key], model)
        got = encode_impression(*items[key], back)
        assert got.bits == want.bits, key
        assert np.array_equal(got.distances.values, want.distances.values), key


def test_stored_weights_contradicting_cardinalities_are_ignored():
    items, model = tiny_model()
    contrary = model.codebook.weights[::-1].copy()
    assert not np.array_equal(contrary, model.codebook.weights)
    back = load_model(_legacy_format(model, weights=contrary))
    assert np.array_equal(
        back.codebook.weights, cardinality_weights(back.codebook.cardinalities)
    )

    subject = sorted(items)[0][0]
    keys = [key for key in sorted(items) if key[0] == subject]
    want, _ = enroll_subject(subject, [encode_impression(*items[k], model) for k in keys],
                             model)
    got, _ = enroll_subject(subject, [encode_impression(*items[k], back) for k in keys],
                            back)
    assert np.array_equal(got.power, want.power)
    assert np.array_equal(got.mask, want.mask)
    # the stored weights, had they been used, would have moved the power
    samples = [encode_impression(*items[k], model) for k in keys]
    stale = train_finger(
        subject, np.array([e.distances.values for e in samples]),
        np.array([e.bits.bits for e in samples]),
        [e.n_minutiae for e in samples], model.population_mean, contrary,
        model.config.alpha, model.config.beta,
    )
    assert not np.array_equal(stale.power, want.power)


def _with_augment_pool(value):
    """Header edit: the config line that models written before its removal carry."""
    def edit(header):
        meta = header["meta"]
        old = meta["config"]
        meta["config"] = old.replace(
            "kmeans_max_iters = 100\n", f"kmeans_max_iters = 100\naugment_pool = {value}\n"
        )
        assert meta["config"] != old
    return edit


def test_retired_augment_pool_line_loads_and_encodes_identically():
    items, model = tiny_model()
    blob = save_model(model)
    back = load_model(_repack(blob, b"FPBM", _with_augment_pool(0)))
    assert serialize_config(back.config) == serialize_config(model.config)
    for key in sorted(items):
        want = encode_impression(*items[key], model).bits
        assert encode_impression(*items[key], back).bits == want, key
    with pytest.raises(MalformedHeader, match="augment_pool"):
        load_model(_repack(blob, b"FPBM", _with_augment_pool(3)))


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


def _fuzz(blob, header_end, load, use, seed):
    """3000 loads of ``blob`` with 1-3 random bytes of its header replaced."""
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
        use(result)  # what loads must also work
    assert not crashes, f"{len(crashes)} untyped, first: {crashes[0]}"
    return loaded


def test_fuzz_model_headers():
    items, model = _fuzz_model()
    blob = save_model(model)
    template, image = items[sorted(items)[0]]
    _fuzz(blob, 12 + int.from_bytes(blob[8:12], "little"), load_model,
          lambda m: encode_impression(template, image, m), seed=1301)


def test_fuzz_finger_headers():
    blob = save_finger(*_finger())
    _fuzz(blob, 12 + int.from_bytes(blob[8:12], "little"), load_finger,
          lambda fe: masked_score(fe[1], fe[1], fe[0], mask_both=True), seed=1302)


def test_fuzz_bitstring_headers():
    blob = save_bitstring(fold_compress(BitString(np.ones(20, dtype=bool)), 11))
    _fuzz(blob, 16, load_bitstring, lambda bs: intersection_score(bs, bs), seed=1303)
