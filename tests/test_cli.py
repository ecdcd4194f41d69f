"""Command-line lifecycle on a miniature dataset."""

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fpbits import cli, pipeline
from fpbits.cli import load_dataset, main, save_dataset
from fpbits.bit_training import FingerModel
from fpbits.codebook import BitString
from fpbits.errors import FpbitsError
from fpbits.matching import fold_compress
from fpbits.model_store import (
    load_bitstring,
    load_finger,
    load_model,
    save_bitstring,
    save_finger,
)
from fpbits.synth import SynthParams, synth_dataset
from fpbits.template_io import (
    GrayImage,
    parse_text_template,
    read_bytes,
    read_pgm,
    read_text,
    serialize_text_template,
    write_pgm,
)
from oracles import intersection_score, masked_score


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synth -> train -> encode -> enroll chain shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    model = str(root / "model.fpbm")
    bits = str(root / "bits")
    fingers = str(root / "fingers")

    assert main([
        "synth", "--out", data, "--subjects", "3", "--impressions", "4",
        "--width", "128", "--height", "128", "--minutiae", "12", "--seed", "9",
    ]) == 0
    assert main([
        "train", "--dataset", data, "--out", model, "--quiet",
        "--set", "K=16", "--set", "n_p=8", "--set", "N_c=20", "--set", "enroll_size=2",
    ]) == 0
    assert main(["encode", "--dataset", data, "--model", model,
                 "--out-dir", bits]) == 0
    assert main(["enroll", "--dataset", data, "--model", model,
                 "--out-dir", fingers]) == 0
    return {"root": root, "data": data, "model": model,
            "bits": bits, "fingers": fingers}


@pytest.fixture(scope="module")
def enrolled_only_model(workdir):
    """``workdir``'s model retrained with ``mask_both = false``."""
    model = str(workdir["root"] / "model-enrolled-only.fpbm")
    assert main([
        "train", "--dataset", workdir["data"], "--out", model, "--quiet",
        "--set", "K=16", "--set", "n_p=8", "--set", "N_c=20", "--set", "enroll_size=2",
        "--set", "mask_both=false",
    ]) == 0
    assert load_model(read_bytes(model)).config.mask_both is False
    return model


def test_synth_writes_expected_layout(workdir):
    data = workdir["data"]
    templates = sorted(os.listdir(os.path.join(data, "templates")))
    images = sorted(os.listdir(os.path.join(data, "images")))
    assert len(templates) == 12 and len(images) == 12
    assert templates[0] == "s001_01.fpt"
    assert images[-1] == "s003_04.pgm"


def test_dataset_roundtrip(tmp_path):
    items = synth_dataset(SynthParams(n_subjects=2, n_impressions=2,
                                      width=96, height=96, n_minutiae=8, seed=4))
    save_dataset(items, str(tmp_path))
    back = load_dataset(str(tmp_path))
    assert back.keys() == items.keys()
    for key in items:
        t0, i0 = items[key]
        t1, i1 = back[key]
        assert np.array_equal(i0.pixels, i1.pixels)
        assert t0.minutiae.tolist() == t1.minutiae.tolist()


def test_train_applies_overrides(workdir):
    model = load_model(read_bytes(workdir["model"]))
    assert model.codebook.k == 16
    assert model.config.n_p == 8
    assert model.config.enroll_size == 2


def test_encode_output(workdir):
    names = sorted(os.listdir(workdir["bits"]))
    assert len(names) == 12
    assert names[0] == "s001_01.fpbs"


def test_enroll_output(workdir):
    names = sorted(os.listdir(workdir["fingers"]))
    assert names == ["s001.fpfm", "s002.fpfm", "s003.fpfm"]


def test_enroll_encodes_only_the_enrollment_impressions(workdir, tmp_path, monkeypatch):
    items = load_dataset(workdir["data"])
    model = load_model(read_bytes(workdir["model"]))
    # the fingers as enrolled from the whole encoded grid
    encoded = pipeline.encode_dataset(items, model)
    split = pipeline.split_keys(encoded, model.config.enroll_size)
    want = {sid: save_finger(pipeline.enroll_subject(sid, [encoded[k] for k in keys], model))
            for sid, (keys, _) in split.items()}

    calls = []
    encode = pipeline.encode_impression

    def counting(template, image, model):
        calls.append((template.subject_id, template.impression_id))
        return encode(template, image, model)

    monkeypatch.setattr(pipeline, "encode_impression", counting)
    out = tmp_path / "fingers"
    assert main(["enroll", "--dataset", workdir["data"], "--model", workdir["model"],
                 "--out-dir", str(out)]) == 0
    # enroll_size = 2 of each subject's 4 impressions
    assert sorted(calls) == [(s, i) for s in ("s001", "s002", "s003") for i in ("01", "02")]
    assert {sid: (out / f"{sid}.fpfm").read_bytes() for sid in want} == want


def test_match_bits(workdir, tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(
        "# genuine then impostor\n"
        "s001 01 s001 02\n"
        "s001 01 s002 01\n"
    )
    assert main(["match", "--kind", "bits", "--pairs", str(pairs),
                 "--bits-dir", workdir["bits"]]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        fields = line.split()
        assert fields[4] == "intersection"
        assert 0.0 <= float(fields[5]) <= 1.0


def test_match_masked(workdir, tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("s002 x s002 04\ns002 x s003 04\n")
    assert main(["match", "--kind", "masked", "--pairs", str(pairs),
                 "--bits-dir", workdir["bits"], "--fingers-dir", workdir["fingers"],
                 "--model", workdir["model"]]) == 0
    out = capsys.readouterr().out
    assert "intersection" in out


def _oracle_line(sa, ia, sb, ib, score):
    return f"{sa} {ia} {sb} {ib} {score.kind} {score.value:.6f}"


def _all_pairs_file(tmp_path, keys, first_side):
    pairs = [(first_side(a), b) for a in keys for b in keys]
    path = tmp_path / "pairs.txt"
    path.write_text("".join(f"{a[0]} {a[1]} {b[0]} {b[1]}\n" for a, b in pairs))
    return path, pairs


def test_match_bits_lines_match_one_pair_oracle(workdir, tmp_path, capsys):
    bits = {}
    for name in sorted(os.listdir(workdir["bits"])):
        sid, iid = name[: -len(".fpbs")].split("_")
        with open(os.path.join(workdir["bits"], name), "rb") as fh:
            bits[(sid, iid)] = load_bitstring(fh.read())
    path, pairs = _all_pairs_file(tmp_path, sorted(bits), lambda key: key)
    assert main(["match", "--kind", "bits", "--pairs", str(path),
                 "--bits-dir", workdir["bits"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        _oracle_line(*a, *b, intersection_score(bits[a], bits[b])) for a, b in pairs
    ]


@pytest.mark.parametrize("kind", ["lgs", "bits"])
def test_match_out_writes_non_ascii_ids_as_utf8(workdir, tmp_path, capsys, kind):
    # load_dataset and encode take the id; the written scores must hold it too
    data, bits = tmp_path / "data", tmp_path / "bits"
    for sub in ("templates", "images"):
        os.makedirs(data / sub)
        for name in os.listdir(os.path.join(workdir["data"], sub)):
            if name.startswith("s001_"):
                shutil.copy(os.path.join(workdir["data"], sub, name),
                            data / sub / name.replace("s001", "sé01"))
    assert main(["encode", "--dataset", str(data), "--model", workdir["model"],
                 "--out-dir", str(bits)]) == 0
    assert "sé01_01.fpbs" in os.listdir(bits)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("sé01 01 sé01 02\n", encoding="utf-8")
    inputs = {"lgs": ["--model", workdir["model"], "--dataset", str(data)],
              "bits": ["--bits-dir", str(bits)]}[kind]
    command = ["match", "--kind", kind, "--pairs", str(pairs), *inputs]
    capsys.readouterr()
    assert main(command) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("sé01 01 sé01 02 ")
    out = tmp_path / "scores.txt"
    assert main(command + ["--out", str(out)]) == 0
    assert out.read_bytes() == printed.encode("utf-8")


def test_match_masked_refuses_a_finger_file_of_another_finger(workdir, tmp_path, capsys):
    fingers = tmp_path / "fingers"
    fingers.mkdir()
    shutil.copy(os.path.join(workdir["fingers"], "s001.fpfm"), fingers / "s009.fpfm")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("s009 01 s001 02\n")
    assert main(["match", "--kind", "masked", "--pairs", str(pairs), "--model",
                 workdir["model"], "--bits-dir", workdir["bits"],
                 "--fingers-dir", str(fingers)]) == 2
    assert_one_error_line(capsys, "'s001'", "'s009'")


def _load_bits_and_fingers(workdir):
    bits = {}
    for name in sorted(os.listdir(workdir["bits"])):
        sid, iid = name[: -len(".fpbs")].split("_")
        with open(os.path.join(workdir["bits"], name), "rb") as fh:
            bits[(sid, iid)] = load_bitstring(fh.read())
    fingers = {}
    for sid in sorted({key[0] for key in bits}):
        with open(os.path.join(workdir["fingers"], f"{sid}.fpfm"), "rb") as fh:
            fingers[sid] = load_finger(fh.read())
    return bits, fingers


def _masked_oracle_lines(bits, fingers, pairs, mask_both):
    want = []
    for a, b in pairs:
        want.append(_oracle_line(*a, *b, masked_score(bits[b], fingers[a[0]], mask_both)))
    return want


@pytest.mark.parametrize("enrolled_only", [False, True])
def test_match_masked_lines_match_one_pair_oracle(
    workdir, enrolled_only_model, tmp_path, capsys, monkeypatch, enrolled_only
):
    bits, fingers = _load_bits_and_fingers(workdir)
    loads = []

    def counting_load_finger(blob):
        loads.append(blob)
        return load_finger(blob)

    monkeypatch.setattr(cli, "load_finger", counting_load_finger)
    path, pairs = _all_pairs_file(tmp_path, sorted(bits), lambda key: (key[0], "x"))
    model = enrolled_only_model if enrolled_only else workdir["model"]
    assert main(["match", "--kind", "masked", "--pairs", str(path), "--model", model,
                 "--bits-dir", workdir["bits"], "--fingers-dir", workdir["fingers"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == _masked_oracle_lines(bits, fingers, pairs, not enrolled_only)
    assert len(loads) == len(fingers)  # one load per finger, not per pair


def test_match_masked_reads_mask_both_from_the_model(
    workdir, enrolled_only_model, tmp_path, capsys
):
    # the same files under two models that differ only in mask_both
    bits, fingers = _load_bits_and_fingers(workdir)
    path, pairs = _all_pairs_file(tmp_path, sorted(bits), lambda key: (key[0], "x"))
    out = {}
    for mask_both, model in ((True, workdir["model"]), (False, enrolled_only_model)):
        assert main(["match", "--kind", "masked", "--pairs", str(path), "--model", model,
                     "--bits-dir", workdir["bits"], "--fingers-dir", workdir["fingers"]]) == 0
        out[mask_both] = capsys.readouterr().out.splitlines()
        assert out[mask_both] == _masked_oracle_lines(bits, fingers, pairs, mask_both)
    assert out[True] != out[False]


@pytest.mark.parametrize("kind", ["bits", "masked"])
def test_match_folded_and_unfolded_strings_exit_2_with_one_line(
    workdir, tmp_path, capsys, kind
):
    bits = str(tmp_path / "bits")
    _copy_tree(workdir["bits"], bits)
    with open(os.path.join(bits, "s001_01.fpbs"), "rb") as fh:
        folded = fold_compress(load_bitstring(fh.read()), 8)
    with open(os.path.join(bits, "s009_01.fpbs"), "wb") as fh:
        fh.write(save_bitstring(folded))
    pairs = _pairs(tmp_path, "s001 01 s001 02\ns001 01 s009 01\n")
    extra = ["--fingers-dir", workdir["fingers"], "--model", workdir["model"]]
    assert main(["match", "--kind", kind, "--pairs", pairs, "--bits-dir", bits]
                + (extra if kind == "masked" else [])) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "16 vs 8" in err, err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["enroll", "--dataset", "d", "--model", "m", "--out-dir", "o", "--enroll-size", "2"],
    ["match", "--kind", "masked", "--pairs", "p", "--bits-dir", "b", "--fingers-dir", "f",
     "--model", "m", "--mask-enrolled-only"],
    ["match", "--kind", "masked", "--pairs", "p", "--bits-dir", "b", "--fingers-dir", "f"],
], ids=["enroll-size", "mask-enrolled-only", "masked-without-model"])
def test_settings_come_only_from_the_model(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_match_lgs(workdir, tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("s001 01 s001 03\n")
    assert main(["match", "--kind", "lgs", "--pairs", str(pairs),
                 "--dataset", workdir["data"], "--model", workdir["model"]]) == 0
    line = capsys.readouterr().out.strip()
    assert "lgs" in line
    assert float(line.split()[5]) >= 0.0


def test_evaluate_bits(workdir, tmp_path, capsys):
    out_dir = str(tmp_path / "eval")
    assert main(["evaluate", "--matcher", "bits", "--dataset", workdir["data"],
                 "--model", workdir["model"], "--out-dir", out_dir]) == 0
    text = capsys.readouterr().out
    assert "genuine attempts: 18" in text  # 3 subjects x C(4,2)
    assert "impostor attempts: 3" in text
    assert "eer:" in text
    assert os.path.exists(os.path.join(out_dir, "summary.txt"))
    roc = open(os.path.join(out_dir, "roc.csv")).read().splitlines()
    assert roc[0] == "far,frr,threshold"
    assert len(roc) > 1


def test_evaluate_split(workdir, tmp_path, capsys):
    out_dir = str(tmp_path / "eval")
    assert main(["evaluate", "--matcher", "split", "--dataset", workdir["data"],
                 "--model", workdir["model"], "--out-dir", out_dir]) == 0
    text = capsys.readouterr().out
    assert "eer trained:" in text and "eer untrained:" in text
    assert "enrolled reference: OR of enrollment bit-strings" in text
    assert os.path.exists(os.path.join(out_dir, "roc_trained.csv"))
    assert os.path.exists(os.path.join(out_dir, "roc_untrained.csv"))


def test_compress_sweep(workdir, tmp_path, capsys):
    assert main(["compress", "--dataset", workdir["data"],
                 "--model", workdir["model"], "--lengths", "16,8,5"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "length,eer"
    assert [r.split(",")[0] for r in rows[1:]] == ["16", "8", "5"]
    for r in rows[1:]:
        assert 0.0 <= float(r.split(",")[1]) <= 1.0


def test_inspect(workdir, capsys):
    bits_file = os.path.join(workdir["bits"], "s001_01.fpbs")
    finger_file = os.path.join(workdir["fingers"], "s002.fpfm")
    assert main(["inspect", "--model", workdir["model"],
                 "--bits", bits_file, "--finger", finger_file]) == 0
    out = capsys.readouterr().out
    assert "clusters K: 16" in out
    assert "set bits:" in out
    assert "finger id: s002" in out


@pytest.mark.parametrize("lengths, named", [
    ("4,x", "'x'"),
    (" , ", "no fold length"),
], ids=["not-an-integer", "empty"])
def test_compress_bad_lengths_exit_2_with_one_line(workdir, capsys, lengths, named):
    assert main(["compress", "--dataset", workdir["data"],
                 "--model", workdir["model"], "--lengths", lengths]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and named in err, err
    assert len(err.strip().splitlines()) == 1


def test_inspect_bits_with_nonzero_padding_exits_2_with_one_line(tmp_path, capsys):
    blob = bytearray(save_bitstring(BitString(np.zeros(33, dtype=bool))))
    blob[-1] |= 0x7F  # the padding bits of the last byte, at offset 16 + 5 - 1
    path = tmp_path / "s001_01.fpbs"
    path.write_bytes(bytes(blob))
    assert main(["inspect", "--bits", str(path)]) == 2
    assert_one_error_line(capsys, "FPBS file does not re-save", "byte is at offset 20")


def test_inspect_finger_with_a_non_canonical_mask_byte_exits_2_with_one_line(
    tmp_path, capsys
):
    rng = np.random.default_rng(5)
    finger = FingerModel(finger_id="s001", power=rng.uniform(0, 2, 16),
                         reliability=rng.uniform(0, 1, 16), mask=rng.random(16) < 0.5,
                         n_mean=20.0, reference=rng.random(16) < 0.5)
    blob = bytearray(save_finger(finger))
    blob[-32] = 2  # the first mask byte; the enrolled bytes follow the mask
    path = tmp_path / "s001.fpfm"
    path.write_bytes(bytes(blob))
    assert main(["inspect", "--finger", str(path)]) == 2
    assert_one_error_line(capsys, "FPFM file does not re-save",
                          f"byte is at offset {len(blob) - 32}")


def _fpbs_with_template_length(template_length):
    blob = bytearray(save_bitstring(BitString(np.ones(10, dtype=bool))))
    blob[8:12] = template_length.to_bytes(4, "little")
    return bytes(blob)


def _fpfm_with_template_length_32():
    finger = FingerModel(finger_id="s001", power=np.ones(16), reliability=np.ones(16),
                         mask=np.ones(16, dtype=bool), n_mean=20.0,
                         reference=np.ones(16, dtype=bool))
    blob = save_finger(finger)
    old, new = b'"template_length":16', b'"template_length":32'
    assert blob.count(old) == 1
    return blob.replace(old, new)  # the same header length


@pytest.mark.parametrize("flag, name, blob", [
    ("--bits", "s001_01.fpbs", _fpbs_with_template_length(9)),
    ("--bits", "s001_01.fpbs", _fpbs_with_template_length(20)),
    ("--finger", "s001.fpfm", _fpfm_with_template_length_32()),
], ids=["fpbs-below", "fpbs-above", "fpfm-above"])
def test_inspect_template_length_other_than_bit_count_exits_2_with_one_line(
    tmp_path, capsys, flag, name, blob
):
    path = tmp_path / name
    path.write_bytes(blob)
    assert main(["inspect", flag, str(path)]) == 2
    # the bit-string's template-length word is at offset 8; the finger's value
    # differs from its first digit on
    key = b'"template_length":'
    first = 8 if flag == "--bits" else blob.index(key) + len(key)
    assert_one_error_line(capsys, f"{blob[:4].decode()} file does not re-save",
                          f"byte is at offset {first}")


def test_inspect_nothing(capsys):
    assert main(["inspect"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "nothing to inspect" in err, err
    assert len(err.strip().splitlines()) == 1


def test_errors_exit_nonzero(tmp_path, capsys):
    missing = str(tmp_path / "nope")
    assert main(["train", "--dataset", missing,
                 "--out", str(tmp_path / "m.fpbm")]) == 2
    assert "error:" in capsys.readouterr().err

    assert main(["encode", "--dataset", missing,
                 "--model", str(tmp_path / "m.fpbm"),
                 "--out-dir", str(tmp_path / "b")]) == 2
    capsys.readouterr()


def test_invalid_config_value_exits_2_with_one_line(tmp_path, capsys):
    assert main(["train", "--dataset", str(tmp_path),
                 "--out", str(tmp_path / "m.fpbm"),
                 "--set", "r_m=0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "r_m" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "m.fpbm").exists()


def test_enroll_size_zero_exits_2_with_one_line(workdir, tmp_path, capsys):
    # enroll_size is set only in the config, and a model cannot carry 0
    model = tmp_path / "m.fpbm"
    assert main(["train", "--dataset", workdir["data"], "--out", str(model), "--quiet",
                 "--set", "K=16", "--set", "n_p=8", "--set", "enroll_size=0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "enroll_size" in err
    assert len(err.strip().splitlines()) == 1
    assert not model.exists()


def test_bad_config_override(tmp_path, capsys):
    assert main(["train", "--dataset", str(tmp_path),
                 "--out", str(tmp_path / "m.fpbm"),
                 "--set", "K=abc"]) == 2
    assert "error:" in capsys.readouterr().err


def assert_one_error_line(capsys, *names):
    err = capsys.readouterr().err
    assert err.startswith("error:") and all(name in err for name in names), err
    assert len(err.strip().splitlines()) == 1


def test_negative_seed_exits_2_with_one_line(workdir, tmp_path, capsys):
    assert main(["train", "--dataset", workdir["data"], "--out", str(tmp_path / "m.fpbm"),
                 "--quiet", "--set", "K=16", "--set", "n_p=8", "--set", "seed=-1"]) == 2
    assert_one_error_line(capsys, "seed must be")
    assert not (tmp_path / "m.fpbm").exists()


@pytest.mark.parametrize("setting, lattice", [("r_t=1e9", "lattice_t radius 1000000000.0"),
                                              ("r_m=1e9", "lattice_m radius 316227766")])
def test_huge_radius_exits_2_with_one_line(workdir, tmp_path, capsys, setting, lattice):
    # a valid config; its lattice once asked for an untyped error ("array is too big")
    # or an allocation of exbibytes
    assert main(["train", "--dataset", workdir["data"], "--out", str(tmp_path / "m.fpbm"),
                 "--quiet", "--set", setting]) == 2
    assert_one_error_line(capsys, lattice, "over the 128 px bound")
    assert not (tmp_path / "m.fpbm").exists()


def test_negative_pca_subsample_exits_2_with_one_line(workdir, tmp_path, capsys):
    assert main(["train", "--dataset", workdir["data"], "--out", str(tmp_path / "m.fpbm"),
                 "--quiet", "--set", "K=16", "--set", "n_p=8",
                 "--set", "pca_subsample=-5"]) == 2
    assert_one_error_line(capsys, "pca_subsample must be")
    assert not (tmp_path / "m.fpbm").exists()


def test_overflowing_fusion_weight_exits_2_with_one_line(workdir, tmp_path, capsys):
    # the fused rows' squared norms overflowed in k-means++: an untyped ValueError
    assert main(["train", "--dataset", workdir["data"], "--out", str(tmp_path / "m.fpbm"),
                 "--quiet", "--set", "K=16", "--set", "n_p=8", "--set", "omega_M=1e154"]) == 2
    assert_one_error_line(capsys, "omega_M must be in [0, 1], got 1e+154")
    assert not (tmp_path / "m.fpbm").exists()


def test_one_minutia_impressions_exit_2_with_one_line(tmp_path, capsys):
    # a lone minutia has no neighbour, so every minutia descriptor row is zero, a
    # Gram matrix ARPACK refused with an untyped ArpackError
    data, model = str(tmp_path / "one"), tmp_path / "m.fpbm"
    assert main(["synth", "--out", data, "--subjects", "6", "--impressions", "4",
                 "--minutiae", "1", "--dropout", "0", "--insertion", "0", "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["train", "--dataset", data, "--out", str(model), "--quiet",
                 "--set", "K=4", "--set", "n_p=2"]) == 2
    assert_one_error_line(capsys, "2 components requested but the samples' numerical rank")
    assert not model.exists()


@pytest.mark.parametrize("matcher", ["split", "lgs"])
def test_evaluate_fold_outside_bits_exits_2_with_one_line(workdir, tmp_path, capsys, matcher):
    out_dir = tmp_path / "eval"
    assert main(["evaluate", "--dataset", workdir["data"], "--model", workdir["model"],
                 "--matcher", matcher, "--fold", "4", "--out-dir", str(out_dir)]) == 2
    assert_one_error_line(capsys, "--fold", matcher)
    assert not out_dir.exists()


def _fail_if_called(*args, **kwargs):
    raise AssertionError("the dataset was loaded or encoded")


@pytest.mark.parametrize("fold", ["0", "17"])
def test_evaluate_bad_fold_exits_2_before_the_dataset(
    workdir, tmp_path, capsys, monkeypatch, fold
):
    monkeypatch.setattr(cli, "load_dataset", _fail_if_called)
    monkeypatch.setattr(cli.pipeline, "encode_dataset", _fail_if_called)
    out_dir = tmp_path / "eval"
    assert main(["evaluate", "--dataset", workdir["data"], "--model", workdir["model"],
                 "--matcher", "bits", "--fold", fold, "--out-dir", str(out_dir)]) == 2
    assert_one_error_line(capsys, f"fold length {fold} outside [1, 16]")
    assert not out_dir.exists()


def test_compress_bad_length_exits_2_before_the_dataset(workdir, capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_dataset", _fail_if_called)
    monkeypatch.setattr(cli.pipeline, "encode_dataset", _fail_if_called)
    assert main(["compress", "--dataset", workdir["data"], "--model", workdir["model"],
                 "--lengths", "8,500"]) == 2
    assert_one_error_line(capsys, "fold length 500 outside [1, 16]")


@pytest.fixture(scope="module")
def saturated_model(workdir):
    """A model whose bar (beta) and pair budget (tau_P) saturate their sigmoids.

    With about 10 minutiae per impression, ``exp(100 * 9)`` in the bar and
    ``exp(200 * 25)`` in the budget overflow a double.
    """
    model = str(workdir["root"] / "model-saturated.fpbm")
    assert main([
        "train", "--dataset", workdir["data"], "--out", model, "--quiet",
        "--set", "K=16", "--set", "n_p=8", "--set", "N_c=20", "--set", "enroll_size=2",
        "--set", "beta=100", "--set", "tau_P=200",
    ]) == 0
    return model


@pytest.mark.parametrize("command", ["enroll", "evaluate split", "evaluate lgs", "match lgs"])
def test_saturated_sigmoids_run(workdir, saturated_model, tmp_path, capsys, command):
    common = ["--dataset", workdir["data"], "--model", saturated_model]
    argv = {
        "enroll": ["enroll", *common, "--out-dir", str(tmp_path / "fingers")],
        "evaluate split": ["evaluate", "--matcher", "split", *common,
                           "--out-dir", str(tmp_path / "eval")],
        "evaluate lgs": ["evaluate", "--matcher", "lgs", *common,
                         "--out-dir", str(tmp_path / "eval")],
        "match lgs": ["match", "--kind", "lgs", *common,
                      "--pairs", _pairs(tmp_path, "s001 01 s001 03\ns001 01 s002 01\n")],
    }[command]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if command == "match lgs":
        # each budget sits at its floor, min_nL = 4, which both sides fill
        fields = [line.split() for line in out.splitlines()]
        assert [(len(f), f[4]) for f in fields] == [(6, "lgs"), (6, "lgs")]
    elif command == "enroll":
        assert sorted(os.listdir(tmp_path / "fingers")) == [
            "s001.fpfm", "s002.fpfm", "s003.fpfm"]
    else:
        assert "eer" in out


@pytest.mark.parametrize("flag, value, named", [
    ("--seed", "-1", "seed"),
    ("--width", "40", "width"),  # no room inside the 24 px margins
    ("--insertion", "2", "insertion"),
    ("--rotation", "nan", "rotation_deg"),
    ("--translation", "inf", "translation_px"),
    ("--dropout", "-1", "dropout"),
])
def test_synth_bad_argument_exits_2_with_one_line(tmp_path, capsys, flag, value, named):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--subjects", "1", "--impressions", "1",
                 flag, value]) == 2
    assert_one_error_line(capsys, named)
    assert not out.exists()


def test_synth_flags_set_only_the_fields_given(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "synth_dataset", lambda params: seen.append(params) or {})
    assert main(["synth", "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", "--out", str(tmp_path / "b"), "--subjects", "3",
                 "--noise-std", "2.5", "--seed", "7"]) == 0
    assert seen == [SynthParams(), SynthParams(n_subjects=3, noise_std=2.5, seed=7)]
    fields = {f.name for f in dataclasses.fields(SynthParams)}
    assert {name for _, name, _, _ in cli._SYNTH_FLAGS} <= fields


def test_train_non_utf8_template_exits_2_with_one_line(tmp_path, capsys):
    data = tmp_path / "data"
    save_dataset(synth_dataset(SynthParams(n_subjects=2, n_impressions=2, width=96,
                                           height=96, n_minutiae=8, seed=3)), str(data))
    bad = sorted((data / "templates").iterdir())[1]
    bad.write_bytes(bad.read_bytes().rstrip(b"\n") + b"\xff\n")
    assert main(["train", "--dataset", str(data), "--out", str(tmp_path / "m.fpbm"),
                 "--quiet"]) == 2
    assert_one_error_line(capsys, bad.name, "UTF-8")
    assert not (tmp_path / "m.fpbm").exists()


def test_match_non_utf8_pairs_exits_2_with_one_line(workdir, tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_bytes(b"# subject impression subject impression\ns0 1 s1 1\xff\n")
    assert main(["match", "--kind", "bits", "--pairs", str(pairs),
                 "--bits-dir", workdir["bits"]]) == 2
    assert_one_error_line(capsys, "pairs.txt", "UTF-8")


def _unreadable(tmp_path, how, name):
    """A path that cannot be read as a file: absent, or a directory."""
    path = tmp_path / name
    if how == "directory":
        path.mkdir()
    return str(path)


UNREADABLE_ARGS = {
    "inspect --model": lambda wd, bad: ["inspect", "--model", bad],
    "inspect --bits": lambda wd, bad: ["inspect", "--bits", bad],
    "inspect --finger": lambda wd, bad: ["inspect", "--finger", bad],
    "encode --model": lambda wd, bad: ["encode", "--dataset", wd["data"], "--model", bad,
                                       "--out-dir", bad + ".out"],
    "enroll --model": lambda wd, bad: ["enroll", "--dataset", wd["data"], "--model", bad,
                                       "--out-dir", bad + ".out"],
    "evaluate --model": lambda wd, bad: ["evaluate", "--dataset", wd["data"], "--model", bad,
                                         "--out-dir", bad + ".out"],
    "compress --model": lambda wd, bad: ["compress", "--dataset", wd["data"], "--model", bad,
                                         "--lengths", "8"],
    "match --model": lambda wd, bad: ["match", "--kind", "lgs", "--pairs", wd["pairs"],
                                      "--dataset", wd["data"], "--model", bad],
    "train --config": lambda wd, bad: ["train", "--dataset", wd["data"], "--config", bad,
                                       "--out", bad + ".fpbm"],
    "match --pairs": lambda wd, bad: ["match", "--kind", "bits", "--pairs", bad,
                                      "--bits-dir", wd["bits"]],
}


@pytest.mark.parametrize("how", ["missing", "directory"])
@pytest.mark.parametrize("command", sorted(UNREADABLE_ARGS))
def test_unreadable_input_exits_2_with_one_line(workdir, tmp_path, capsys, command, how):
    bad = _unreadable(tmp_path, how, "input.bin")
    paths = dict(workdir, pairs=_pairs(tmp_path, "s001 01 s001 02\n"))
    assert main(UNREADABLE_ARGS[command](paths, bad)) == 2
    assert_one_error_line(capsys, bad)


def _train_out(wd, bad):
    return ["train", "--dataset", wd["data"], "--out", bad, "--quiet",
            "--set", "K=16", "--set", "n_p=8", "--set", "N_c=20"]


def _match_out(wd, bad):
    return ["match", "--kind", "bits", "--pairs", wd["pairs"], "--bits-dir", wd["bits"],
            "--out", bad]


def _compress_out(wd, bad):
    return ["compress", "--dataset", wd["data"], "--model", wd["model"], "--lengths", "8",
            "--out", bad]


UNWRITABLE_ARGS = {
    "train --out": ("missing", _train_out),
    "match --out": ("missing", _match_out),
    "compress --out": ("missing", _compress_out),
    "train --out dir": ("dir", _train_out),
    "match --out dir": ("dir", _match_out),
    "compress --out dir": ("dir", _compress_out),
    "encode --out-dir": ("file", lambda wd, bad: [
        "encode", "--dataset", wd["data"], "--model", wd["model"], "--out-dir", bad]),
    "enroll --out-dir": ("file", lambda wd, bad: [
        "enroll", "--dataset", wd["data"], "--model", wd["model"], "--out-dir", bad]),
    "evaluate --out-dir": ("file", lambda wd, bad: [
        "evaluate", "--dataset", wd["data"], "--model", wd["model"], "--out-dir", bad]),
    "synth --out": ("file", lambda wd, bad: [
        "synth", "--out", bad, "--subjects", "1", "--impressions", "1",
        "--width", "64", "--height", "64", "--minutiae", "2"]),
}


@pytest.mark.parametrize("command", sorted(UNWRITABLE_ARGS))
def test_unwritable_output_exits_2_with_one_line(workdir, tmp_path, capsys, command):
    how, argv = UNWRITABLE_ARGS[command]
    if how == "missing":  # the parent directory does not exist
        bad = str(tmp_path / "missing" / "out.txt")
    elif how == "dir":  # the output file is an existing directory
        bad = str(tmp_path / "adir")
        os.mkdir(bad)
        with open(os.path.join(bad, "keep"), "w") as fh:
            fh.write("keep")
    else:  # the output directory is an existing file
        bad = str(tmp_path / "out")
        with open(bad, "w") as fh:
            fh.write("keep")
    paths = dict(workdir, pairs=_pairs(tmp_path, "s001 01 s001 02\n"))
    before = sorted(os.listdir(tmp_path))
    assert main(argv(paths, bad)) == 2
    err = capsys.readouterr().err
    # the message names the path given, not a temporary file beside it
    assert err.startswith("error:") and repr(bad) in err and ".tmp" not in err, err
    assert len(err.strip().splitlines()) == 1
    if how == "missing":
        assert not os.path.exists(os.path.dirname(bad))
    elif how == "dir":
        assert sorted(os.listdir(tmp_path)) == before  # no temporary file left
        assert os.listdir(bad) == ["keep"]
        assert open(os.path.join(bad, "keep")).read() == "keep"
    else:
        assert open(bad).read() == "keep"


EMPTY_PAIRS_ARGS = {
    "bits": lambda wd, pairs: ["match", "--kind", "bits", "--pairs", pairs,
                               "--bits-dir", wd["bits"]],
    "masked": lambda wd, pairs: ["match", "--kind", "masked", "--pairs", pairs,
                                 "--bits-dir", wd["bits"], "--fingers-dir", wd["fingers"],
                                 "--model", wd["model"]],
    "lgs": lambda wd, pairs: ["match", "--kind", "lgs", "--pairs", pairs,
                              "--dataset", wd["data"], "--model", wd["model"]],
}


@pytest.mark.parametrize("kind", sorted(EMPTY_PAIRS_ARGS))
def test_match_empty_pairs_file_writes_nothing(workdir, tmp_path, capsys, kind):
    pairs = _pairs(tmp_path, "# no pairs\n\n")
    assert main(EMPTY_PAIRS_ARGS[kind](workdir, pairs)) == 0
    assert capsys.readouterr().out == ""
    out = tmp_path / "scores.txt"
    assert main(EMPTY_PAIRS_ARGS[kind](workdir, pairs) + ["--out", str(out)]) == 0
    assert out.read_bytes() == b""
    assert capsys.readouterr().out == f"wrote 0 scores to {out}\n"


def _copy_tree(src, dst):
    os.makedirs(dst)
    for name in sorted(os.listdir(src)):
        path = os.path.join(src, name)
        if os.path.isdir(path):
            _copy_tree(path, os.path.join(dst, name))
        else:
            with open(path, "rb") as fh, open(os.path.join(dst, name), "wb") as out:
                out.write(fh.read())


@pytest.mark.parametrize("subdir, name", [("templates", "s009_01.fpt"),
                                          ("images", "s001_02.pgm")])
def test_dataset_entry_that_is_a_directory_exits_2(workdir, tmp_path, capsys, subdir, name):
    data = str(tmp_path / "data")
    _copy_tree(workdir["data"], data)
    entry = os.path.join(data, subdir, name)
    if os.path.exists(entry):
        os.remove(entry)
    os.mkdir(entry)
    if subdir == "templates":  # a template needs its image to be looked at
        os.mkdir(os.path.join(data, "images", "s009_01.pgm"))
    assert main(["train", "--dataset", data, "--out", str(tmp_path / "m.fpbm"),
                 "--quiet"]) == 2
    assert_one_error_line(capsys, name)


def test_template_and_image_of_different_sizes_exit_2_with_one_line(
    workdir, tmp_path, capsys
):
    # the synth images are 128x128; this template declares 256x256
    data = str(tmp_path / "data")
    _copy_tree(workdir["data"], data)
    path = os.path.join(data, "templates", "s002_03.fpt")
    template = parse_text_template(read_text(path))
    with open(path, "w") as fh:
        fh.write(serialize_text_template(
            dataclasses.replace(template, width=256, height=256)
        ))
    assert main(["train", "--dataset", data, "--out", str(tmp_path / "m.fpbm"),
                 "--quiet", "--set", "K=16", "--set", "n_p=8", "--set", "N_c=20"]) == 2
    assert_one_error_line(capsys, "s002_03.fpt", "s002_03.pgm", "256x256", "128x128")
    assert not os.path.exists(tmp_path / "m.fpbm")


def _with_an_empty_template(workdir, tmp_path):
    """A copy of ``workdir``'s dataset whose s003_02 template has no minutiae."""
    data = str(tmp_path / "data")
    _copy_tree(workdir["data"], data)
    path = os.path.join(data, "templates", "s003_02.fpt")
    template = parse_text_template(read_text(path))
    with open(path, "w") as fh:
        fh.write(serialize_text_template(dataclasses.replace(template, minutiae=template.minutiae[:0])))
    return data


def test_encode_failure_leaves_no_output_directory(workdir, tmp_path, capsys):
    data = _with_an_empty_template(workdir, tmp_path)
    out_dir = tmp_path / "enc"
    assert main(["encode", "--dataset", data, "--model", workdir["model"],
                 "--out-dir", str(out_dir)]) == 2
    assert_one_error_line(capsys, "impression s003/02 has no minutiae")
    assert not out_dir.exists()


@pytest.mark.parametrize("matcher", ["lgs", "bits", "split"])
def test_evaluate_failure_leaves_no_output_directory(workdir, tmp_path, capsys, matcher):
    data = _with_an_empty_template(workdir, tmp_path)
    out_dir = tmp_path / "ev"
    assert main(["evaluate", "--dataset", data, "--model", workdir["model"],
                 "--matcher", matcher, "--out-dir", str(out_dir)]) == 2
    assert_one_error_line(capsys, "impression s003/02 has no minutiae")
    assert not out_dir.exists()


def _pairs(tmp_path, text):
    path = tmp_path / "pairs.txt"
    path.write_text(text)
    return str(path)


EMPTY_IMPRESSION_ARGS = {
    "train": lambda wd, data, out, pairs: [
        "train", "--dataset", data, "--out", out, "--quiet",
        "--set", "K=16", "--set", "n_p=8", "--set", "N_c=20"],
    "enroll": lambda wd, data, out, pairs: [
        "enroll", "--dataset", data, "--model", wd["model"], "--out-dir", out],
    "match --kind lgs": lambda wd, data, out, pairs: [
        "match", "--kind", "lgs", "--pairs", pairs, "--model", wd["model"],
        "--dataset", data, "--out", out],
}


@pytest.mark.parametrize("command", sorted(EMPTY_IMPRESSION_ARGS))
def test_empty_impression_exits_2_with_one_line(workdir, tmp_path, capsys, command):
    data = _with_an_empty_template(workdir, tmp_path)
    out = tmp_path / "out"
    pairs = _pairs(tmp_path, "s001 01 s003 02\n")
    assert main(EMPTY_IMPRESSION_ARGS[command](workdir, data, str(out), pairs)) == 2
    assert_one_error_line(capsys, "impression s003/02 has no minutiae")
    assert not out.exists()


def test_bits_entry_that_is_a_directory_exits_2(workdir, tmp_path, capsys):
    bits = str(tmp_path / "bits")
    _copy_tree(workdir["bits"], bits)
    os.mkdir(os.path.join(bits, "s009_01.fpbs"))
    pairs = _pairs(tmp_path, "s001 01 s001 02\n")
    assert main(["match", "--kind", "bits", "--pairs", pairs, "--bits-dir", bits]) == 2
    assert_one_error_line(capsys, "s009_01.fpbs")


@pytest.mark.parametrize("how", ["missing", "directory"])
def test_unreadable_finger_model_exits_2(workdir, tmp_path, capsys, how):
    fingers = str(tmp_path / "fingers")
    _copy_tree(workdir["fingers"], fingers)
    os.remove(os.path.join(fingers, "s002.fpfm"))
    if how == "directory":
        os.mkdir(os.path.join(fingers, "s002.fpfm"))
    pairs = _pairs(tmp_path, "s002 x s002 04\n")
    assert main(["match", "--kind", "masked", "--pairs", pairs, "--model", workdir["model"],
                 "--bits-dir", workdir["bits"], "--fingers-dir", fingers]) == 2
    assert_one_error_line(capsys, "s002.fpfm")


def test_bits_filename_without_impression_exits_2(workdir, tmp_path, capsys):
    # "foo.fpbs" has no <subject>_ part; load_dataset rejects such a stem too
    bits = str(tmp_path / "bits")
    _copy_tree(workdir["bits"], bits)
    with open(os.path.join(workdir["bits"], "s001_01.fpbs"), "rb") as fh:
        data = fh.read()
    with open(os.path.join(bits, "foo.fpbs"), "wb") as fh:
        fh.write(data)
    pairs = _pairs(tmp_path, "s001 01 s001 02\n")
    assert main(["match", "--kind", "bits", "--pairs", pairs, "--bits-dir", bits]) == 2
    assert_one_error_line(capsys, "foo.fpbs")
    with pytest.raises(FpbitsError, match="foo.fpbs"):
        cli._load_bits_dir(bits)


def test_the_cli_reads_back_the_names_it_writes(workdir, tmp_path, capsys):
    # workdir as synth wrote it, and a copy whose subject s002 is named a_b
    items = {("a_b" if sid == "s002" else sid, iid): value
             for (sid, iid), value in load_dataset(workdir["data"]).items()}
    renamed = {name: str(tmp_path / name) for name in ("data", "bits", "fingers")}
    save_dataset(items, renamed["data"])
    for command, out in (("encode", "bits"), ("enroll", "fingers")):
        assert main([command, "--dataset", renamed["data"], "--model", workdir["model"],
                     "--out-dir", renamed[out]]) == 0
    synth_keys = set(synth_dataset(SynthParams(n_subjects=3, n_impressions=4, width=128,
                                               height=128, n_minutiae=12, seed=9)))
    for paths, keys in ((workdir, synth_keys), (renamed, set(items))):
        assert set(load_dataset(paths["data"])) == keys
        assert set(cli._load_bits_dir(paths["bits"])) == keys
        # every enrolled finger is found under its subject's name, against every string
        subjects = sorted({sid for sid, _ in keys})
        pairs = _pairs(tmp_path, "".join(f"{finger} x {sid} {iid}\n" for finger in subjects
                                         for sid, iid in sorted(keys)))
        capsys.readouterr()
        assert main(["match", "--kind", "masked", "--pairs", pairs, "--model", workdir["model"],
                     "--bits-dir", paths["bits"], "--fingers-dir", paths["fingers"]]) == 0
        assert len(capsys.readouterr().out.splitlines()) == len(subjects) * len(keys)
    assert "a_b" in subjects


# root ignores directory permissions, so os.listdir is patched rather than chmod'ed
@pytest.mark.parametrize("command", ["train", "match --kind bits"])
def test_unlistable_directory_exits_2_with_one_line(workdir, tmp_path, capsys, monkeypatch,
                                                    command):
    if command == "train":
        directory = os.path.join(workdir["data"], "templates")
        argv = ["train", "--dataset", workdir["data"], "--out", str(tmp_path / "m.fpbm"),
                "--quiet"]
    else:
        directory = workdir["bits"]
        argv = ["match", "--kind", "bits", "--pairs", _pairs(tmp_path, "s001 01 s001 02\n"),
                "--bits-dir", directory]
    listdir = os.listdir

    def refusing(path="."):  # as os.listdir refuses a directory without read permission
        if os.path.abspath(path) == os.path.abspath(directory):
            raise PermissionError(13, "Permission denied", path)
        return listdir(path)

    monkeypatch.setattr(os, "listdir", refusing)
    assert main(argv) == 2
    assert_one_error_line(capsys, f"cannot list {directory!r}: Permission denied")
    assert os.listdir(tmp_path) == ([] if command == "train" else ["pairs.txt"])


# ---------------------------------------------------------------------------
# determinism across interpreters
# ---------------------------------------------------------------------------

def _fresh_run(root, hash_seed, threads=1):
    """``synth``, ``train`` and ``encode`` of the 6x4 set, each in a new interpreter,
    at ``threads`` BLAS threads and ``PYTHONHASHSEED=hash_seed``; the files each wrote,
    by path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    data, model, bits = (str(root / name) for name in ("data", "model.fpbm", "bits"))
    for args in (["synth", "--out", data, "--subjects", "6", "--impressions", "4",
                  "--seed", "7"],
                 ["train", "--dataset", data, "--out", model, "--quiet",
                  "--set", "K=16", "--set", "n_p=8"],
                 ["encode", "--dataset", data, "--model", model, "--out-dir", bits]):
        proc = subprocess.run([sys.executable, "-m", "fpbits.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.fixture(scope="module")
def one_thread_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("one-thread")
    return _fresh_run(root / "a", 1), _fresh_run(root / "b", 2)


def _differing(first, second):
    assert first.keys() == second.keys()
    return [name for name in first if first[name] != second[name]]


def test_fresh_interpreters_write_identical_files(one_thread_runs):
    # the README's promise: outputs depend on the configured seed alone, here
    # for one BLAS thread count and two hash seeds, so no set or dict order leaks
    first, second = one_thread_runs
    assert "model.fpbm" in first and sum(name.endswith(".fpbs") for name in first) == 24
    assert _differing(first, second) == []


def test_two_blas_threads_repeat_themselves_and_the_dataset(one_thread_runs, tmp_path):
    # at two BLAS threads the runs agree with each other, and the dataset with the
    # one-thread runs'; README promises nothing of the model or the bit-strings
    # across thread counts, so they are not compared across them
    first = _fresh_run(tmp_path / "a", 1, threads=2)
    second = _fresh_run(tmp_path / "b", 2, threads=2)
    assert _differing(first, second) == []
    data = [name for name in first if name.startswith("data" + os.sep)]
    assert len(data) == 48
    assert _differing({n: first[n] for n in data}, {n: one_thread_runs[0][n] for n in data}) == []


# ---------------------------------------------------------------------------
# loader fuzzing: every mutated file loads or is rejected with a typed error
# ---------------------------------------------------------------------------

def _fuzz_case(kind, path):
    """Seed bytes and the loader that reads them, as a command would."""
    (template, image), = synth_dataset(SynthParams(
        n_subjects=1, n_impressions=1, width=96, height=96, n_minutiae=12, seed=4,
    )).values()

    def through_file(read):
        def load(data):
            path.write_bytes(data)
            return read(str(path))
        return load

    if kind == "template":  # load_dataset's path: UTF-8 text, then the parser
        return (serialize_text_template(template).encode("ascii"),
                through_file(lambda p: parse_text_template(read_text(p), "s", "1")))
    if kind == "pgm":  # a small image, so that most mutations hit the header
        return write_pgm(GrayImage(image.pixels[:6, :5])), read_pgm
    return (b"# subject impression subject impression\ns1 1 s2 1\r\ns1 2 s3 4\n",
            through_file(cli._read_pairs))


@pytest.mark.parametrize("kind", ["template", "pgm", "pairs"])
def test_fuzz_file_loaders_zero_untyped(kind, tmp_path):
    blob, load = _fuzz_case(kind, tmp_path / "payload")
    load(blob)  # the seed itself loads
    rng = np.random.default_rng(1306)
    crashes = []
    loaded = 0
    for _ in range(3000):
        out = bytearray(blob)
        for _ in range(int(rng.integers(1, 4))):
            out[int(rng.integers(len(out)))] = int(rng.integers(256))
        try:
            load(bytes(out))
        except FpbitsError:
            continue
        except Exception as exc:  # anything untyped is a crash
            crashes.append(f"{type(exc).__name__}: {exc}")
            continue
        loaded += 1
    assert not crashes, f"{len(crashes)} untyped, first: {crashes[0]}"
    assert loaded > 0
