"""Command-line lifecycle on a miniature dataset."""

import os

import numpy as np
import pytest

from fpbits import cli
from fpbits.cli import load_dataset, main, save_dataset
from fpbits.errors import FpbitsError
from fpbits.matching import intersection_score, masked_score
from fpbits.model_store import load_bitstring, load_finger, load_model_file
from fpbits.synth import SynthParams, synth_dataset
from fpbits.template_io import (
    GrayImage,
    parse_iso19794_2,
    parse_text_template,
    read_pgm,
    read_text,
    serialize_iso19794_2,
    serialize_text_template,
    write_pgm,
)


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
        assert [(m.x, m.y, m.theta) for m in t0.minutiae] == [
            (m.x, m.y, m.theta) for m in t1.minutiae
        ]


def test_train_applies_overrides(workdir):
    model = load_model_file(workdir["model"])
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
                 "--bits-dir", workdir["bits"],
                 "--fingers-dir", workdir["fingers"]]) == 0
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


@pytest.mark.parametrize("enrolled_only", [False, True])
def test_match_masked_lines_match_one_pair_oracle(
    workdir, tmp_path, capsys, monkeypatch, enrolled_only
):
    bits = {}
    for name in sorted(os.listdir(workdir["bits"])):
        sid, iid = name[: -len(".fpbs")].split("_")
        with open(os.path.join(workdir["bits"], name), "rb") as fh:
            bits[(sid, iid)] = load_bitstring(fh.read())
    fingers = {}
    for sid in sorted({key[0] for key in bits}):
        with open(os.path.join(workdir["fingers"], f"{sid}.fpfm"), "rb") as fh:
            fingers[sid] = load_finger(fh.read())
    loads = []

    def counting_load_finger(blob):
        loads.append(blob)
        return load_finger(blob)

    monkeypatch.setattr(cli, "load_finger", counting_load_finger)
    path, pairs = _all_pairs_file(tmp_path, sorted(bits), lambda key: (key[0], "x"))
    argv = ["match", "--kind", "masked", "--pairs", str(path),
            "--bits-dir", workdir["bits"], "--fingers-dir", workdir["fingers"]]
    assert main(argv + (["--mask-enrolled-only"] if enrolled_only else [])) == 0
    lines = capsys.readouterr().out.splitlines()
    want = []
    for a, b in pairs:
        finger, reference = fingers[a[0]]
        score = masked_score(bits[b], reference, finger, mask_both=not enrolled_only)
        want.append(_oracle_line(*a, *b, score))
    assert lines == want
    assert len(loads) == len(fingers)  # one load per finger, not per pair


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
    out_dir = tmp_path / "fingers"
    assert main(["enroll", "--dataset", workdir["data"], "--model", workdir["model"],
                 "--out-dir", str(out_dir), "--enroll-size", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "enroll_size" in err
    assert len(err.strip().splitlines()) == 1
    assert not out_dir.exists()


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


def _pairs(tmp_path, text):
    path = tmp_path / "pairs.txt"
    path.write_text(text)
    return str(path)


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
    assert main(["match", "--kind", "masked", "--pairs", pairs,
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
    if kind == "iso":
        return serialize_iso19794_2(template), parse_iso19794_2
    return (b"# subject impression subject impression\ns1 1 s2 1\r\ns1 2 s3 4\n",
            through_file(cli._read_pairs))


@pytest.mark.parametrize("kind", ["template", "pgm", "iso", "pairs"])
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
