"""Command-line lifecycle on a miniature dataset."""

import os

import numpy as np
import pytest

from fpbits.cli import load_dataset, main, save_dataset
from fpbits.model_store import load_model_file
from fpbits.synth import SynthParams, synth_dataset


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


def test_inspect_nothing(capsys):
    assert main(["inspect"]) == 2


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


def test_bad_config_override(tmp_path, capsys):
    assert main(["train", "--dataset", str(tmp_path),
                 "--out", str(tmp_path / "m.fpbm"),
                 "--set", "K=abc"]) == 2
    assert "error:" in capsys.readouterr().err
