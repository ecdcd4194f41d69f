"""The one-row API views against the oracles they replaced, and their typed errors.

``build_mbls``, ``extract_tbls``, ``fuse``, ``intersection_score``,
``masked_score`` and ``fvc_pairs`` stay public, and the benchmark names
them, but each is a call into the matrix function of its stage. Each must
give what the moved reference form in ``tests/oracles.py`` gives on a
synthetic set: bit for bit, except ``build_mbls``, whose matrix path expands
the bump exponent and is held to ``MBLS_TOL``. The two descriptor views take
a template's ``minutiae`` array and a row index. Nothing under ``src/fpbits``
may call a view, so the package keeps one implementation per stage.
``fpbits.bit_training`` imports no package module but ``errors`` and, for
the scalar rule of ``FingerModel``'s fields, ``config``, so the stage works
on plain numpy matrices.
"""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import oracles
from fpbits import local_structures, matching, protocol, subspace_fusion
from fpbits.bit_training import FingerModel
from fpbits.codebook import BitString
from fpbits.config import PipelineConfig
from fpbits.errors import EmptyScores, LengthMismatch
from fpbits.local_structures import tbls_matrix
from fpbits.pipeline import encode_dataset, enroll_subject, train_model
from fpbits.subspace_fusion import project
from fpbits.synth import SynthParams, synth_dataset

# as in tests/test_local_structures.py
MBLS_TOL = 1e-12

SRC = Path(__file__).resolve().parents[1] / "src" / "fpbits"


@pytest.fixture(scope="module")
def synth_run():
    """A 4x3 synthetic set, a small model, its strings and one finger per subject."""
    items = synth_dataset(SynthParams(n_subjects=4, n_impressions=3, width=128,
                                      height=128, n_minutiae=12, seed=7))
    model = train_model(items, PipelineConfig(r_m=30.0, r_t=8.0, K=16, n_p=8,
                                              N_c=20, seed=3))
    encoded = encode_dataset(items, model)
    fingers = {}
    for subject in sorted({key[0] for key in encoded}):
        keys = sorted(key for key in encoded if key[0] == subject)
        fingers[subject] = enroll_subject(subject, [encoded[key] for key in keys[:2]],
                                          model)
    return items, model, encoded, fingers


def check_build_mbls(items, model, encoded, fingers):
    for template, _ in items.values():
        objects = oracles.minutia_objects(template.minutiae)
        for row, m in enumerate(objects):
            got = local_structures.build_mbls(template.minutiae, row, model.geometry)
            want = oracles.build_mbls(m, objects, model.geometry)
            assert np.max(np.abs(got - want)) <= MBLS_TOL


def check_extract_tbls(items, model, encoded, fingers):
    for template, image in items.values():
        norm = oracles.normalize_image_oracle(image)
        for row, m in enumerate(oracles.minutia_objects(template.minutiae)):
            got = local_structures.extract_tbls(template.minutiae, row, image, model.geometry)
            want = oracles.extract_tbls(m, norm, model.geometry, fill=0.0)
            assert got.tobytes() == want.tobytes()


def check_fuse(items, model, encoded, fingers):
    cfg = model.config
    for template, image in items.values():
        mbls = local_structures.mbls_matrix(template.minutiae, model.geometry)
        tbls = tbls_matrix(template.minutiae, image, model.geometry)
        for a, b in zip(project(model.pca_m, mbls), project(model.pca_t, tbls)):
            got = subspace_fusion.fuse(a, b, cfg.omega_M, cfg.omega_T)
            want = oracles.fuse(a, b, cfg.omega_M, cfg.omega_T)
            assert got.tobytes() == want.tobytes()


def check_intersection_score(items, model, encoded, fingers):
    strings = [encoded[key].bits for key in sorted(encoded)]
    strings.append(BitString(np.zeros(model.codebook.k, dtype=bool)))
    for a, b in itertools.product(strings, strings):
        assert matching.intersection_score(a, b) == oracles.intersection_score(a, b)


def check_masked_score(items, model, encoded, fingers):
    for finger, key, mask_both in itertools.product(
        fingers.values(), sorted(encoded), (True, False)
    ):
        query = encoded[key].bits
        got = matching.masked_score(query, finger, mask_both)
        assert got == oracles.masked_score(query, finger, mask_both)


def check_fvc_pairs(items, model, encoded, fingers):
    for shape in ((4, 3), (1, 1), (1, 4), (5, 1), (12, 8)):
        assert protocol.fvc_pairs(*shape) == oracles.fvc_pairs(*shape)


CHECKS = {
    "build_mbls": check_build_mbls,
    "extract_tbls": check_extract_tbls,
    "fuse": check_fuse,
    "intersection_score": check_intersection_score,
    "masked_score": check_masked_score,
    "fvc_pairs": check_fvc_pairs,
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_view_matches_its_oracle(synth_run, name):
    CHECKS[name](*synth_run)


def finger(k):
    return FingerModel(finger_id="f", power=np.zeros(k), reliability=np.zeros(k),
                       mask=np.ones(k, dtype=bool), n_mean=5.0,
                       reference=np.ones(k, dtype=bool))


ONES = np.ones(12, dtype=bool)
TYPED_ERRORS = {
    "fuse parts": (LengthMismatch, lambda: subspace_fusion.fuse(
        np.zeros(5), np.zeros(6), 0.5, 0.5)),
    "intersection strings": (LengthMismatch, lambda: matching.intersection_score(
        BitString(ONES), BitString(ONES[:10]))),
    "masked mask": (LengthMismatch, lambda: matching.masked_score(
        BitString(ONES), finger(10), True)),
    "masked strings": (LengthMismatch, lambda: matching.masked_score(
        BitString(ONES[:10]), finger(12), False)),
    "fvc_pairs no subjects": (EmptyScores, lambda: protocol.fvc_pairs(0, 4)),
}


@pytest.mark.parametrize("case", sorted(TYPED_ERRORS))
def test_view_keeps_its_typed_error(case):
    error, call = TYPED_ERRORS[case]
    with pytest.raises(error):
        call()


def view_calls(path):
    """``(line, name)`` of every call in a module to one of the views."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in CHECKS:
                calls.append((node.lineno, name))
    return calls


def test_no_module_in_the_package_calls_a_view():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    found = {path.name: view_calls(path) for path in modules}
    assert not {name: calls for name, calls in found.items() if calls}


def package_imports(path):
    """The ``fpbits`` modules a package module imports, by their short names."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "fpbits":
                continue
            inside = parts[1:] if node.level == 0 else [p for p in parts if p]
            found.update(inside[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "fpbits":
                    found.add(parts[1] if len(parts) > 1 else "fpbits")
    return found


def test_bit_training_imports_only_errors_from_the_package():
    assert package_imports(SRC / "bit_training.py") == {"config", "errors"}
