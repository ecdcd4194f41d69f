"""The whole-impression matrix path against the per-minutia oracles."""

import numpy as np
import pytest

from fpbits.config import PipelineConfig
from fpbits.local_structures import build_mbls, extract_tbls, normalize_image
from fpbits.model_store import load_model, save_model
from fpbits.pipeline import (
    encode_impression,
    fused_vectors,
    raw_structures,
    train_model,
)
from fpbits.subspace_fusion import fuse, project
from fpbits.synth import SynthParams, synth_dataset
from fpbits.template_io import MinutiaTemplate

# as in tests/test_local_structures.py: eps times the largest bump exponent
# term, r_m^2 / (2 sigma_r0^2), with room for a few roundings
MBLS_TOL = 1e-12


@pytest.fixture(scope="module")
def small_run():
    """A model whose two subspace fits both take the covariance branch.

    Small discs keep the descriptor lengths (n_m, n_t) below the 480 pooled
    training rows, so ``train_pca`` decomposes the covariance matrix, not the
    Gram matrix.
    """
    items = synth_dataset(SynthParams(n_subjects=10, n_impressions=4, width=128,
                                      height=128, n_minutiae=12, seed=5))
    config = PipelineConfig(r_m=30.0, r_t=8.0, K=16, n_p=8, N_c=20,
                            pca_subsample=0, seed=3)
    model = train_model(items, config)
    n_rows = sum(len(t.minutiae) for t, _ in items.values())
    assert n_rows >= max(model.geometry.n_m, model.geometry.n_t)
    return items, model


def test_reloaded_model_encodes_identically(small_run):
    items, model = small_run
    reloaded = load_model(save_model(model))
    for key in sorted(items):
        template, image = items[key]
        fitted = encode_impression(template, image, model)
        loaded = encode_impression(template, image, reloaded)
        assert np.array_equal(fitted.distances.values, loaded.distances.values), key
        assert fitted.bits == loaded.bits


def test_raw_structures_match_oracles(small_run):
    items, model = small_run
    template, image = items[sorted(items)[0]]
    mbls, tbls = raw_structures(template, image, model.geometry, model.spread)
    norm = normalize_image(image)
    ms = template.minutiae
    want_m = np.array([build_mbls(m, ms, model.geometry, model.spread) for m in ms])
    want_t = np.array([extract_tbls(m, norm, model.geometry, fill=0.0) for m in ms])
    assert np.max(np.abs(mbls - want_m)) <= MBLS_TOL
    assert np.array_equal(tbls, want_t)


def test_fused_matrix_matches_per_row_project_and_fuse(small_run):
    items, model = small_run
    cfg = model.config
    for key in sorted(items)[:4]:
        template, image = items[key]
        mbls, tbls = raw_structures(template, image, model.geometry, model.spread)
        want = np.array([
            fuse(project(model.pca_m, m), project(model.pca_t, t),
                 cfg.omega_M, cfg.omega_T).values
            for m, t in zip(mbls, tbls)
        ])
        got = fused_vectors(template, image, model)
        assert got.shape == (len(template.minutiae), 2 * cfg.n_p)
        # projections differ in summation order only; z-scores are O(1)
        assert np.allclose(got, want, rtol=0.0, atol=1e-10)


def test_empty_and_single_minutia_impressions(small_run):
    items, model = small_run
    template, image = items[sorted(items)[0]]
    empty = MinutiaTemplate([], template.width, template.height,
                            template.subject_id, template.impression_id)
    assert fused_vectors(empty, image, model).shape == (0, 2 * model.config.n_p)
    single = MinutiaTemplate(template.minutiae[:1], template.width, template.height,
                             template.subject_id, template.impression_id)
    enc = encode_impression(single, image, model)
    assert enc.n_minutiae == 1 and len(enc.distances) == model.codebook.k
