"""The matrix paths against the per-minutia and per-pair oracles."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import fpbits.pipeline as pipeline

from fpbits.codebook import (
    BitString,
    DistanceVector,
    cluster_cardinalities,
    encode_bitstring,
    estimate_radii,
    global_mean,
    kmeans_train,
)

from fpbits.config import PipelineConfig
from fpbits.local_structures import build_mbls, extract_tbls, normalize_image
from fpbits.model_store import geometry_from_config, load_model, save_model
from fpbits.matching import fold_compress, intersection_score, masked_score
from fpbits.pipeline import (
    EncodedImpression,
    _subsample_rows,
    compression_sweep,
    encode_dataset,
    encode_impression,
    enroll_subject,
    evaluate_fvc_bits,
    evaluate_split,
    fused_vectors,
    raw_structures,
    train_model,
)
from fpbits.protocol import POLARITY_SIMILARITY, compute_eer, fvc_pairs
from fpbits.subspace_fusion import fuse, project
from fpbits.synth import SynthParams, synth_dataset
from fpbits.template_io import MinutiaTemplate
from oracles import kmeans_train_oracle, subsample_oracle, train_model_oracle

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


@pytest.fixture(scope="module")
def gram_run(small_run):
    """``small_run``'s impressions with a texture disc whose fit takes the Gram branch."""
    items, model = small_run
    config = dataclasses.replace(model.config, r_t=16.0)
    model = train_model(items, config)
    n_rows = sum(len(t.minutiae) for t, _ in items.values())
    assert model.geometry.n_t > n_rows
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


def test_encode_impression_matches_per_minutia_oracle_path(small_run):
    # the whole encode against the slow path it replaced: per-minutia
    # descriptors, per-vector projection and fusion, then the bit-string
    items, model = small_run
    cfg, geom = model.config, model.geometry
    for key in sorted(items):
        template, image = items[key]
        norm = normalize_image(image)
        ms = template.minutiae
        vectors = np.array([
            fuse(
                project(model.pca_m, build_mbls(m, ms, geom, model.spread)),
                project(model.pca_t, extract_tbls(m, norm, geom, fill=0.0)),
                cfg.omega_M,
                cfg.omega_T,
            ).values
            for m in ms
        ])
        want = encode_bitstring(vectors, model.codebook, cfg.tau_s, cfg.top_t, cfg.gate_all)
        assert encode_impression(template, image, model).bits == want, key


def test_fit_with_oracle_kmeans_saves_identical_bytes(small_run, monkeypatch):
    # the whole fit once more with the direct-form k-means++ and Lloyd loop
    items, model = small_run
    monkeypatch.setattr(pipeline, "kmeans_train", kmeans_train_oracle)
    assert save_model(train_model(items, model.config)) == save_model(model)


@pytest.mark.parametrize("cap", [0, 12, 30, 31])
def test_subsample_is_a_new_array(cap):
    # the index helper picks exactly the rows the old copying subsample
    # picked, from the row count and the seed alone; the fit matrix built
    # from them is a new array
    matrix = np.arange(30 * 4, dtype=np.float64).reshape(30, 4)
    idx = _subsample_rows(30, cap, seed=3)
    assert idx.dtype.kind == "i" and np.array_equal(idx, np.unique(idx))
    assert idx.size == (30 if cap in (0, 30, 31) else cap)
    sub = matrix[idx]
    assert not np.shares_memory(sub, matrix)
    assert np.array_equal(sub, subsample_oracle(matrix, cap, seed=3))


def test_uncapped_fit_saves_the_one_pass_oracle_bytes(small_run, gram_run):
    # every row subsampled: the two-pass fit is the one-pass fit, byte for byte
    for items, model in (small_run, gram_run):
        assert save_model(train_model_oracle(items, model.config)) == save_model(model)


@pytest.mark.parametrize("run", ["small_run", "gram_run"])
def test_uncapped_fit_is_fitted_on_its_own_encodings(run, request):
    # every row subsampled: the codebook is fitted on exactly the fused
    # matrices encode computes, so refitting on them reproduces it bit for bit
    items, model = request.getfixturevalue(run)
    cfg, codebook = model.config, model.codebook
    keys = sorted(items)
    fused = np.concatenate([fused_vectors(*items[key], model) for key in keys])
    centroids = kmeans_train(fused, cfg.K, max_iters=cfg.kmeans_max_iters, seed=cfg.seed)
    radii = estimate_radii(fused, centroids, cfg.N_c)
    assert np.array_equal(centroids, codebook.centroids)
    assert np.array_equal(radii, codebook.radii)
    assert np.array_equal(
        cluster_cardinalities(fused, centroids, radii), codebook.cardinalities
    )
    groups = {}
    for key, enc in encode_dataset(items, model).items():
        if enc.n_minutiae:
            groups.setdefault(key[0], []).append(enc.distances)
    assert np.array_equal(
        global_mean([groups[s] for s in sorted(groups)]), codebook.global_mean
    )


@pytest.fixture(scope="module")
def capped_run():
    """A fit whose subsample holds well under half of each family's rows."""
    items = synth_dataset(SynthParams(n_subjects=16, n_impressions=4, width=160,
                                      height=160, n_minutiae=24, seed=13))
    config = PipelineConfig(r_m=40.0, r_t=16.0, K=16, n_p=8, N_c=20,
                            pca_subsample=300, seed=7)
    n_rows = sum(len(t.minutiae) for t, _ in items.values())
    assert n_rows > 4 * config.pca_subsample
    return items, config


def test_capped_fit_encodes_like_the_one_pass_oracle(capped_run):
    items, config = capped_run
    got, want = train_model(items, config), train_model_oracle(items, config)
    # the texture rows are extracted exactly, so the texture fit is identical;
    # minutia rows from a reference subset differ in their last bits only
    assert np.array_equal(got.pca_t.basis, want.pca_t.basis)
    assert np.array_equal(got.pca_t.mean, want.pca_t.mean)
    assert np.max(np.abs(got.pca_m.mean - want.pca_m.mean)) <= MBLS_TOL
    assert np.max(np.abs(got.codebook.centroids - want.codebook.centroids)) <= 1e-9
    for key in sorted(items):
        template, image = items[key]
        assert (encode_impression(template, image, got).bits
                == encode_impression(template, image, want).bits), key


def fit_peak_bytes(fit, items, config):
    # the fit imports its eigensolver lazily; module objects are not fit memory
    import scipy.linalg.blas  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    tracemalloc.start()
    try:
        fit(items, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_capped_fit_memory_depends_on_the_subsample(capped_run):
    # bound: both families' subsample matrices, the larger Gram or covariance
    # matrix, and 2 MiB of slack (one impression's rows, k-means buffers, the
    # small projected matrices)
    items, config = capped_run
    geometry = geometry_from_config(config)
    cap, dims = config.pca_subsample, (geometry.n_m, geometry.n_t)
    subsamples = sum(cap * dim for dim in dims) * 8
    gram = max(min(cap, dim) ** 2 for dim in dims) * 8
    bound = subsamples + gram + 2 * 2**20
    peak = fit_peak_bytes(train_model, items, config)
    assert peak <= bound, (peak, bound)
    # the one-pass fit holds both full descriptor matrices and breaks it
    assert fit_peak_bytes(train_model_oracle, items, config) > 2 * bound


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


# ---------------------------------------------------------------------------
# batch pair scoring against the per-pair loops it replaced
# ---------------------------------------------------------------------------

def loop_fvc_bits(encoded, fold_to=None):
    subjects = sorted({k[0] for k in encoded})
    impressions = sorted({k[1] for k in encoded})
    genuine_pairs, impostor_pairs = fvc_pairs(len(subjects), len(impressions))
    strings = {}
    for si, s in enumerate(subjects):
        for ii, i in enumerate(impressions):
            bs = encoded[(s, i)].bits
            strings[(si, ii)] = bs if fold_to is None else fold_compress(bs, fold_to)
    genuine = [intersection_score(strings[a], strings[b]).value for a, b in genuine_pairs]
    impostor = [intersection_score(strings[a], strings[b]).value for a, b in impostor_pairs]
    return compute_eer(genuine, impostor, POLARITY_SIMILARITY)


def loop_split(encoded, model):
    by_subject = {}
    for key in sorted(encoded):
        by_subject.setdefault(key[0], []).append(key)
    size = model.config.enroll_size
    subjects = sorted(by_subject)
    enrolled = {
        s: enroll_subject([encoded[k] for k in by_subject[s][:size]], model)
        for s in subjects
    }
    tests = {s: by_subject[s][size:] for s in subjects}
    mask_both = model.config.mask_both
    g_t, g_p, i_t, i_p = [], [], [], []
    for s in subjects:
        finger, reference = enrolled[s]
        for key in tests[s]:
            query = encoded[key].bits
            g_t.append(masked_score(query, reference, finger, mask_both).value)
            g_p.append(intersection_score(query, reference).value)
        for t in subjects:
            if t != s:
                query = encoded[tests[t][0]].bits
                i_t.append(masked_score(query, reference, finger, mask_both).value)
                i_p.append(intersection_score(query, reference).value)
    return (compute_eer(g_t, i_t, POLARITY_SIMILARITY),
            compute_eer(g_p, i_p, POLARITY_SIMILARITY))


def assert_same_report(got, want):
    for name in ("genuine_scores", "impostor_scores"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.roc == want.roc
    assert got.eer == want.eer
    assert got.polarity == want.polarity


def random_grid(rng, n_subjects, n_impressions, k):
    """Encoded impressions with random strings of mixed density."""
    out = {}
    for s in range(n_subjects):
        base = rng.random(k) < 0.3
        for i in range(n_impressions):
            flip = rng.random(k) < rng.uniform(0.0, 0.4)
            bits = base ^ flip if i else base.copy()
            if (s, i) == (2, 1):
                bits[:] = False  # one empty string
            key = (f"s{s:03d}", f"{i:02d}")
            out[key] = EncodedImpression(
                key[0], key[1], BitString(bits),
                DistanceVector(np.zeros(k), key[0], key[1]), 20,
            )
    return out


@pytest.mark.parametrize("k", [100, 130])
def test_fvc_bits_and_sweep_match_pair_loop_on_random_grid(k):
    encoded = random_grid(np.random.default_rng(k), 15, 5, k)
    assert_same_report(evaluate_fvc_bits(encoded), loop_fvc_bits(encoded))
    lengths = [k, k // 2, k // 4, 7, 1]
    for length in lengths:
        assert_same_report(
            evaluate_fvc_bits(encoded, fold_to=length), loop_fvc_bits(encoded, length)
        )
    assert compression_sweep(encoded, lengths) == [
        (length, loop_fvc_bits(encoded, length).eer) for length in lengths
    ]


@pytest.fixture(scope="module")
def encoded_run(small_run):
    items, model = small_run
    return encode_dataset(items, model), model


def test_fvc_bits_and_sweep_match_pair_loop_on_encodings(encoded_run):
    encoded, model = encoded_run
    k = model.codebook.k
    assert_same_report(evaluate_fvc_bits(encoded), loop_fvc_bits(encoded))
    lengths = [k, k // 2, 5]
    assert compression_sweep(encoded, lengths) == [
        (length, loop_fvc_bits(encoded, length).eer) for length in lengths
    ]


@pytest.mark.parametrize("mask_both", [True, False])
@pytest.mark.parametrize("enroll_size", [1, 2, 3])
def test_split_matches_pair_loop(encoded_run, mask_both, enroll_size):
    encoded, model = encoded_run
    config = dataclasses.replace(model.config, mask_both=mask_both,
                                 enroll_size=enroll_size)
    model = dataclasses.replace(model, config=config)
    got = evaluate_split(encoded, model)
    trained, plain = loop_split(encoded, model)
    assert_same_report(got.trained, trained)
    assert_same_report(got.untrained, plain)
    assert got.n_genuine == trained.genuine_scores.size
    assert got.n_impostor == trained.impostor_scores.size
    assert sorted(got.fingers) == sorted({key[0] for key in encoded})
