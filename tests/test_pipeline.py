"""The matrix paths against the per-minutia and per-pair oracles in ``tests/oracles.py``."""

import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import fpbits.pipeline as pipeline

from fpbits.bit_training import _train_mask
from fpbits.codebook import (
    BitString,
    DistanceVector,
    centroid_distances,
    distance_vector,
    encode_bitstring,
    kmeans_train,
)

from fpbits.config import PipelineConfig
from fpbits.errors import EmptyImage, EmptyScores, EmptyTrainingSet, ModelMissing, check_arrays
from fpbits.local_structures import (
    StructureGeometry,
    mbls_matrix,
    normalize_image,
    tbls_matrix,
)
from fpbits.model_store import load_model, save_model
from fpbits.matching import fold_compress, lgs_score
from fpbits.pipeline import (
    EncodedImpression,
    _subsample_rows,
    compression_sweep,
    encode_dataset,
    encode_impression,
    enroll_subject,
    evaluate_fvc_bits,
    evaluate_fvc_lgs,
    evaluate_split,
    fused_vectors,
    lgs_scores,
    split_keys,
    train_model,
)
from fpbits.protocol import compute_eer
from fpbits.subspace_fusion import fuse_matrix, project
from fpbits.synth import SynthParams, synth_dataset
from fpbits.template_io import (
    MINUTIA_DTYPE,
    MinutiaTemplate,
    parse_text_template,
    serialize_text_template,
)
from oracles import (
    build_mbls,
    cluster_cardinalities,
    distance_vector as distance_vector_oracle,
    encode_bitstring as encode_bitstring_oracle,
    enrolled_reference,
    estimate_radii,
    evaluate_fvc_lgs_oracle,
    extract_tbls,
    fuse,
    fvc_bit_reports_oracle,
    fvc_pairs,
    global_mean,
    interclass_variance,
    intersection_score,
    kmeans_train_oracle,
    masked_score,
    minutia_objects,
    project_vector,
    reliability,
    subsample_oracle,
    train_model_oracle,
)

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
    n_rows = sum(len(t) for t, _ in items.values())
    assert n_rows >= max(model.geometry.n_m, model.geometry.n_t)
    return items, model


@pytest.fixture(scope="module")
def gram_run(small_run):
    """``small_run``'s impressions with a texture disc whose fit takes the Gram branch."""
    items, model = small_run
    config = dataclasses.replace(model.config, r_t=16.0)
    model = train_model(items, config)
    n_rows = sum(len(t) for t, _ in items.values())
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


def test_extractors_match_oracles(small_run):
    items, model = small_run
    template, image = items[sorted(items)[0]]
    mbls = mbls_matrix(template.minutiae, model.geometry)
    tbls = tbls_matrix(template.minutiae, image, model.geometry)
    norm = normalize_image(image)
    ms = minutia_objects(template.minutiae)
    want_m = np.array([build_mbls(m, ms, model.geometry) for m in ms])
    want_t = np.array([extract_tbls(m, norm, model.geometry, fill=0.0) for m in ms])
    assert np.max(np.abs(mbls - want_m)) <= MBLS_TOL
    assert np.array_equal(tbls, want_t)


def test_fused_matrix_matches_per_row_project_and_fuse(small_run):
    items, model = small_run
    cfg = model.config
    for key in sorted(items)[:4]:
        template, image = items[key]
        want = np.array([
            fuse(project_vector(model.pca_m, m), project_vector(model.pca_t, t),
                 cfg.omega_M, cfg.omega_T)
            for m, t in zip(mbls_matrix(template.minutiae, model.geometry),
                            tbls_matrix(template.minutiae, image, model.geometry))
        ])
        got = fused_vectors(template, image, model)
        assert got.shape == (len(template), 2 * cfg.n_p)
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
        ms = minutia_objects(template.minutiae)
        vectors = np.array([
            fuse(
                project_vector(model.pca_m, build_mbls(m, ms, geom)),
                project_vector(model.pca_t, extract_tbls(m, norm, geom, fill=0.0)),
                cfg.omega_M,
                cfg.omega_T,
            )
            for m in ms
        ])
        want = encode_bitstring_oracle(vectors, model.codebook, cfg.tau_s, cfg.top_t,
                                       cfg.gate_all)
        assert encode_impression(template, image, model).bits == want, key


def test_encode_impression_is_reentrant(small_run):
    # two threads encode different impressions at once, each a few times over
    # so their calls overlap; every result equals the serial call's
    items, model = small_run
    keys = sorted(items)
    serial = {key: encode_impression(*items[key], model) for key in keys}
    halves = [keys[0::2], keys[1::2]]
    results = [[], []]
    start = threading.Barrier(2)

    def work(side):
        start.wait()
        for _ in range(3):
            results[side] += [(key, encode_impression(*items[key], model))
                              for key in halves[side]]

    threads = [threading.Thread(target=work, args=(side,)) for side in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [len(r) for r in results] == [3 * len(h) for h in halves]
    for key, got in results[0] + results[1]:
        want = serial[key]
        assert got.bits == want.bits, key
        assert got.distances.values.tobytes() == want.distances.values.tobytes(), key
        assert got.n_minutiae == want.n_minutiae, key


def test_the_request_path_checks_only_its_inputs(small_run, monkeypatch):
    # encoding checks the template's minutiae in each extractor and the two records it
    # returns; every matrix between them is built from those checked records
    items, model = small_run
    template, image = items[sorted(items)[0]]
    checked = []

    def spy(record, error, **fields):
        owner = (sys._getframe(1).f_code.co_name if isinstance(record, dict)
                 else type(record).__name__)
        checked.append((owner, *(name for name in fields if name != "freeze")))
        return check_arrays(record, error, **fields)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fpbits" and hasattr(module, "check_arrays"):
            monkeypatch.setattr(module, "check_arrays", spy)
    encode_impression(template, image, model)
    assert checked == [("mbls_matrix", "minutiae"), ("tbls_matrix", "minutiae"),
                       ("BitString", "bits"), ("DistanceVector", "values")]


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
        groups.setdefault(key[0], []).append(enc.distances)
    assert np.array_equal(
        global_mean([groups[s] for s in sorted(groups)]), model.population_mean
    )


@pytest.mark.parametrize("run", ["small_run", "gram_run"])
def test_matrix_stages_match_vector_oracles_on_fused_matrices(run, request):
    # each impression's one distance matrix feeds both encode stages; the
    # oracles compute their own from the fused matrix
    items, model = request.getfixturevalue(run)
    cfg, codebook = model.config, model.codebook
    for key in sorted(items):
        rows = fused_vectors(*items[key], model)
        d = centroid_distances(rows, codebook.centroids)
        assert np.array_equal(distance_vector(d).values,
                              distance_vector_oracle(rows, codebook).values), key
        for top_t in (1, cfg.top_t, 7):
            for gate_all in (True, False):
                got = encode_bitstring(d, codebook.radii, cfg.tau_s, top_t, gate_all)
                assert got == encode_bitstring_oracle(rows, codebook, cfg.tau_s, top_t,
                                                      gate_all), (key, top_t, gate_all)


@pytest.mark.parametrize("run", ["small_run", "gram_run"])
def test_population_mean_reads_per_impression_distance_matrices(run, request):
    # the fit takes each impression's distance row from the pool's matrix;
    # it must equal the row of the impression's own matrix
    items, model = request.getfixturevalue(run)
    groups = {}
    for key in sorted(items):
        d = centroid_distances(fused_vectors(*items[key], model), model.codebook.centroids)
        groups.setdefault(key[0], []).append(distance_vector(d))
    assert np.array_equal(
        global_mean([groups[s] for s in sorted(groups)]), model.population_mean
    )


@pytest.fixture(scope="module")
def capped_run():
    """A fit whose subsample holds well under half of each family's rows."""
    items = synth_dataset(SynthParams(n_subjects=16, n_impressions=4, width=160,
                                      height=160, n_minutiae=24, seed=13))
    config = PipelineConfig(r_m=40.0, r_t=16.0, K=16, n_p=8, N_c=20,
                            pca_subsample=300, seed=7)
    n_rows = sum(len(t) for t, _ in items.values())
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


def fit_projections(items, config, monkeypatch):
    """A fit's model and the projected rows of both families it fused."""
    seen = []

    def spy(proj_m, proj_t, weight_m, weight_t):
        seen.append((proj_m.copy(), proj_t.copy()))
        return fuse_matrix(proj_m, proj_t, weight_m, weight_t)

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "fuse_matrix", spy)
        model = train_model(items, config)
    [(proj_m, proj_t)] = seen
    return model, proj_m, proj_t


def encode_projections(items, model):
    """``encode``'s projected rows of both families, in fit order."""
    rows_m, rows_t = [], []
    for key in sorted(items):
        template, image = items[key]
        rows_m.append(project(model.pca_m, mbls_matrix(template.minutiae, model.geometry)))
        rows_t.append(project(model.pca_t, tbls_matrix(template.minutiae, image,
                                                       model.geometry)))
    return np.concatenate(rows_m), np.concatenate(rows_t)


def test_uncapped_fit_projects_encodes_rows_bit_for_bit(small_run, monkeypatch):
    items, model = small_run
    model, proj_m, proj_t = fit_projections(items, model.config, monkeypatch)
    want_m, want_t = encode_projections(items, model)
    assert np.array_equal(proj_t.view(np.uint64), want_t.view(np.uint64))
    assert np.array_equal(proj_m.view(np.uint64), want_m.view(np.uint64))


def test_capped_fit_projects_texture_rows_bit_for_bit(capped_run, monkeypatch):
    items, config = capped_run
    model, proj_m, proj_t = fit_projections(items, config, monkeypatch)
    want_m, want_t = encode_projections(items, model)
    assert np.array_equal(proj_t.view(np.uint64), want_t.view(np.uint64))
    # minutia rows of a reference subset may differ in their last bits
    assert np.max(np.abs(proj_m - want_m)) <= MBLS_TOL


@pytest.mark.parametrize("run", ["small_run", "capped_run"])
def test_the_fit_asks_for_every_row_once_per_family(run, request, monkeypatch):
    items, config = request.getfixturevalue(run)
    config = getattr(config, "config", config)  # small_run holds a fitted model
    by_minutiae = {id(t.minutiae): key for key, (t, _) in items.items()}
    by_image = {id(image): key for key, (_, image) in items.items()}
    refs_asked = {key: [] for key in items}
    texture_rows = dict.fromkeys(items, 0)
    mbls, tbls = pipeline.mbls_matrix, pipeline.tbls_matrix

    def count_mbls(minutiae, geometry, refs=None):
        local = range(len(minutiae)) if refs is None else np.asarray(refs).tolist()
        refs_asked[by_minutiae[id(minutiae)]].extend(local)
        return mbls(minutiae, geometry, refs=refs)

    def count_tbls(minutiae, image, geometry):
        texture_rows[by_image[id(image)]] += len(minutiae)
        return tbls(minutiae, image, geometry)

    monkeypatch.setattr(pipeline, "mbls_matrix", count_mbls)
    monkeypatch.setattr(pipeline, "tbls_matrix", count_tbls)
    train_model(items, config)
    for key, (template, _) in items.items():
        assert sorted(refs_asked[key]) == list(range(len(template))), key
        assert texture_rows[key] == len(template), key


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
    geometry = StructureGeometry.from_config(config)
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
    empty = MinutiaTemplate(template.minutiae[:0], template.width, template.height,
                            template.subject_id, template.impression_id)
    name = f"{template.subject_id}/{template.impression_id}"
    with pytest.raises(EmptyImage, match=f"^impression {name} has no minutiae$"):
        fused_vectors(empty, image, model)
    single = MinutiaTemplate(template.minutiae[:1], template.width, template.height,
                             template.subject_id, template.impression_id)
    enc = encode_impression(single, image, model)
    assert enc.n_minutiae == 1 and len(enc.distances) == model.codebook.k


def test_fit_refuses_an_empty_dataset(small_run):
    with pytest.raises(EmptyTrainingSet, match="^training dataset is empty$"):
        train_model({}, small_run[1].config)


@pytest.mark.parametrize("keep", [0, 1, 3, None])
def test_sliced_template_encodes_like_its_text(small_run, keep):
    # the benchmark's sparse captures keep the first minutiae of a template
    # as MinutiaTemplate(t.minutiae[:keep], ...); the same minutiae read
    # back from template text hold the same bits and encode to the same bits
    items, model = small_run
    key = sorted(items)[1]
    template, image = items[key]
    sliced = MinutiaTemplate(template.minutiae[:keep], template.width, template.height,
                             *key)
    parsed = parse_text_template(serialize_text_template(sliced), *key)
    assert len(sliced) == len(template.minutiae[:keep]) == len(parsed)
    assert sliced.minutiae.dtype == parsed.minutiae.dtype == MINUTIA_DTYPE
    for name in ("x", "y", "theta"):
        assert np.array_equal(sliced.minutiae[name].view(np.uint64),
                              parsed.minutiae[name].view(np.uint64))
    if keep == 0:
        for t in (sliced, parsed):
            with pytest.raises(EmptyImage):
                encode_impression(t, image, model)
        return
    got, want = (encode_impression(t, image, model) for t in (sliced, parsed))
    assert got.bits == want.bits
    assert np.array_equal(got.distances.values, want.distances.values)
    if keep is None:
        assert got.bits == encode_impression(template, image, model).bits


def test_empty_impression_is_named_before_extraction(small_run, monkeypatch):
    items, model = small_run
    template, image = items[sorted(items)[0]]
    empty = MinutiaTemplate(template.minutiae[:0], template.width, template.height,
                            template.subject_id, template.impression_id)

    def extract(*args, **kwargs):
        raise AssertionError("an empty impression reached extraction")

    # encode, lgs and train all extract through the two matrix builders
    for extractor in ("mbls_matrix", "tbls_matrix"):
        monkeypatch.setattr(pipeline, extractor, extract)
    with_empty = {**items, sorted(items)[0]: (empty, image)}
    name = f"{template.subject_id}/{template.impression_id}"
    for call in (lambda: encode_impression(empty, image, model),
                 lambda: fused_vectors(empty, image, model),
                 lambda: train_model(with_empty, model.config)):
        with pytest.raises(EmptyImage, match=f"^impression {name} has no minutiae$"):
            call()


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
    return compute_eer(genuine, impostor)


def loop_split(encoded, model):
    by_subject = {}
    for key in sorted(encoded):
        by_subject.setdefault(key[0], []).append(key)
    size = model.config.enroll_size
    subjects = sorted(by_subject)
    fingers = {
        s: enroll_subject(s, [encoded[k] for k in by_subject[s][:size]], model)
        for s in subjects
    }
    tests = {s: by_subject[s][size:] for s in subjects}
    mask_both = model.config.mask_both
    g_t, g_p, i_t, i_p = [], [], [], []
    for s in subjects:
        finger = fingers[s]
        reference = BitString(finger.reference)
        for key in tests[s]:
            query = encoded[key].bits
            g_t.append(masked_score(query, finger, mask_both).value)
            g_p.append(intersection_score(query, reference).value)
        for t in subjects:
            if t != s:
                query = encoded[tests[t][0]].bits
                i_t.append(masked_score(query, finger, mask_both).value)
                i_p.append(intersection_score(query, reference).value)
    return compute_eer(g_t, i_t), compute_eer(g_p, i_p)


def assert_same_report(got, want):
    for name in ("genuine_scores", "impostor_scores"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.roc == want.roc
    assert got.eer == want.eer


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
            out[key] = EncodedImpression(BitString(bits), DistanceVector(np.zeros(k)), 20)
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
    assert_same_as_former_sweep(encoded, lengths)


def assert_same_as_former_sweep(encoded, lengths):
    """Each length's report, and the sweep's EERs, equal the former per-length loop's."""
    reports = fvc_bit_reports_oracle(encoded, [None] + lengths)
    assert_same_report(evaluate_fvc_bits(encoded), reports[0])
    for length, report in zip(lengths, reports[1:]):
        assert_same_report(evaluate_fvc_bits(encoded, length), report)
    assert compression_sweep(encoded, lengths) == [
        (length, report.eer) for length, report in zip(lengths, reports[1:])
    ]


def test_sweep_checks_the_grid_only_when_it_has_a_length():
    bits = BitString(np.ones(8, dtype=bool))
    encoded = {key: EncodedImpression(bits, DistanceVector(np.zeros(8)), 3)
               for key in [("s1", "1"), ("s1", "2"), ("s2", "1")]}
    with pytest.raises(EmptyTrainingSet, match="missing impression '2' of 's2'"):
        compression_sweep(encoded, [4])
    assert compression_sweep(encoded, []) == []


@pytest.fixture(scope="module")
def encoded_run(small_run):
    items, model = small_run
    return encode_dataset(items, model), model


def test_fvc_bits_and_sweep_match_pair_loop_on_encodings(encoded_run):
    encoded, model = encoded_run
    k = model.codebook.k
    assert_same_report(evaluate_fvc_bits(encoded), loop_fvc_bits(encoded))
    lengths = [k, k // 2, 5]
    for length in lengths:
        assert_same_report(
            evaluate_fvc_bits(encoded, fold_to=length), loop_fvc_bits(encoded, length)
        )
    assert compression_sweep(encoded, lengths) == [
        (length, loop_fvc_bits(encoded, length).eer) for length in lengths
    ]
    assert_same_as_former_sweep(encoded, lengths)


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


def test_split_refuses_no_subjects_and_a_subject_with_nothing_held_out(encoded_run):
    encoded, model = encoded_run
    with pytest.raises(EmptyScores, match="^no subjects to enroll and verify$"):
        evaluate_split({}, model)
    # the second subject keeps only the impressions that enroll it
    subject = sorted({key[0] for key in encoded})[1]
    held_out = split_keys(encoded, model.config.enroll_size)[subject][1]
    short = {key: e for key, e in encoded.items() if key not in held_out}
    with pytest.raises(EmptyTrainingSet, match=f"^subject {subject!r} lacks impressions for an "
                                               "enroll/test split$"):
        evaluate_split(short, model)


# ---------------------------------------------------------------------------
# lgs: one pair scorer for match and evaluate
# ---------------------------------------------------------------------------

def test_fvc_lgs_matches_dict_oracle(small_run):
    items, model = small_run
    got = evaluate_fvc_lgs(items, model)
    want = evaluate_fvc_lgs_oracle(items, model)
    assert np.array_equal(got.genuine_scores, want.genuine_scores)
    assert np.array_equal(got.impostor_scores, want.impostor_scores)
    assert_same_report(got, want)
    assert (got.genuine_scores.size, got.impostor_scores.size) == (60, 45)


def count_extractions(monkeypatch):
    """Keys whose fused matrix ``pipeline`` computes, one entry per computation."""
    seen = []

    def counted(template, image, model):
        seen.append((template.subject_id, template.impression_id))
        return fused_vectors(template, image, model)

    monkeypatch.setattr(pipeline, "fused_vectors", counted)
    return seen


def test_lgs_scores_match_per_pair_lgs_score(small_run, monkeypatch):
    items, model = small_run
    cfg = model.config
    keys = sorted(items)
    pairs = [(keys[0], keys[1]), (keys[5], keys[0]), (keys[1], keys[1]),
             (keys[0], keys[1]), (keys[9], keys[5]), (keys[9], keys[9])]
    seen = count_extractions(monkeypatch)
    got = lgs_scores(items, model, pairs)
    assert seen == [keys[0], keys[1], keys[5], keys[9]]  # each once, when first named
    for (a, b), score in zip(pairs, got, strict=True):
        want = lgs_score(fused_vectors(*items[a], model), fused_vectors(*items[b], model),
                         min_pairs=cfg.min_nL, max_pairs=cfg.max_nL,
                         midpoint=cfg.mu_P, steepness=cfg.tau_P)
        assert score == want
    assert lgs_scores(items, model, []) == []


def test_lgs_scores_name_a_missing_key(small_run):
    items, model = small_run
    present = sorted(items)[0]
    with pytest.raises(ModelMissing, match="^impression s999/01 not in dataset$"):
        lgs_scores(items, model, [(present, present), (present, ("s999", "01"))])


def test_fvc_lgs_checks_the_grid_before_extraction(small_run, monkeypatch):
    items, model = small_run
    seen = count_extractions(monkeypatch)
    partial = {key: item for key, item in items.items() if key != sorted(items)[-1]}
    with pytest.raises(EmptyTrainingSet, match="not a full grid"):
        evaluate_fvc_lgs(partial, model)
    assert seen == []


def test_fvc_lgs_on_one_impression_pairs_nothing(small_run, monkeypatch):
    items, model = small_run
    template, image = items[sorted(items)[0]]
    empty = MinutiaTemplate(template.minutiae[:0], template.width, template.height,
                            template.subject_id, template.impression_id)
    seen = count_extractions(monkeypatch)
    for one in (template, empty):
        with pytest.raises(EmptyScores):
            evaluate_fvc_lgs({sorted(items)[0]: (one, image)}, model)
    assert seen == []


def assert_enrolls_like_the_oracles(samples, model):
    """``enroll_subject`` against the per-object variance, reliability and OR."""
    finger = enroll_subject("f", samples, model)
    cfg = model.config
    variance = interclass_variance([e.distances for e in samples], model.population_mean)
    power = model.codebook.weights * variance
    rel = reliability([e.bits for e in samples])
    n_mean = float(np.mean([e.n_minutiae for e in samples]))
    assert finger.finger_id == "f"
    assert np.array_equal(finger.power, power)
    assert np.array_equal(finger.reliability, rel)
    assert np.array_equal(finger.mask, _train_mask(power, rel, n_mean, cfg.alpha, cfg.beta))
    want = enrolled_reference([e.bits for e in samples], model.codebook.k)
    assert BitString(finger.reference) == want


def test_enroll_subject_matches_oracles_on_encodings(encoded_run):
    encoded, model = encoded_run
    keys = sorted(encoded)
    for size in (1, 2, 4):
        for s in sorted({key[0] for key in keys}):
            mine = [key for key in keys if key[0] == s][:size]
            assert_enrolls_like_the_oracles([encoded[k] for k in mine], model)


@pytest.mark.parametrize("n", [1, 3, 8, 9, 17])
def test_enroll_subject_matches_oracles_on_random_rows(encoded_run, n):
    _, model = encoded_run
    k = model.codebook.k
    rng = np.random.default_rng(n)
    for _ in range(20):
        distances = model.population_mean + rng.normal(0.0, 0.5, (n, k))
        bits = rng.random((n, k)) < rng.uniform(0.05, 0.6)
        counts = rng.integers(3, 40, n)
        samples = [
            EncodedImpression(BitString(b), DistanceVector(d), int(c))
            for b, d, c in zip(bits, distances, counts)
        ]
        assert_enrolls_like_the_oracles(samples, model)
