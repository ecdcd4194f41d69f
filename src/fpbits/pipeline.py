"""End-to-end orchestration: extraction, training, encoding, evaluation.

The functions here wire the stage modules together over in-memory datasets
(dicts keyed by (subject_id, impression_id)). Training fits the subspace
models and the codebook on every impression it is handed; evaluation
implements the standard competition pairing and the enroll/test split used
for per-finger bit training. Iteration order is always sorted key order, so
identical inputs yield identical artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bit_training import FingerModel, train_finger
from .codebook import (
    BitString,
    Codebook,
    DistanceVector,
    cardinality_weights,
    cluster_cardinalities,
    distance_vector,
    encode_bitstring,
    estimate_radii,
    global_mean,
    kmeans_train,
)
from .config import PipelineConfig
from .errors import EmptyScores, EmptyTrainingSet
from .local_structures import (
    SpreadModel,
    StructureGeometry,
    mbls_matrix,
    normalize_image,
    tbls_matrix,
)
from .matching import (
    MatchScore,
    fold_bits,
    intersection_scores,
    lgs_score,
    masked_scores,
    stack_bits,
)
from .model_store import (
    PipelineModel,
    geometry_from_config,
    spread_from_config,
)
from .protocol import (
    POLARITY_DISSIMILARITY,
    POLARITY_SIMILARITY,
    ProtocolReport,
    compute_eer,
    fvc_pair_rows,
)
from .subspace_fusion import (
    PcaModel,
    fuse_matrix,
    project,
    train_pca_inplace,
)
from .synth import keyed_rng
from .template_io import GrayImage, MinutiaTemplate

DatasetDict = Dict[Tuple[str, str], Tuple[MinutiaTemplate, GrayImage]]

_STREAM_PCA_SUBSAMPLE = 101


def raw_structures(
    template: MinutiaTemplate,
    image: GrayImage,
    geometry: StructureGeometry,
    spread: SpreadModel,
) -> Tuple[np.ndarray, np.ndarray]:
    """Descriptors of both families, pre-projection: ``(n, n_m)`` and ``(n, n_t)``.

    Row ``i`` of each belongs to ``template.minutiae[i]``.
    """
    mbls = mbls_matrix(template.minutiae, geometry, spread)
    tbls = tbls_matrix(template.minutiae, normalize_image(image), geometry, fill=0.0)
    return mbls, tbls


def fused_vectors(
    template: MinutiaTemplate, image: GrayImage, model: PipelineModel
) -> np.ndarray:
    """Project and fuse every minutia: the ``(n_minutiae, 2 * n_p)`` fused matrix."""
    cfg = model.config
    mbls, tbls = raw_structures(template, image, model.geometry, model.spread)
    return fuse_matrix(
        project(model.pca_m, mbls), project(model.pca_t, tbls), cfg.omega_M, cfg.omega_T
    )


def _subsample_rows(n_rows: int, cap: int, seed: int) -> np.ndarray:
    """Sorted indices of the rows a subspace fit sees.

    All ``n_rows`` when ``cap`` is 0 or not below ``n_rows``; otherwise
    ``cap`` of them, drawn without replacement from the seed alone, so the
    indices are known before any row is extracted.
    """
    if cap <= 0 or n_rows <= cap:
        return np.arange(n_rows)
    rng = keyed_rng(seed, _STREAM_PCA_SUBSAMPLE)
    return np.sort(rng.choice(n_rows, size=cap, replace=False))


def _fit_family(
    segments: Sequence[Tuple[int, Callable[[np.ndarray], np.ndarray]]],
    dim: int,
    config: PipelineConfig,
) -> Tuple[PcaModel, np.ndarray]:
    """Fit one descriptor family's subspace and project every one of its rows.

    The family's rows come in ``segments``, one per impression: ``(n,
    rows_at)`` holds ``n`` consecutive rows, and ``rows_at(local)`` returns
    the ``(len(local), dim)`` rows at the local indices ``local``. Each row
    is computed once. Pass 1 computes the subsample's rows straight into the
    fit matrix, which the fit centres in place and which is kept. Pass 2
    gathers each segment's centred rows, its kept subsample rows and its
    other rows minus the mean, and projects them as one product, bitwise
    :func:`project` of the segment's rows: the fit sees the vectors
    ``encode`` computes. Memory is the fit matrix, the fit's Gram or
    covariance matrix and one segment.
    """
    sizes = [n for n, _ in segments]
    starts = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    n_rows = int(starts[-1])
    sub = _subsample_rows(n_rows, config.pca_subsample, config.seed)
    # segment i's subsample rows are x[pos[i]:pos[i + 1]]
    pos = np.searchsorted(sub, starts)

    x = np.empty((sub.size, dim), dtype=np.float64)
    for (_, rows_at), lo, a, b in zip(segments, starts, pos[:-1], pos[1:]):
        if b > a:
            x[a:b] = rows_at(sub[a:b] - lo)
    pca = train_pca_inplace(x, config.n_p)

    in_sub = np.zeros(n_rows, dtype=bool)
    in_sub[sub] = True
    buf = np.empty((max(sizes, default=0), dim), dtype=np.float64)
    out = np.empty((n_rows, config.n_p), dtype=np.float64)
    for (n, rows_at), lo, a, b in zip(segments, starts, pos[:-1], pos[1:]):
        if b - a == n:
            rows = x[a:b]
        else:
            mine = in_sub[lo : lo + n]
            fresh = rows_at(np.flatnonzero(~mine))
            fresh -= pca.mean
            rows = buf[:n]
            rows[mine] = x[a:b]
            rows[~mine] = fresh
        np.matmul(rows, pca.basis, out=out[lo : lo + n])
    return pca, out


def train_model(
    items: DatasetDict, config: PipelineConfig, verbose: bool = False
) -> PipelineModel:
    """Fit subspaces and codebook on every impression in ``items``.

    Stages: fit one subspace model per descriptor family on an optionally
    capped row subsample and project every row (see :func:`_fit_family`;
    each descriptor row is extracted once, and memory depends on the cap,
    not on the number of rows), fuse, cluster the pooled fused vectors,
    place boundary radii, count cardinalities under adjusted assignment,
    and finally average each finger's distance vectors into the population
    mean.
    """
    if not items:
        raise EmptyTrainingSet("training dataset is empty")
    geometry = geometry_from_config(config)
    spread = spread_from_config(config)
    keys = sorted(items.keys())
    counts = [len(items[key][0].minutiae) for key in keys]

    # one impression's rows of either family at the given minutia indices
    def minutia_rows(template, _):
        return lambda local: mbls_matrix(template.minutiae, geometry, spread, refs=local)

    def texture_rows(template, image):
        return lambda local: tbls_matrix(
            [template.minutiae[i] for i in local], normalize_image(image), geometry, fill=0.0
        )

    if verbose:
        print(
            f"fitting subspaces (n_p={config.n_p}) on {len(keys)} impressions, "
            f"{sum(counts)} minutiae (n_m={geometry.n_m}, n_t={geometry.n_t})"
        )
    # one family at a time, texture first: the largest fit then runs without
    # the minutia fit matrix alive, and before the minutia fit has left its
    # freed matrices resident in the heap, which lowers the peak RSS
    pca_t, proj_t = _fit_family(
        [(n, texture_rows(*items[key])) for key, n in zip(keys, counts)],
        geometry.n_t,
        config,
    )
    pca_m, proj_m = _fit_family(
        [(n, minutia_rows(*items[key])) for key, n in zip(keys, counts)],
        geometry.n_m,
        config,
    )
    fused = fuse_matrix(proj_m, proj_t, config.omega_M, config.omega_T)

    if verbose:
        print(f"clustering {fused.shape[0]} fused vectors into K={config.K}")
    centroids = kmeans_train(
        fused, config.K, max_iters=config.kmeans_max_iters, seed=config.seed
    )
    radii = estimate_radii(fused, centroids, config.N_c)
    cardinalities = cluster_cardinalities(fused, centroids, radii)
    codebook = Codebook(
        centroids=centroids,
        radii=radii,
        cardinalities=cardinalities,
        weights=cardinality_weights(cardinalities),
    )

    if verbose:
        print("averaging per-finger distance vectors into the population mean")
    model = PipelineModel(config=config, pca_m=pca_m, pca_t=pca_t, codebook=codebook)
    # fused vectors, grouped per impression in key order
    groups: Dict[str, List[DistanceVector]] = {}
    offset = 0
    for key, n in zip(keys, counts):
        vals = fused[offset : offset + n]
        offset += n
        if n == 0:
            continue
        groups.setdefault(key[0], []).append(
            distance_vector(vals, codebook, subject_id=key[0], impression_id=key[1])
        )
    codebook.global_mean = global_mean(
        [groups[s] for s in sorted(groups.keys())]
    )
    return model


@dataclass
class EncodedImpression:
    """Everything downstream stages need from one impression."""

    subject_id: str
    impression_id: str
    bits: BitString
    distances: DistanceVector
    n_minutiae: int


def encode_impression(
    template: MinutiaTemplate, image: GrayImage, model: PipelineModel
) -> EncodedImpression:
    """Template + image -> bit-string, distance vector, minutia count."""
    cfg = model.config
    vectors = fused_vectors(template, image, model)
    bits = encode_bitstring(vectors, model.codebook, cfg.tau_s, cfg.top_t, cfg.gate_all)
    distances = distance_vector(
        vectors,
        model.codebook,
        subject_id=template.subject_id,
        impression_id=template.impression_id,
    )
    return EncodedImpression(
        subject_id=template.subject_id,
        impression_id=template.impression_id,
        bits=bits,
        distances=distances,
        n_minutiae=len(template.minutiae),
    )


def encode_dataset(
    items: DatasetDict, model: PipelineModel
) -> Dict[Tuple[str, str], EncodedImpression]:
    out = {}
    for key in sorted(items.keys()):
        template, image = items[key]
        out[key] = encode_impression(template, image, model)
    return out


# ---------------------------------------------------------------------------
# enrollment and evaluation
# ---------------------------------------------------------------------------

def _split_keys(
    encoded: Dict[Tuple[str, str], EncodedImpression], enroll_size: int
) -> Dict[str, Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]]:
    """Per subject: (enrollment keys, test keys), impression order sorted."""
    by_subject: Dict[str, List[Tuple[str, str]]] = {}
    for key in sorted(encoded.keys()):
        by_subject.setdefault(key[0], []).append(key)
    return {
        s: (keys[:enroll_size], keys[enroll_size:]) for s, keys in by_subject.items()
    }


def enroll_subject(
    samples: Sequence[EncodedImpression],
    model: PipelineModel,
) -> Tuple[FingerModel, BitString]:
    """Train one finger from its enrollment impressions.

    The enrolled reference string is the OR of the enrollment strings: a
    position any sample voted for stays available, and the trained mask is
    what narrows the comparison down to dependable positions.
    """
    if model.codebook.global_mean is None:
        raise EmptyTrainingSet("model has no population mean; retrain the codebook")
    finger = train_finger(
        finger_id=samples[0].subject_id,
        distance_vectors=[e.distances for e in samples],
        bitstrings=[e.bits for e in samples],
        minutia_counts=[e.n_minutiae for e in samples],
        population_mean=model.codebook.global_mean,
        cluster_weights=model.codebook.weights,
        alpha=model.config.alpha,
        beta=model.config.beta,
    )
    merged = np.zeros(model.codebook.k, dtype=bool)
    for e in samples:
        merged |= e.bits.bits
    return finger, BitString(merged)


def evaluate_fvc_bits(
    encoded: Dict[Tuple[str, str], EncodedImpression],
    fold_to: Optional[int] = None,
) -> ProtocolReport:
    """Competition pairing over per-impression bit-strings (similarity)."""
    return _fvc_bit_reports(encoded, [fold_to])[0]


def _fvc_bit_reports(
    encoded: Dict[Tuple[str, str], EncodedImpression],
    lengths: Sequence[Optional[int]],
) -> List[ProtocolReport]:
    """One competition-pairing report per fold length (``None``: unfolded).

    The grid's strings form one subject-major bit matrix; every length
    scores all genuine and impostor attempts in one batch call.
    """
    keys, n_subjects, n_impressions = _grid_keys(encoded)
    genuine, impostor = fvc_pair_rows(n_subjects, n_impressions)
    grid, _ = stack_bits([encoded[key].bits for key in keys])
    pairs = np.concatenate([genuine, impostor])
    n_g = genuine.shape[0]
    reports = []
    for length in lengths:
        bits = grid if length is None else fold_bits(grid, length)
        values, _ = intersection_scores(bits[pairs[:, 0]], bits[pairs[:, 1]])
        reports.append(compute_eer(values[:n_g], values[n_g:], POLARITY_SIMILARITY))
    return reports


def lgs_match(
    vectors_a: np.ndarray, vectors_b: np.ndarray, config: PipelineConfig
) -> MatchScore:
    """:func:`~fpbits.matching.lgs_score` with the config's pair-budget parameters."""
    return lgs_score(
        vectors_a,
        vectors_b,
        min_pairs=config.min_nL,
        max_pairs=config.max_nL,
        midpoint=config.mu_P,
        steepness=config.tau_P,
    )


def evaluate_fvc_lgs(
    items: DatasetDict, model: PipelineModel
) -> ProtocolReport:
    """Competition pairing over fused vectors (dissimilarity)."""
    vectors = {
        key: fused_vectors(items[key][0], items[key][1], model)
        for key in sorted(items.keys())
    }
    keys, n_subjects, n_impressions = _grid_keys(vectors)
    genuine_rows, impostor_rows = fvc_pair_rows(n_subjects, n_impressions)

    def score(a, b) -> float:
        return lgs_match(vectors[keys[a]], vectors[keys[b]], model.config).value

    genuine = [score(a, b) for a, b in genuine_rows.tolist()]
    impostor = [score(a, b) for a, b in impostor_rows.tolist()]
    return compute_eer(genuine, impostor, POLARITY_DISSIMILARITY)


@dataclass
class SplitEvaluation:
    """Enroll/test evaluation with and without per-finger bit training."""

    trained: ProtocolReport
    untrained: ProtocolReport
    n_genuine: int
    n_impostor: int
    fingers: Dict[str, FingerModel]


def evaluate_split(
    encoded: Dict[Tuple[str, str], EncodedImpression],
    model: PipelineModel,
) -> SplitEvaluation:
    """Enroll on the first impressions, verify against the rest.

    Genuine attempts compare each subject's enrolled string against that
    subject's held-out impressions; impostor attempts compare it against
    every other subject's first held-out impression. Both the mask-trained
    (masked intersection) and untrained (plain intersection) scores are
    computed on exactly the same attempt list.
    """
    split = _split_keys(encoded, model.config.enroll_size)
    if not split:
        raise EmptyScores("no subjects to enroll and verify")
    fingers: Dict[str, FingerModel] = {}
    enrolled: Dict[str, BitString] = {}
    tests: Dict[str, List[Tuple[str, str]]] = {}
    for s, (enroll_keys, test_keys) in split.items():
        if not enroll_keys or not test_keys:
            raise EmptyTrainingSet(
                f"subject {s!r} lacks impressions for an enroll/test split"
            )
        finger, reference = enroll_subject([encoded[k] for k in enroll_keys], model)
        fingers[s] = finger
        enrolled[s] = reference
        tests[s] = test_keys

    subjects = sorted(split.keys())
    n_s = len(subjects)
    references, reference_length = stack_bits([enrolled[s] for s in subjects])
    masks = np.array([fingers[s].mask for s in subjects])
    test_keys = [key for s in subjects for key in tests[s]]
    queries, query_length = stack_bits([encoded[key].bits for key in test_keys])
    counts = [len(tests[s]) for s in subjects]
    # genuine: every held-out impression against its own subject's reference
    g_query = np.arange(len(test_keys))
    g_ref = np.repeat(np.arange(n_s), counts)
    # impostor: reference s against every other subject t's first held-out
    # impression, s-major as the attempts are listed
    i_ref, other = np.nonzero(~np.eye(n_s, dtype=bool))
    i_query = np.cumsum([0] + counts[:-1], dtype=np.int64)[other]
    query = queries[np.concatenate([g_query, i_query])]
    ref = np.concatenate([g_ref, i_ref])
    plain, _ = intersection_scores(
        query, references[ref], query_length, reference_length
    )
    trained, _ = masked_scores(
        query, references[ref], masks[ref], model.config.mask_both
    )

    n_g = g_query.size
    return SplitEvaluation(
        trained=compute_eer(trained[:n_g], trained[n_g:], POLARITY_SIMILARITY),
        untrained=compute_eer(plain[:n_g], plain[n_g:], POLARITY_SIMILARITY),
        n_genuine=n_g,
        n_impostor=i_ref.size,
        fingers=fingers,
    )


def compression_sweep(
    encoded: Dict[Tuple[str, str], EncodedImpression],
    lengths: Sequence[int],
) -> List[Tuple[int, float]]:
    """Bit-string matcher EER at each folded length (competition pairing)."""
    reports = _fvc_bit_reports(encoded, lengths)
    return [(length, report.eer) for length, report in zip(lengths, reports)]


def _grid_keys(mapping: Dict[Tuple[str, str], object]):
    """Dataset keys in subject-major grid order, validating a full grid.

    Returns ``(keys, n_subjects, n_impressions)``; impression ``ii`` of
    subject ``si`` is ``keys[si * n_impressions + ii]``, the row numbering
    of :func:`~fpbits.protocol.fvc_pair_rows`.
    """
    subjects = sorted({k[0] for k in mapping})
    impressions = sorted({k[1] for k in mapping})
    keys: List[Tuple[str, str]] = []
    for s in subjects:
        for i in impressions:
            if (s, i) not in mapping:
                raise EmptyTrainingSet(
                    f"dataset is not a full grid: missing impression {i!r} of {s!r}"
                )
            keys.append((s, i))
    return keys, len(subjects), len(impressions)
