"""End-to-end orchestration: extraction, training, encoding, evaluation.

The functions here wire the stage modules together over in-memory datasets
(dicts keyed by (subject_id, impression_id)). Training fits the subspace
models and the codebook on every impression it is handed; evaluation
implements the standard competition pairing and the enroll/test split used
for per-finger bit training. Iteration order is always sorted key order, so
identical inputs yield identical artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bit_training import FingerModel, train_finger
from .codebook import (
    BitString,
    Codebook,
    DistanceVector,
    GATE_BEST_ONLY,
    GATE_PER_CANDIDATE,
    cardinality_weights,
    cluster_cardinalities,
    distance_vector,
    encode_bitstring,
    estimate_radii,
    global_mean,
    kmeans_train,
)
from .config import PipelineConfig
from .errors import EmptyTrainingSet
from .local_structures import (
    SpreadModel,
    StructureGeometry,
    build_mbls,
    mbls_matrix,
    normalize_image,
    tbls_matrix,
)
from .matching import (
    MatchScore,
    fold_compress,
    intersection_score,
    lgs_score,
    masked_score,
)
from .model_store import PipelineModel
from .protocol import (
    POLARITY_DISSIMILARITY,
    POLARITY_SIMILARITY,
    ProtocolReport,
    compute_eer,
    fvc_pairs,
)
from .subspace_fusion import fuse_matrix, project, train_pca
from .synth import keyed_rng
from .template_io import GrayImage, Minutia, MinutiaTemplate

DatasetDict = Dict[Tuple[str, str], Tuple[MinutiaTemplate, GrayImage]]

_STREAM_PCA_SUBSAMPLE = 101
_STREAM_AUGMENT = 102


def geometry_from_config(config: PipelineConfig) -> StructureGeometry:
    return StructureGeometry.create(config.r_m, config.r_t, config.downscale_area)


def spread_from_config(config: PipelineConfig) -> SpreadModel:
    return SpreadModel(
        sigma_t0=config.sigma_t0,
        sigma_t_slope=config.sigma_t_slope,
        sigma_r0=config.sigma_r0,
        sigma_r_slope=config.sigma_r_slope,
    )


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


def _subsample(matrix: np.ndarray, cap: int, seed: int) -> np.ndarray:
    if cap <= 0 or matrix.shape[0] <= cap:
        return matrix
    rng = keyed_rng(seed, _STREAM_PCA_SUBSAMPLE)
    idx = np.sort(rng.choice(matrix.shape[0], size=cap, replace=False))
    return matrix[idx]


def _augment_structures(
    out: np.ndarray,
    geometry: StructureGeometry,
    spread: SpreadModel,
    seed: int,
) -> None:
    """Fill ``out``'s rows with random minutia constellations' descriptors.

    They pad thin clustering pools.
    """
    rng = keyed_rng(seed, _STREAM_AUGMENT)
    for row in out:
        ref = Minutia(0.0, 0.0, float(rng.uniform(0.0, 2.0 * math.pi)))
        n = int(rng.integers(1, 9))
        rho = rng.uniform(5.0, geometry.r_m, size=n)
        ang = rng.uniform(0.0, 2.0 * math.pi, size=n)
        others = [
            Minutia(
                float(r * math.cos(a)),
                float(r * math.sin(a)),
                float(rng.uniform(0.0, 2.0 * math.pi)),
            )
            for r, a in zip(rho, ang)
        ]
        row[:] = build_mbls(ref, [ref] + others, geometry, spread)


def train_model(
    items: DatasetDict, config: PipelineConfig, verbose: bool = False
) -> PipelineModel:
    """Fit subspaces and codebook on every impression in ``items``.

    Stages: extract both descriptor families for all impressions, fit one
    subspace model per family (on an optionally capped subsample), fuse,
    cluster the pooled fused vectors, place boundary radii, count
    cardinalities under adjusted assignment, and finally average each
    finger's distance vectors into the population mean.
    """
    if not items:
        raise EmptyTrainingSet("training dataset is empty")
    geometry = geometry_from_config(config)
    spread = spread_from_config(config)
    keys = sorted(items.keys())

    if verbose:
        print(
            f"extracting descriptors for {len(keys)} impressions "
            f"(n_m={geometry.n_m}, n_t={geometry.n_t})"
        )
    counts = [len(items[key][0].minutiae) for key in keys]
    n_real = sum(counts)
    # augmented minutia structures follow the real rows of m_matrix; they
    # have no texture rows
    m_matrix = np.empty((n_real + config.augment_pool, geometry.n_m))
    t_matrix = np.empty((n_real, geometry.n_t))
    offset = 0
    for key, n in zip(keys, counts):
        template, image = items[key]
        rows = slice(offset, offset + n)
        m_matrix[rows], t_matrix[rows] = raw_structures(
            template, image, geometry, spread
        )
        offset += n
    _augment_structures(m_matrix[n_real:], geometry, spread, config.seed)

    if verbose:
        print(f"fitting subspaces (n_p={config.n_p}) on {m_matrix.shape[0]} vectors")
    pca_m = train_pca(
        _subsample(m_matrix, config.pca_subsample, config.seed), config.n_p
    )
    pca_t = train_pca(
        _subsample(t_matrix, config.pca_subsample, config.seed), config.n_p
    )

    # fuse the full pool (augmented minutia structures pair with a zero
    # texture projection: they carry no texture evidence)
    proj_t = np.zeros((m_matrix.shape[0], config.n_p))
    proj_t[:n_real] = project(pca_t, t_matrix)
    fused = fuse_matrix(project(pca_m, m_matrix), proj_t, config.omega_M, config.omega_T)

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
        tau_s=config.tau_s,
        top_t=config.top_t,
        n_boundary=config.N_c,
    )

    if verbose:
        print("averaging per-finger distance vectors into the population mean")
    model = PipelineModel(
        config=config,
        geometry=geometry,
        spread=spread,
        pca_m=pca_m,
        pca_t=pca_t,
        codebook=codebook,
    )
    # real vectors, grouped per impression in key order
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
    vectors = fused_vectors(template, image, model)
    gate = GATE_PER_CANDIDATE if model.config.gate_all else GATE_BEST_ONLY
    bits = encode_bitstring(vectors, model.codebook, gate_mode=gate)
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
    items: DatasetDict, model: PipelineModel, verbose: bool = False
) -> Dict[Tuple[str, str], EncodedImpression]:
    out = {}
    for key in sorted(items.keys()):
        template, image = items[key]
        out[key] = encode_impression(template, image, model)
        if verbose:
            print(f"encoded {key[0]}/{key[1]}: {out[key].bits.ones} bits set")
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
    index, subjects, impressions = _index_grid(encoded)
    genuine_pairs, impostor_pairs = fvc_pairs(len(subjects), len(impressions))

    strings: Dict[Tuple[int, int], BitString] = {}
    for (si, ii), key in index.items():
        bs = encoded[key].bits
        if fold_to is not None:
            bs = fold_compress(bs, fold_to)
        strings[(si, ii)] = bs

    genuine = [
        intersection_score(strings[a], strings[b]).value for a, b in genuine_pairs
    ]
    impostor = [
        intersection_score(strings[a], strings[b]).value for a, b in impostor_pairs
    ]
    return compute_eer(genuine, impostor, POLARITY_SIMILARITY)


def evaluate_fvc_lgs(
    items: DatasetDict, model: PipelineModel
) -> ProtocolReport:
    """Competition pairing over fused vectors (dissimilarity)."""
    vectors = {
        key: fused_vectors(items[key][0], items[key][1], model)
        for key in sorted(items.keys())
    }
    index, subjects, impressions = _index_grid(vectors)
    genuine_pairs, impostor_pairs = fvc_pairs(len(subjects), len(impressions))
    cfg = model.config

    def score(a, b) -> float:
        return lgs_score(
            vectors[index[a]],
            vectors[index[b]],
            min_pairs=cfg.min_nL,
            max_pairs=cfg.max_nL,
            midpoint=cfg.mu_P,
            steepness=cfg.tau_P,
        ).value

    genuine = [score(a, b) for a, b in genuine_pairs]
    impostor = [score(a, b) for a, b in impostor_pairs]
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
    mask_both = model.config.mask_both
    g_trained: List[float] = []
    g_plain: List[float] = []
    i_trained: List[float] = []
    i_plain: List[float] = []
    for s in subjects:
        for key in tests[s]:
            query = encoded[key].bits
            g_trained.append(
                masked_score(query, enrolled[s], fingers[s], mask_both).value
            )
            g_plain.append(intersection_score(query, enrolled[s]).value)
        for t in subjects:
            if t == s:
                continue
            query = encoded[tests[t][0]].bits
            i_trained.append(
                masked_score(query, enrolled[s], fingers[s], mask_both).value
            )
            i_plain.append(intersection_score(query, enrolled[s]).value)

    return SplitEvaluation(
        trained=compute_eer(g_trained, i_trained, POLARITY_SIMILARITY),
        untrained=compute_eer(g_plain, i_plain, POLARITY_SIMILARITY),
        n_genuine=len(g_trained),
        n_impostor=len(i_trained),
        fingers=fingers,
    )


def compression_sweep(
    encoded: Dict[Tuple[str, str], EncodedImpression],
    lengths: Sequence[int],
) -> List[Tuple[int, float]]:
    """Bit-string matcher EER at each folded length (competition pairing)."""
    return [
        (length, evaluate_fvc_bits(encoded, fold_to=length).eer) for length in lengths
    ]


def _index_grid(mapping: Dict[Tuple[str, str], object]):
    """Map (subject index, impression index) onto dataset keys, validating a grid."""
    subjects = sorted({k[0] for k in mapping})
    impressions = sorted({k[1] for k in mapping})
    index: Dict[Tuple[int, int], Tuple[str, str]] = {}
    for si, s in enumerate(subjects):
        for ii, i in enumerate(impressions):
            if (s, i) not in mapping:
                raise EmptyTrainingSet(
                    f"dataset is not a full grid: missing impression {i!r} of {s!r}"
                )
            index[(si, ii)] = (s, i)
    return index, subjects, impressions
