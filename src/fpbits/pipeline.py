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
    centroid_distances,
    cluster_cardinalities,
    distance_vector,
    encode_bitstring,
    estimate_radii,
    global_mean,
    kmeans_train,
)
from .config import PipelineConfig, keyed_rng
from .errors import EmptyImage, EmptyScores, EmptyTrainingSet, ModelMissing
from .local_structures import StructureGeometry, mbls_matrix, tbls_matrix
from .matching import (
    MatchScore,
    fold_bits,
    intersection_scores,
    lgs_score,
    masked_scores,
    stack_bits,
)
from .model_store import PipelineModel
from .protocol import ProtocolReport, compute_eer, fvc_pair_rows
from .subspace_fusion import (
    PcaModel,
    fuse_matrix,
    train_pca_inplace,
)
from .template_io import GrayImage, MinutiaTemplate

DatasetDict = Dict[Tuple[str, str], Tuple[MinutiaTemplate, GrayImage]]

_STREAM_PCA_SUBSAMPLE = 101


def _require_minutiae(template: MinutiaTemplate) -> None:
    """``EmptyImage`` naming the impression unless its template has minutiae."""
    if len(template) == 0:
        raise EmptyImage(
            f"impression {template.subject_id}/{template.impression_id} has no minutiae"
        )


def fused_vectors(
    template: MinutiaTemplate, image: GrayImage, model: PipelineModel
) -> np.ndarray:
    """Project and fuse every minutia: the ``(n_minutiae, 2 * n_p)`` fused matrix.

    Raises:
        EmptyImage: the template has no minutiae.
    """
    _require_minutiae(template)
    cfg = model.config
    mbls = mbls_matrix(template.minutiae, model.geometry)
    tbls = tbls_matrix(template.minutiae, image, model.geometry)
    # project()'s product without its argument scan or its centred copy: the
    # rows are fresh C-ordered matrices from a checked template and image
    mbls -= model.pca_m.mean
    tbls -= model.pca_t.mean
    return fuse_matrix(mbls @ model.pca_m.basis, tbls @ model.pca_t.basis,
                       cfg.omega_M, cfg.omega_T)


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
    rows_of: Callable[[int, np.ndarray], np.ndarray],
    counts: Sequence[int],
    dim: int,
    config: PipelineConfig,
) -> Tuple[PcaModel, np.ndarray]:
    """Fit one descriptor family's subspace and project every one of its rows.

    Impression ``i`` holds ``counts[i]`` consecutive rows, and ``rows_of(i,
    local)`` returns its ``(len(local), dim)`` rows at the local indices
    ``local``. Each row is computed once. Pass 1 computes the subsample's
    rows straight into the fit matrix, which the fit centres in place and
    which is kept. Pass 2 gathers each impression's centred rows, its kept
    subsample rows and its other rows minus the mean, and projects them as
    one product, as :func:`project` does: ``encode``'s projections bit for
    bit, save that with a cap, minutia rows from ``mbls_matrix(refs=...)``
    can differ in their last bits (within 1e-12). Memory is the fit matrix,
    the fit's Gram or covariance matrix and one impression's rows.
    """
    starts = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
    n_rows = int(starts[-1])
    sub = _subsample_rows(n_rows, config.pca_subsample, config.seed)
    # impression i's subsample rows are x[pos[i]:pos[i + 1]]
    pos = np.searchsorted(sub, starts)

    x = np.empty((sub.size, dim), dtype=np.float64)
    for i, (lo, a, b) in enumerate(zip(starts, pos[:-1], pos[1:])):
        if b > a:
            x[a:b] = rows_of(i, sub[a:b] - lo)
    pca = train_pca_inplace(x, config.n_p)

    in_sub = np.zeros(n_rows, dtype=bool)
    in_sub[sub] = True
    buf = np.empty((max(counts, default=0), dim), dtype=np.float64)
    out = np.empty((n_rows, config.n_p), dtype=np.float64)
    for i, (n, lo, a, b) in enumerate(zip(counts, starts, pos[:-1], pos[1:])):
        if b - a == n:
            rows = x[a:b]
        else:
            mine = in_sub[lo : lo + n]
            fresh = rows_of(i, np.flatnonzero(~mine))
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
    then compute the pool's distance matrix to the centroids once. That
    matrix places the boundary radii, counts cardinalities under adjusted
    assignment and gives each impression's distance vector; each finger's
    vectors are averaged into the population mean. Only without a cap does
    the codebook see ``encode``'s fused vectors bit for bit.

    Raises:
        EmptyTrainingSet: ``items`` is empty.
        EmptyImage: an impression has no minutiae.
    """
    if not items:
        raise EmptyTrainingSet("training dataset is empty")
    geometry = StructureGeometry.from_config(config)
    keys = sorted(items.keys())
    templates = [items[key][0] for key in keys]
    for template in templates:
        _require_minutiae(template)
    counts = [len(template) for template in templates]

    if verbose:
        print(
            f"fitting subspaces (n_p={config.n_p}) on {len(keys)} impressions, "
            f"{sum(counts)} minutiae (n_m={geometry.n_m}, n_t={geometry.n_t})"
        )
    # one family at a time, texture first: the largest fit then runs without
    # the minutia fit matrix alive, and before the minutia fit has left its
    # freed matrices resident in the heap, which lowers the peak RSS
    pca_t, proj_t = _fit_family(
        lambda i, local: tbls_matrix(templates[i].minutiae[local], items[keys[i]][1], geometry),
        counts, geometry.n_t, config,
    )
    pca_m, proj_m = _fit_family(
        lambda i, local: mbls_matrix(templates[i].minutiae, geometry, refs=local),
        counts, geometry.n_m, config,
    )
    fused = fuse_matrix(proj_m, proj_t, config.omega_M, config.omega_T)

    if verbose:
        print(f"clustering {fused.shape[0]} fused vectors into K={config.K}")
    centroids = kmeans_train(
        fused, config.K, max_iters=config.kmeans_max_iters, seed=config.seed
    )
    d = centroid_distances(fused, centroids)
    radii = estimate_radii(d, config.N_c)
    codebook = Codebook(centroids, radii, cluster_cardinalities(d, radii))

    if verbose:
        print("averaging per-finger distance vectors into the population mean")
    # one distance row per impression, each count at least 1; keys are
    # sorted, so a finger's rows form one block
    distances = np.minimum.reduceat(d, np.cumsum([0] + counts[:-1]), axis=0)
    _, firsts = np.unique([key[0] for key in keys], return_index=True)
    return PipelineModel(
        config=config,
        pca_m=pca_m,
        pca_t=pca_t,
        codebook=codebook,
        population_mean=global_mean(np.split(distances, firsts[1:])),
    )


@dataclass
class EncodedImpression:
    """Everything downstream stages need from one impression; its key names it."""

    bits: BitString
    distances: DistanceVector
    n_minutiae: int


def encode_impression(
    template: MinutiaTemplate, image: GrayImage, model: PipelineModel
) -> EncodedImpression:
    """Template + image -> bit-string, distance vector, minutia count.

    Raises:
        EmptyImage: the template has no minutiae.
    """
    cfg, codebook = model.config, model.codebook
    d = centroid_distances(fused_vectors(template, image, model), codebook.centroids)
    return EncodedImpression(
        bits=encode_bitstring(d, codebook.radii, cfg.tau_s, cfg.top_t, cfg.gate_all),
        distances=distance_vector(d),
        n_minutiae=len(template),
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

def split_keys(
    keyed: Dict[Tuple[str, str], object], enroll_size: int
) -> Dict[str, Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]]:
    """Per subject: (enrollment keys, test keys) of a dataset or encoded grid.

    Impressions are in sorted order, and the first ``enroll_size`` of each
    subject enroll it.
    """
    by_subject: Dict[str, List[Tuple[str, str]]] = {}
    for key in sorted(keyed.keys()):
        by_subject.setdefault(key[0], []).append(key)
    return {
        s: (keys[:enroll_size], keys[enroll_size:]) for s, keys in by_subject.items()
    }


def enroll_subject(
    finger_id: str,
    samples: Sequence[EncodedImpression],
    model: PipelineModel,
) -> FingerModel:
    """Train one finger, its mask and its reference, from its enrollment impressions."""
    return train_finger(
        finger_id=finger_id,
        distances=np.array([e.distances.values for e in samples]),
        bits=stack_bits([e.bits for e in samples]),
        minutia_counts=[e.n_minutiae for e in samples],
        population_mean=model.population_mean,
        cluster_weights=model.codebook.weights,
        alpha=model.config.alpha,
        beta=model.config.beta,
    )


def evaluate_fvc_bits(
    encoded: Dict[Tuple[str, str], EncodedImpression],
    fold_to: Optional[int] = None,
) -> ProtocolReport:
    """Competition pairing over per-impression bit-strings (similarity).

    The grid's strings, folded unless ``fold_to`` is ``None``, form one
    subject-major matrix; all attempts are scored in one batch call.
    """
    keys, n_subjects, n_impressions = _grid_keys(encoded)
    genuine, impostor = fvc_pair_rows(n_subjects, n_impressions)
    bits = stack_bits([encoded[key].bits for key in keys])
    if fold_to is not None:
        bits = fold_bits(bits, fold_to)
    pairs = np.concatenate([genuine, impostor])
    values = intersection_scores(bits[pairs[:, 0]], bits[pairs[:, 1]])
    n_g = genuine.shape[0]
    return compute_eer(values[:n_g], values[n_g:])


def lgs_scores(
    items: DatasetDict,
    model: PipelineModel,
    pairs: Sequence[Tuple[Tuple[str, str], Tuple[str, str]]],
) -> List[MatchScore]:
    """:func:`~fpbits.matching.lgs_score` of each ``(key_a, key_b)`` pair under the config.

    A fused matrix is computed once per impression, when a pair first names it.

    Raises:
        ModelMissing: a pair names a key not in ``items``.
        EmptyImage: a named impression has no minutiae.
    """
    cfg = model.config
    vectors: Dict[Tuple[str, str], np.ndarray] = {}
    scores = []
    for a, b in pairs:
        for key in (a, b):
            if key not in vectors:
                if key not in items:
                    raise ModelMissing(f"impression {key[0]}/{key[1]} not in dataset")
                vectors[key] = fused_vectors(*items[key], model)
        scores.append(lgs_score(vectors[a], vectors[b], min_pairs=cfg.min_nL,
                                max_pairs=cfg.max_nL, midpoint=cfg.mu_P,
                                steepness=cfg.tau_P))
    return scores


def evaluate_fvc_lgs(
    items: DatasetDict, model: PipelineModel
) -> ProtocolReport:
    """Competition pairing over fused vectors (dissimilarity)."""
    keys, n_subjects, n_impressions = _grid_keys(items)
    genuine, impostor = fvc_pair_rows(n_subjects, n_impressions)
    pairs = [(keys[a], keys[b]) for a, b in np.concatenate([genuine, impostor]).tolist()]
    values = [score.value for score in lgs_scores(items, model, pairs)]
    n_g = genuine.shape[0]
    return compute_eer(values[:n_g], values[n_g:], dissimilarity=True)


@dataclass
class SplitEvaluation:
    """Enroll/test evaluation with and without per-finger bit training."""

    trained: ProtocolReport
    untrained: ProtocolReport
    n_genuine: int
    n_impostor: int


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
    split = split_keys(encoded, model.config.enroll_size)
    if not split:
        raise EmptyScores("no subjects to enroll and verify")
    fingers, test_keys, firsts = [], [], []  # in subject order
    for s, (enroll_keys, held_out) in sorted(split.items()):
        if not held_out:  # enroll_size >= 1: every subject has enroll keys
            raise EmptyTrainingSet(f"subject {s!r} lacks impressions for an enroll/test split")
        fingers.append(enroll_subject(s, [encoded[k] for k in enroll_keys], model))
        firsts.append(len(test_keys))
        test_keys += held_out

    # genuine: every held-out impression against its own subject's reference;
    # impostor: reference s against every other subject t's first held-out
    # impression, s-major as the attempts are listed
    n_s, n_g = len(fingers), len(test_keys)
    i_ref, other = np.nonzero(~np.eye(n_s, dtype=bool))
    query = np.concatenate([np.arange(n_g), np.asarray(firsts)[other]])
    ref = np.concatenate([np.repeat(np.arange(n_s), np.diff(firsts + [n_g])), i_ref])
    queries = stack_bits([encoded[key].bits for key in test_keys])[query]
    # fingers enrolled under one model share its K
    references = np.array([finger.reference for finger in fingers])[ref]
    masks = np.array([finger.mask for finger in fingers])[ref]
    plain = intersection_scores(queries, references)
    trained = masked_scores(queries, references, masks, model.config.mask_both)

    return SplitEvaluation(
        trained=compute_eer(trained[:n_g], trained[n_g:]),
        untrained=compute_eer(plain[:n_g], plain[n_g:]),
        n_genuine=n_g,
        n_impostor=i_ref.size,
    )


def compression_sweep(
    encoded: Dict[Tuple[str, str], EncodedImpression],
    lengths: Sequence[int],
) -> List[Tuple[int, float]]:
    """Bit-string matcher EER at each folded length (competition pairing)."""
    return [(length, evaluate_fvc_bits(encoded, length).eer) for length in lengths]


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
