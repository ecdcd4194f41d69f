"""Impression-to-impression comparison.

Two matchers live here. The pre-conversion matcher compares impressions in
fused-vector space: greedily pair the two impressions' vectors one-to-one by
ascending distance and average the closest few pairs (a dissimilarity; the
pair budget adapts to how many minutiae both impressions offer). The
post-conversion matcher compares bit-strings by a size-normalized count of
common set bits (a similarity in [0, 1]), optionally restricted to a trained
per-finger mask, and works unchanged on fold-compressed strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bit_training import FingerModel
from .codebook import BitString
from .errors import BadLength, LengthMismatch
from .subspace_fusion import FusedVector, stack_fused

KIND_LGS = "lgs"
KIND_INTERSECTION = "intersection"

DEFAULT_MIN_PAIRS = 4
DEFAULT_MAX_PAIRS = 10
DEFAULT_PAIR_MIDPOINT = 35.0
DEFAULT_PAIR_STEEPNESS = 0.4


@dataclass(frozen=True)
class MatchScore:
    """One comparison outcome.

    ``kind`` is ``"lgs"`` (dissimilarity, >= 0) or ``"intersection"``
    (similarity in [0, 1]). ``support`` counts the pairs averaged or the
    common set bits, and ``short`` flags an lgs score built from fewer pairs
    than the budget asked for.
    """

    value: float
    kind: str
    support: int
    short: bool = False


def lgs_pair_budget(
    count_a: int,
    count_b: int,
    min_pairs: int = DEFAULT_MIN_PAIRS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    midpoint: float = DEFAULT_PAIR_MIDPOINT,
    steepness: float = DEFAULT_PAIR_STEEPNESS,
) -> int:
    """How many vector pairs to average, given both impressions' counts.

    A floored sigmoid of the smaller count: sparse impressions are judged on
    ``min_pairs`` pairs, rich ones on up to ``max_pairs``. Always within
    [min_pairs, max_pairs].
    """
    smaller = min(count_a, count_b)
    sig = (max_pairs - min_pairs) / (1.0 + math.exp(-steepness * (smaller - midpoint)))
    return min_pairs + int(math.floor(sig))


def lgs_score(
    vectors_a: Sequence[FusedVector] | np.ndarray,
    vectors_b: Sequence[FusedVector] | np.ndarray,
    min_pairs: int = DEFAULT_MIN_PAIRS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    midpoint: float = DEFAULT_PAIR_MIDPOINT,
    steepness: float = DEFAULT_PAIR_STEEPNESS,
) -> MatchScore:
    """Greedy one-to-one fused-vector comparison (lower = more similar).

    All cross distances are ranked ascending (ties by vector indices); pairs
    are taken greedily, each vector used at most once, until the budget from
    :func:`lgs_pair_budget` is filled or vectors run out. The score is the
    mean distance of the taken pairs; ``short`` marks an underfilled budget.
    """
    a = stack_fused(vectors_a)
    b = stack_fused(vectors_b)
    n_a = a.shape[0] if a.size else 0
    n_b = b.shape[0] if b.size else 0
    budget = lgs_pair_budget(n_a, n_b, min_pairs, max_pairs, midpoint, steepness)
    if n_a == 0 or n_b == 0:
        return MatchScore(value=math.inf, kind=KIND_LGS, support=0, short=True)
    if a.shape[1] != b.shape[1]:
        raise LengthMismatch(
            f"fused vector lengths differ: {a.shape[1]} vs {b.shape[1]}"
        )

    diff = a[:, None, :] - b[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    # stable sort on the flattened matrix: distance ascending, ties in
    # (row, column) order
    ia, ib = np.unravel_index(
        np.argsort(dist.ravel(), kind="stable"), (n_a, n_b)
    )

    used_a = np.zeros(n_a, dtype=bool)
    used_b = np.zeros(n_b, dtype=bool)
    picked = []
    for i, j in zip(ia, ib):
        if used_a[i] or used_b[j]:
            continue
        used_a[i] = True
        used_b[j] = True
        picked.append(dist[i, j])
        if len(picked) >= budget:
            break

    value = float(np.mean(picked))
    return MatchScore(
        value=value,
        kind=KIND_LGS,
        support=len(picked),
        short=len(picked) < budget,
    )


def intersection_score(a: BitString, b: BitString) -> MatchScore:
    """Size-normalized common-bit similarity in [0, 1].

    ``(n_a + n_b) * common / (n_a^2 + n_b^2)`` where ``n_a``/``n_b`` are the
    set-bit counts and ``common`` counts positions set in both. Equal to 1
    exactly for identical strings, 0 for disjoint ones; two empty strings
    share nothing and score 0.

    Raises:
        LengthMismatch: strings of different current or original lengths.
    """
    if len(a) != len(b) or a.template_length != b.template_length:
        raise LengthMismatch(
            f"bit-strings disagree in length: {len(a)}/{a.template_length} vs "
            f"{len(b)}/{b.template_length}"
        )
    n_a = a.ones
    n_b = b.ones
    if n_a == 0 and n_b == 0:
        return MatchScore(value=0.0, kind=KIND_INTERSECTION, support=0)
    common = int(np.logical_and(a.bits, b.bits).sum())
    value = (n_a + n_b) * common / (n_a * n_a + n_b * n_b)
    return MatchScore(value=float(value), kind=KIND_INTERSECTION, support=common)


def masked_score(
    query: BitString,
    enrolled: BitString,
    model: FingerModel,
    mask_both: bool = True,
) -> MatchScore:
    """Intersection score under a finger's trained positional mask.

    By default the mask is applied to both strings; with ``mask_both=False``
    only the enrolled side is restricted (a query from an unknown sensor
    keeps all its bits).

    Raises:
        LengthMismatch: mask length does not fit the strings.
    """
    if model.k != len(query) or model.k != len(enrolled):
        raise LengthMismatch(
            f"mask of length {model.k} cannot gate strings of lengths "
            f"{len(query)} and {len(enrolled)}"
        )
    masked_enrolled = BitString(enrolled.bits & model.mask, enrolled.template_length)
    if mask_both:
        masked_query = BitString(query.bits & model.mask, query.template_length)
    else:
        masked_query = query
    return intersection_score(masked_query, masked_enrolled)


def fold_compress(bitstring: BitString, length: int) -> BitString:
    """Compress a bit-string by OR-folding positions modulo ``length``.

    Output bit j is the OR of all input bits at positions congruent to j.
    Popcount never grows; a string folded to its own length is unchanged.
    The original template length rides along so strings folded differently
    are never compared.

    Raises:
        BadLength: ``length`` outside [1, len(bitstring)].
    """
    k = len(bitstring)
    if not (1 <= length <= k):
        raise BadLength(f"fold length {length} outside [1, {k}]")
    out = np.zeros(length, dtype=bool)
    np.logical_or.at(out, np.arange(k) % length, bitstring.bits)
    return BitString(out, template_length=bitstring.template_length)
