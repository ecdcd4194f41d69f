"""Impression-to-impression comparison.

Two matchers live here. The pre-conversion matcher compares impressions in
fused-vector space: greedily pair the two impressions' vectors one-to-one by
ascending distance and average the closest few pairs (a dissimilarity; the
pair budget adapts to how many minutiae both impressions offer). The
post-conversion matcher compares bit-strings by a size-normalized count of
common set bits (a similarity in [0, 1]), optionally restricted to a trained
per-finger mask, and works unchanged on fold-compressed strings.

Whole pair sets are scored by :func:`intersection_scores`, which packs the
strings into 64-bit words and counts bits with ``np.bitwise_count``, and by
:func:`masked_scores` on top of it. :func:`intersection_score` and
:func:`masked_score` are their one-pair views, kept as API names; nothing in
the package calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bit_training import FingerModel
from .codebook import BitString
from .errors import (BadLength, EmptyImage, LengthMismatch, check_arrays, check_instance,
                     check_squares)

KIND_LGS = "lgs"
KIND_INTERSECTION = "intersection"


@dataclass(frozen=True)
class MatchScore:
    """One comparison outcome.

    ``kind`` is ``"lgs"`` (dissimilarity, >= 0) or ``"intersection"``
    (similarity in [0, 1]). ``short`` flags an lgs score built from fewer
    pairs than the budget asked for.
    """

    value: float
    kind: str
    short: bool = False


def _pair_budget(
    count_a: int,
    count_b: int,
    min_pairs: int,
    max_pairs: int,
    midpoint: float,
    steepness: float,
) -> int:
    """How many vector pairs to average, given both impressions' counts.

    A floored sigmoid of the smaller count: sparse impressions are judged on
    ``min_pairs`` pairs, rich ones on up to ``max_pairs``. Always within
    [min_pairs, max_pairs].
    """
    smaller = min(count_a, count_b)
    try:
        sig = (max_pairs - min_pairs) / (1.0 + math.exp(-steepness * (smaller - midpoint)))
    except OverflowError:  # a saturated sigmoid: the term's limit is 0
        return min_pairs
    return min_pairs + int(math.floor(sig))


def lgs_score(
    vectors_a: np.ndarray,
    vectors_b: np.ndarray,
    min_pairs: int,
    max_pairs: int,
    midpoint: float,
    steepness: float,
) -> MatchScore:
    """Greedy one-to-one comparison of two fused matrices (lower = more similar).

    Pairs are taken greedily, each vector used at most once, until the
    budget from :func:`_pair_budget` is filled or vectors run out: each
    pick is the smallest cross distance left between unused vectors, ties
    going to the first in (row, column) order. The score is the mean
    distance of the taken pairs; ``short`` marks an underfilled budget.
    Both matrices are finite.

    Raises:
        EmptyImage: either side has no vectors.
        LengthMismatch: the two sides' vector lengths differ, or their squares overflow.
    """
    if any(np.iterable(v) and len(v) == 0 for v in (vectors_a, vectors_b)):
        raise EmptyImage("an impression with no fused vectors has no lgs score")
    a, b = check_arrays(locals(), LengthMismatch, vectors_a=(float, None, "dim"),
                        vectors_b=(float, None, "dim"))
    if a.size == 0 or b.size == 0:  # vectors of length 0
        raise EmptyImage("an impression with no fused vectors has no lgs score")
    # a squared distance is at most 2 ||a_i||^2 + 2 ||b_j||^2
    check_squares(LengthMismatch, 4.0, vectors_a=a, vectors_b=b)
    n_a, n_b = a.shape[0], b.shape[0]
    budget = _pair_budget(n_a, n_b, min_pairs, max_pairs, midpoint, steepness)

    diff = a[:, None, :] - b[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    picked = []
    for _ in range(min(budget, n_a, n_b)):
        # argmin takes the first minimum in row-major order; the row and
        # column of a taken pair read inf from then on
        i, j = divmod(int(dist.argmin()), n_b)
        picked.append(dist[i, j])
        dist[i, :] = np.inf
        dist[:, j] = np.inf

    return MatchScore(float(np.mean(picked)), KIND_LGS, short=len(picked) < budget)


def pack_words(bits: np.ndarray) -> np.ndarray:
    """``(n, K)`` bools as ``(n, ceil(K / 64))`` uint64 words, zero-padded."""
    n, k = bits.shape
    padded = np.zeros((n, -(-k // 64) * 64), dtype=bool)
    padded[:, :k] = bits
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def intersection_scores(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Size-normalized common-bit similarity of row ``i`` of ``a`` and ``b``, in [0, 1].

    Each value is ``(n_a + n_b) * common / (n_a^2 + n_b^2)``, where
    ``n_a``/``n_b`` are the rows' set-bit counts and ``common`` counts the
    positions set in both. It is exactly 1 for identical rows and 0 for
    disjoint ones; two empty rows share nothing and score 0.

    ``a`` and ``b`` are ``(n, K)`` bool matrices, one string per row.
    Returns the float64 values.

    Raises:
        LengthMismatch: row counts or string lengths differ.
    """
    a, b = check_arrays(locals(), LengthMismatch, a=(bool, "n", "K"), b=(bool, "n", "K"))
    words_a = pack_words(a)
    words_b = pack_words(b)
    n_a = np.bitwise_count(words_a).sum(axis=1, dtype=np.int64)
    n_b = np.bitwise_count(words_b).sum(axis=1, dtype=np.int64)
    common = np.bitwise_count(words_a & words_b).sum(axis=1, dtype=np.int64)
    # the integers stay far below 2**53, so the division of their float64
    # images rounds exactly as a Python division of the integers does
    den = n_a * n_a + n_b * n_b
    values = np.zeros(a.shape[0], dtype=np.float64)
    np.divide((n_a + n_b) * common, den, out=values, where=den > 0)
    return values


def masked_scores(
    query: np.ndarray,
    enrolled: np.ndarray,
    masks: np.ndarray,
    mask_both: bool,
) -> np.ndarray:
    """:func:`intersection_scores` under per-pair masks: ``masks[i]`` gates pair ``i``.

    With ``mask_both`` each mask is applied to both strings; without it only
    the enrolled side is restricted (a query from an unknown sensor keeps
    all its bits).

    Raises:
        LengthMismatch: the three matrices differ in shape.
    """
    query, enrolled, masks = check_arrays(locals(), LengthMismatch, query=(bool, "n", "K"),
                                          enrolled=(bool, "n", "K"), masks=(bool, "n", "K"))
    if mask_both:
        query = query & masks
    return intersection_scores(query, enrolled & masks)


def stack_bits(strings: Sequence[BitString]) -> np.ndarray:
    """One ``(n, K)`` bool matrix of equal-length strings.

    Raises:
        LengthMismatch: two strings disagree in length.
    """
    if not strings:
        return np.zeros((0, 0), dtype=bool)
    first = strings[0]
    for other in strings[1:]:
        if len(other) != len(first):
            raise LengthMismatch(
                f"bit-strings disagree in length: {len(first)} vs {len(other)}"
            )
    return np.array([s.bits for s in strings])


def check_fold_length(length: int, k: int) -> None:
    """The one fold-length rule: ``BadLength`` unless ``1 <= length <= k``."""
    if not (1 <= length <= k):
        raise BadLength(f"fold length {length} outside [1, {k}]")


def fold_bits(bits: np.ndarray, length: int) -> np.ndarray:
    """OR-fold every row of an ``(n, K)`` bool matrix modulo ``length``.

    The rows are zero-padded to a multiple of ``length`` and reshaped to
    ``(n, ceil(K / length), length)``, so output bit j is the OR over the
    column of positions congruent to j.

    Raises:
        LengthMismatch: ``bits`` is not a bool matrix.
        BadLength: ``length`` outside [1, K].
    """
    [bits] = check_arrays(locals(), LengthMismatch, bits=(bool, None, None))
    n, k = bits.shape
    check_fold_length(length, k)
    columns = -(-k // length)
    padded = np.zeros((n, columns * length), dtype=bool)
    padded[:, :k] = bits
    return padded.reshape(n, columns, length).any(axis=1)


def fold_compress(bitstring: BitString, length: int) -> BitString:
    """Compress a bit-string by OR-folding positions modulo ``length``.

    Output bit j is the OR of all input bits at positions congruent to j.
    Popcount never grows; a string folded to its own length is unchanged.

    Raises:
        LengthMismatch: ``bitstring`` is not a ``BitString``.
        BadLength: ``length`` outside [1, len(bitstring)].
    """
    return BitString(fold_bits(_row(bitstring, "bitstring"), length)[0])


# ---------------------------------------------------------------------------
# one-pair views, kept as API names
# ---------------------------------------------------------------------------

def _row(string: BitString, name: str) -> np.ndarray:
    """``string``'s bits as a one-row matrix, or ``LengthMismatch`` unless it is a ``BitString``."""
    return check_instance(string, BitString, name).bits[None, :]


def _one_pair(values: np.ndarray) -> MatchScore:
    return MatchScore(float(values[0]), KIND_INTERSECTION)


def intersection_score(a: BitString, b: BitString) -> MatchScore:
    """:func:`intersection_scores` of one pair.

    Raises:
        LengthMismatch: strings of different lengths, or a string that is not a ``BitString``.
    """
    return _one_pair(intersection_scores(_row(a, "a"), _row(b, "b")))


def masked_score(query: BitString, finger: FingerModel, mask_both: bool) -> MatchScore:
    """:func:`masked_scores` of ``query`` against ``finger``'s reference under its mask.

    Raises:
        LengthMismatch: a mask that does not fit the strings, a query that is not a
            ``BitString`` or a finger that is not a ``FingerModel``.
    """
    finger = check_instance(finger, FingerModel, "finger")
    return _one_pair(masked_scores(_row(query, "query"), finger.reference[None, :],
                                   finger.mask[None, :], mask_both))
