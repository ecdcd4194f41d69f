"""Enrollment-time bit selection for one finger.

From a finger's enrollment impressions, given as ``(n, K)`` matrices of
distance vectors and bit-strings, each bit position earns two column
statistics: a discrimination power (how far the finger's distances sit
below the global population mean at that cluster, weighted by cluster
rarity) and a reliability (how consistently the bit was set across the
enrollment samples). Positions are visited in power order and kept when their
reliability clears a sigmoid threshold that tightens with rank, producing a
per-finger positional mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import check_record
from .errors import ArrayRecord, EmptyEnrollment, LengthMismatch, MalformedHeader, check_arrays


@dataclass(eq=False, frozen=True)
class FingerModel(ArrayRecord):
    """One finger's template: trained bit statistics, mask and enrolled reference.

    ``reference`` is the OR of the enrollment strings: a position any sample
    voted for stays available, and the mask is what narrows a comparison
    down to dependable positions.
    """

    finger_id: str
    power: np.ndarray
    reliability: np.ndarray
    mask: np.ndarray  # bool, True = bit position kept
    n_mean: float  # mean minutia count over the enrollment samples
    reference: np.ndarray  # bool, the enrolled string

    def __post_init__(self):
        check_record(self, MalformedHeader, kinds={"finger_id": str, "n_mean": float})
        check_arrays(self, MalformedHeader, power=(float, "K"), reliability=(float, "K"),
                     mask=(bool, "K"), reference=(bool, "K"))

    @property
    def k(self) -> int:
        return self.mask.shape[0]


def _interclass_variance(d: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Below-mean spread of a finger's ``(n, K)`` distance rows, per cluster.

    Only the side where the finger comes *closer* to a cluster than the
    population does carries identity information, so deviations above the
    population mean are clipped to zero before squaring:
    ``mean_j(min(v_j - mu, 0)^2)``. The squares are summed in row order,
    so the result does not depend on how numpy would pair up an axis sum.
    """
    below = np.minimum(d - mu, 0.0)
    return np.cumsum(below * below, axis=0)[-1] / d.shape[0]


def _adaptive_threshold(
    rank: float, n_mean: float, alpha: float, beta: float
) -> float:
    """Reliability bar for the bit visited at a given power rank.

    A sigmoid rising from ``alpha`` toward 1: early (most discriminative)
    ranks face a lenient bar, later ranks an ever stricter one. At
    ``rank == n_mean`` the bar sits exactly halfway, ``alpha + (1-alpha)/2``.
    """
    try:
        return alpha + (1.0 - alpha) / (1.0 + math.exp(-beta * (rank - n_mean)))
    except OverflowError:  # a saturated sigmoid: the term's limit is 0
        return alpha


def _train_mask(
    power: np.ndarray,
    rel: np.ndarray,
    n_mean: float,
    alpha: float,
    beta: float,
) -> np.ndarray:
    """Select bit positions by descending power under the adaptive bar.

    All positions are visited exactly once, ordered by power descending
    (ties by smaller index); the position visited at rank t (1-based) is
    kept iff its reliability strictly exceeds ``_adaptive_threshold(t)``.
    Zero-power positions still get a (very strict) chance at the tail.
    """
    order = np.lexsort((np.arange(power.shape[0]), -power))
    mask = np.zeros(power.shape[0], dtype=bool)
    for t, idx in enumerate(order, start=1):
        if rel[idx] > _adaptive_threshold(t, n_mean, alpha, beta):
            mask[idx] = True
    return mask


def train_finger(
    finger_id: str,
    distances: np.ndarray,
    bits: np.ndarray,
    minutia_counts: Sequence[int],
    population_mean: np.ndarray,
    cluster_weights: np.ndarray,
    alpha: float,
    beta: float,
) -> FingerModel:
    """Run the whole per-finger selection on one finger's enrollment matrices.

    Row ``i`` of the ``(n, K)`` ``distances`` and ``bits`` and
    ``minutia_counts[i]`` describe enrollment impression ``i``, and
    ``population_mean`` and ``cluster_weights`` hold one value per cluster;
    any other shapes raise ``LengthMismatch``, as does a power that overflows float64.
    """
    if any(np.iterable(a) and len(a) == 0 for a in (distances, bits, minutia_counts)):
        raise EmptyEnrollment(f"finger {finger_id!r} has no enrollment samples")
    d, b, counts, mu, weights = check_arrays(
        locals(), LengthMismatch, distances=(float, "n", "K"), bits=(bool, "n", "K"),
        minutia_counts=(float, "n"), population_mean=(float, "K"),
        cluster_weights=(float, "K"))
    # a clipped deviation's overflow is harmless; any other leaves power non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        power = weights * _interclass_variance(d, mu)
    if not np.isfinite(power).all():
        raise LengthMismatch("cluster_weights times the spread of distances below "
                             "population_mean overflows float64")
    rel = b.mean(axis=0)
    n_mean = float(np.mean(counts))
    return FingerModel(
        finger_id=finger_id,
        power=power,
        reliability=rel,
        mask=_train_mask(power, rel, n_mean, alpha, beta),
        n_mean=n_mean,
        reference=b.any(axis=0),
    )
