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


def interclass_variance(
    distances: np.ndarray, population_mean: np.ndarray
) -> np.ndarray:
    """Below-mean spread of a finger's ``(n, K)`` distance rows, per cluster.

    Only the side where the finger comes *closer* to a cluster than the
    population does carries identity information, so deviations above the
    population mean are clipped to zero before squaring:
    ``mean_j(min(v_j - mu, 0)^2)``. The squares are summed in row order,
    so the result does not depend on how numpy would pair up an axis sum.

    Raises:
        EmptyEnrollment: no distance rows supplied.
        LengthMismatch: the rows are not as long as the mean.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.shape[0] == 0:
        raise EmptyEnrollment("interclass variance needs at least one impression")
    mu = np.asarray(population_mean, dtype=np.float64).ravel()
    if d.shape[1:] != mu.shape:
        raise LengthMismatch(
            f"distance rows of shape {d.shape[1:]} != mean length {mu.shape[0]}"
        )
    below = np.minimum(d - mu, 0.0)
    return np.cumsum(below * below, axis=0)[-1] / d.shape[0]


def discrimination_power(
    variance: np.ndarray, cluster_weights: np.ndarray
) -> np.ndarray:
    """Per-bit power: below-mean variance scaled by cluster rarity weight."""
    v = np.asarray(variance, dtype=np.float64).ravel()
    w = np.asarray(cluster_weights, dtype=np.float64).ravel()
    if v.shape != w.shape:
        raise LengthMismatch(f"variance length {v.shape[0]} != weights {w.shape[0]}")
    return w * v


def reliability(bits: np.ndarray) -> np.ndarray:
    """Fraction of the ``(n, K)`` enrollment bit rows that set each bit.

    Raises:
        EmptyEnrollment: no bit rows supplied.
        LengthMismatch: ``bits`` is not a matrix.
    """
    b = np.asarray(bits, dtype=bool)
    if b.shape[0] == 0:
        raise EmptyEnrollment("reliability needs at least one bit-string")
    if b.ndim != 2:
        raise LengthMismatch(f"bit rows must form an (n, K) matrix, not {b.shape}")
    return b.mean(axis=0)


def adaptive_threshold(
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


def train_mask(
    power: np.ndarray,
    rel: np.ndarray,
    n_mean: float,
    alpha: float,
    beta: float,
) -> np.ndarray:
    """Select bit positions by descending power under the adaptive bar.

    All positions are visited exactly once, ordered by power descending
    (ties by smaller index); the position visited at rank t (1-based) is
    kept iff its reliability strictly exceeds ``adaptive_threshold(t)``.
    Zero-power positions still get a (very strict) chance at the tail.
    """
    p = np.asarray(power, dtype=np.float64).ravel()
    r = np.asarray(rel, dtype=np.float64).ravel()
    if p.shape != r.shape:
        raise LengthMismatch(f"power length {p.shape[0]} != reliability {r.shape[0]}")
    order = np.lexsort((np.arange(p.shape[0]), -p))
    mask = np.zeros(p.shape[0], dtype=bool)
    for t, idx in enumerate(order, start=1):
        if r[idx] > adaptive_threshold(t, n_mean, alpha, beta):
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
    ``minutia_counts[i]`` describe enrollment impression ``i``; any other
    shapes raise ``LengthMismatch``.
    """
    if len(distances) == 0 or len(bits) == 0 or len(minutia_counts) == 0:
        raise EmptyEnrollment(f"finger {finger_id!r} has no enrollment samples")
    if np.shape(distances) != np.shape(bits) or len(minutia_counts) != len(bits):
        raise LengthMismatch(f"finger {finger_id!r}: distances {np.shape(distances)}, "
                             f"bits {np.shape(bits)}, {len(minutia_counts)} counts disagree")
    var = interclass_variance(distances, population_mean)
    power = discrimination_power(var, cluster_weights)
    rel = reliability(bits)
    n_mean = float(np.mean(minutia_counts))
    mask = train_mask(power, rel, n_mean, alpha, beta)
    return FingerModel(
        finger_id=finger_id,
        power=power,
        reliability=rel,
        mask=mask,
        n_mean=n_mean,
        reference=np.asarray(bits, dtype=bool).any(axis=0),
    )
