"""Verification protocol: pair enumeration and error-rate estimation.

Pairing follows the standard competition recipe: every unordered pair of
impressions of the same subject is a genuine attempt, and every unordered
pair of *first* impressions of distinct subjects is an impostor attempt
(S subjects x m impressions gives S*m*(m-1)/2 genuine and S*(S-1)/2
impostor attempts).

The equal error rate is read off the receiver curve at the point where the
false accept and false reject rates meet. The deterministic threshold sweep
only reaches a staircase of operating points, so the meeting point is
interpolated on the convex hull of those points (the operating curve a
threshold randomized between two sweep positions can realize).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ArrayRecord, EmptyScores, check_arrays

Pair = Tuple[Tuple[int, int], Tuple[int, int]]


@dataclass(eq=False)
class ProtocolReport(ArrayRecord):
    """Scores, the swept receiver curve, and the interpolated equal error rate."""

    genuine_scores: np.ndarray
    impostor_scores: np.ndarray
    eer: float
    roc: List[Tuple[float, float, float]]  # (FAR, FRR, threshold), tightening


def fvc_pair_rows(n_subjects: int, n_impressions: int) -> Tuple[np.ndarray, np.ndarray]:
    """Enumerate genuine and impostor attempts over an S x m dataset.

    Impression ``i`` of subject ``s`` is row ``s * n_impressions + i`` of a
    subject-major grid. Returns ``(genuine, impostor)``, ``(n, 2)`` int64
    arrays with the smaller row first in each attempt. Genuine attempts come
    subject by subject, each in ``(i, j)`` order with ``i < j``; impostor
    attempts pair first impressions in ``(a, b)`` order with ``a < b``.
    """
    if n_subjects < 1 or n_impressions < 1:
        raise EmptyScores(
            f"cannot pair {n_subjects} subjects x {n_impressions} impressions"
        )
    first, second = np.triu_indices(n_impressions, 1)
    base = np.arange(n_subjects, dtype=np.int64)[:, None] * n_impressions
    genuine = np.stack([(base + first).ravel(), (base + second).ravel()], axis=1)
    a, b = np.triu_indices(n_subjects, 1)
    impostor = np.stack([a, b], axis=1).astype(np.int64) * n_impressions
    return genuine, impostor


def _operating_points(
    genuine: np.ndarray, impostor: np.ndarray
) -> Tuple[List[Tuple[float, float, float]], np.ndarray]:
    """Swept staircase and full corner set, accepting scores at or above each threshold.

    Both score sets are sorted once; at every threshold, the counts of
    scores below (``left``) and not above (``right``) it come from binary
    searches.
    """
    sweep = np.unique(np.concatenate([genuine, impostor]))
    g = np.sort(genuine, axis=None)
    im = np.sort(impostor, axis=None)
    n_g, n_i = g.size, im.size
    far = (n_i - np.searchsorted(im, sweep, side="left")) / n_i  # impostor >= th
    frr = np.searchsorted(g, sweep, side="left") / n_g  # genuine < th
    far_x = (n_i - np.searchsorted(im, sweep, side="right")) / n_i  # impostor > th
    frr_x = np.searchsorted(g, sweep, side="right") / n_g  # genuine <= th

    roc = list(zip(far.tolist(), frr.tolist(), sweep.tolist()))
    # accept-everything / reject-everything, then both conventions per threshold
    corners = np.concatenate([
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        np.stack([far, frr], axis=1),
        np.stack([far_x, frr_x], axis=1),
    ])
    return roc, np.unique(corners, axis=0)


def _hull_eer(points: np.ndarray) -> float:
    """Diagonal crossing of the lower convex hull of unique (FAR, FRR) points in lexsort order.

    From FAR 0 on or above the diagonal to (1, 0) below it, the hull meets the
    diagonal at a vertex or first crosses it downward; no other case can run."""
    hull: List[np.ndarray] = []
    for p in points:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if cross <= 0.0:  # b is above or on segment a-p: discard it
                hull.pop()
            else:
                break
        hull.append(p)

    for a, b in zip(hull, hull[1:]):
        da = a[1] - a[0]
        db = b[1] - b[0]
        if da == 0.0:
            return float(a[0])
        if da > 0.0 > db:
            t = da / (da - db)
            return float(a[0] + t * (b[0] - a[0]))


def compute_eer(
    genuine: Sequence[float], impostor: Sequence[float], *, dissimilarity: bool = False
) -> ProtocolReport:
    """Sweep thresholds over the merged scores and interpolate the EER.

    Genuine attempts should score high, or low with ``dissimilarity``, which
    sweeps the negated scores and reports each threshold, zero as ``+0.0``,
    negated back. The returned curve tightens along the list: FAR never
    increases and FRR never decreases.

    Raises:
        EmptyScores: either score list is empty, is not a 1-d list of finite
            numbers, or cannot be made one.
    """
    # numpy takes an iterator for one object: unpack it as the sequence it stands for
    genuine, impostor = (list(s) if np.iterable(s) and not isinstance(s, np.ndarray) else s
                         for s in (genuine, impostor))
    g, i = check_arrays(locals(), EmptyScores, genuine=(float, None), impostor=(float, None))
    if g.size == 0 or i.size == 0:
        raise EmptyScores("both genuine and impostor score lists must be non-empty")

    # negation is exact; + 0.0 turns whichever zero the sort kept into +0.0
    sign = -1.0 if dissimilarity else 1.0
    roc, corners = _operating_points(sign * g, sign * i)
    roc = [(far, frr, sign * th + 0.0) for far, frr, th in roc]
    eer = _hull_eer(corners)
    return ProtocolReport(genuine_scores=g.copy(), impostor_scores=i.copy(), eer=eer, roc=roc)


def fvc_pairs(n_subjects: int, n_impressions: int) -> Tuple[List[Pair], List[Pair]]:
    """:func:`fvc_pair_rows` as ``((subject, impression), (subject, impression))`` lists.

    A view kept as an API name; nothing in the package calls it.
    """
    return tuple(
        [tuple(divmod(row, n_impressions) for row in attempt) for attempt in rows.tolist()]
        for rows in fvc_pair_rows(n_subjects, n_impressions)
    )
