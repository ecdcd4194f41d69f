"""Verification protocol: attempt pairing and equal-error-rate estimation."""

import numpy as np
import pytest

from fpbits import protocol
from fpbits.errors import EmptyScores
from fpbits.protocol import compute_eer, fvc_pair_rows, fvc_pairs
import oracles

# genuine attempts score high, then low
by_polarity = pytest.mark.parametrize("dissimilarity", [False, True],
                                      ids=["similarity", "dissimilarity"])


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def test_pair_counts():
    genuine, impostor = fvc_pairs(100, 8)
    assert (len(genuine), len(impostor)) == (2800, 4950)
    genuine, impostor = fvc_pairs(140, 12)
    assert (len(genuine), len(impostor)) == (9240, 9730)


def test_pair_enumeration_small():
    genuine, impostor = fvc_pairs(3, 2)
    assert genuine == [((0, 0), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (2, 1))]
    assert impostor == [((0, 0), (1, 0)), ((0, 0), (2, 0)), ((1, 0), (2, 0))]


def test_pair_ordering_and_uniqueness():
    genuine, impostor = fvc_pairs(6, 4)
    for a, b in genuine + impostor:
        assert a < b  # smaller endpoint first, no self pairs
    assert len(set(genuine)) == len(genuine)
    assert len(set(impostor)) == len(impostor)
    # impostor attempts only use first impressions
    assert all(a[1] == 0 and b[1] == 0 for a, b in impostor)


def test_pair_errors():
    with pytest.raises(EmptyScores):
        fvc_pairs(0, 5)
    with pytest.raises(EmptyScores):
        fvc_pairs(5, 0)
    with pytest.raises(EmptyScores):
        fvc_pair_rows(0, 5)
    with pytest.raises(EmptyScores):
        fvc_pair_rows(5, 0)


@pytest.mark.parametrize("s, m", [(1, 1), (1, 4), (5, 1), (3, 2), (7, 5), (12, 8)])
def test_pair_rows_list_fvc_pairs_in_order(s, m):
    genuine, impostor = oracles.fvc_pairs(s, m)
    rows_g, rows_i = fvc_pair_rows(s, m)
    assert rows_g.dtype == rows_i.dtype == np.int64
    assert rows_g.shape == (len(genuine), 2) and rows_i.shape == (len(impostor), 2)

    def row(endpoint):
        return endpoint[0] * m + endpoint[1]

    assert rows_g.tolist() == [[row(a), row(b)] for a, b in genuine]
    assert rows_i.tolist() == [[row(a), row(b)] for a, b in impostor]


# ---------------------------------------------------------------------------
# equal error rate
# ---------------------------------------------------------------------------

def pairwise_oracle(genuine, impostor, dissimilarity):
    """Minimum diagonal crossing over segments between operating points.

    Every deterministic threshold yields operating points under both the
    inclusive and exclusive acceptance conventions; randomizing between two
    such points reaches anything on the segment joining them. The best
    achievable equal-error operating point is the smallest diagonal
    crossing over all pairs (quadratic, but independent of the hull code).
    """
    g = np.asarray(genuine, dtype=float)
    im = np.asarray(impostor, dtype=float)
    pts = {(1.0, 0.0), (0.0, 1.0)}
    for th in np.unique(np.concatenate([g, im])):
        if not dissimilarity:
            pts.add((float((im >= th).mean()), float((g < th).mean())))
            pts.add((float((im > th).mean()), float((g <= th).mean())))
        else:
            pts.add((float((im <= th).mean()), float((g > th).mean())))
            pts.add((float((im < th).mean()), float((g >= th).mean())))
    best = None
    arr = sorted(pts)
    for a in arr:
        for b in arr:
            da, db = a[1] - a[0], b[1] - b[0]
            if da == 0.0:
                c = a[0]
            elif db == 0.0:
                c = b[0]
            elif (da > 0 > db) or (da < 0 < db):
                t = da / (da - db)
                c = a[0] + t * (b[0] - a[0])
            else:
                continue
            best = c if best is None else min(best, c)
    return best


def test_eer_separated():
    assert compute_eer([0.9, 0.8], [0.2, 0.1]).eer == 0.0
    assert compute_eer([0.1, 0.2], [0.8, 0.9], dissimilarity=True).eer == 0.0


def test_eer_identical_distributions():
    assert compute_eer([0.7, 0.3], [0.7, 0.3]).eer == 0.5
    assert compute_eer([0.5], [0.5]).eer == 0.5


def test_eer_interpolated_crossing():
    # no single threshold reaches FAR = FRR here; the crossing sits a
    # quarter of the way along a staircase segment
    report = compute_eer([0.9, 0.8], [0.85, 0.1])
    assert abs(report.eer - 0.25) < 1e-12


def test_eer_against_pairwise_oracle():
    rng = np.random.default_rng(181)
    cases = []
    for trial in range(40):
        n_g = int(rng.integers(1, 15))
        n_i = int(rng.integers(1, 15))
        g = np.round(rng.normal(0.6, 0.25, n_g), 2)
        im = np.round(rng.normal(0.4, 0.25, n_i), 2)
        cases.append((g, im, trial % 2 == 0))
    # a set inverted under either polarity, and an all-equal set
    low, high = np.array([0.1, 0.2, 0.2, 0.4]), np.array([0.3, 0.8, 0.9])
    cases += [(g, im, dissimilarity) for g, im in
              [(low, high), (high, low), (np.full(5, 0.5), np.full(3, 0.5))]
              for dissimilarity in (False, True)]
    for g, im, dissimilarity in cases:
        got = compute_eer(g, im, dissimilarity=dissimilarity).eer
        want = pairwise_oracle(g, im, dissimilarity)
        assert abs(got - want) < 1e-12
        assert 0.0 <= got <= 1.0


def test_polarity_negation_duality():
    rng = np.random.default_rng(191)
    g = rng.normal(0.3, 0.2, 20)
    im = rng.normal(0.6, 0.2, 25)
    low = compute_eer(g, im, dissimilarity=True).eer
    high = compute_eer(-g, -im).eer
    assert abs(low - high) < 1e-12


def test_roc_tightens():
    rng = np.random.default_rng(193)
    g = rng.normal(0.65, 0.15, 60)
    im = rng.normal(0.35, 0.15, 80)
    for dissimilarity in (False, True):
        report = compute_eer(g, im, dissimilarity=dissimilarity)
        fars = [p[0] for p in report.roc]
        frrs = [p[1] for p in report.roc]
        assert all(b <= a + 1e-12 for a, b in zip(fars, fars[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(frrs, frrs[1:]))
        assert len(report.roc) == len(np.unique(np.concatenate([g, im])))


def test_eer_input_validation():
    with pytest.raises(EmptyScores):
        compute_eer([], [0.5])
    with pytest.raises(EmptyScores):
        compute_eer([0.5], [])
    with pytest.raises(EmptyScores):
        compute_eer([float("nan")], [0.5])
    with pytest.raises(EmptyScores):
        compute_eer([0.5], [float("inf")])
    # the polarity is a keyword-only bool: no string can name it
    with pytest.raises(TypeError):
        compute_eer([0.5], [0.4], "dissimilarity")


# ---------------------------------------------------------------------------
# sorted sweep against the per-threshold loop
# ---------------------------------------------------------------------------

def loop_operating_points(genuine, impostor, dissimilarity):
    """Four full-array comparisons per threshold: the sweep before sorting.

    A zero threshold is +0.0, whichever of -0.0 and 0.0 ``np.unique`` kept.
    """
    thresholds = np.unique(np.concatenate([genuine, impostor])) + 0.0
    sweep = thresholds[::-1] if dissimilarity else thresholds
    roc = []
    corners = [(1.0, 0.0), (0.0, 1.0)]
    n_g, n_i = genuine.size, impostor.size
    for th in sweep:
        if not dissimilarity:
            far = float((impostor >= th).sum()) / n_i
            frr = float((genuine < th).sum()) / n_g
            far_x = float((impostor > th).sum()) / n_i
            frr_x = float((genuine <= th).sum()) / n_g
        else:
            far = float((impostor <= th).sum()) / n_i
            frr = float((genuine > th).sum()) / n_g
            far_x = float((impostor < th).sum()) / n_i
            frr_x = float((genuine >= th).sum()) / n_g
        roc.append((far, frr, float(th)))
        corners.append((far, frr))
        corners.append((far_x, frr_x))
    return roc, np.unique(np.array(corners, dtype=np.float64), axis=0)


def roc_rows(roc):
    """The ROC as the ``evaluate`` command writes it: one ``:.9f`` row per point."""
    return [f"{far:.9f},{frr:.9f},{th:.9f}" for far, frr, th in roc]


def assert_matches_loop(genuine, impostor, dissimilarity):
    g = np.asarray(genuine, dtype=np.float64)
    im = np.asarray(impostor, dtype=np.float64)
    want_roc, want_corners = loop_operating_points(g, im, dissimilarity)
    report = compute_eer(genuine, impostor, dissimilarity=dissimilarity)
    assert report.roc == want_roc
    assert roc_rows(report.roc) == roc_rows(want_roc)
    assert all(type(x) is float for point in report.roc for x in point)
    # the one sweep sees dissimilarities negated
    sign = -1.0 if dissimilarity else 1.0
    _, corners = protocol._operating_points(sign * g, sign * im)
    assert corners.tobytes() == want_corners.tobytes()
    # the hull takes the corners as they come: np.unique left them in lexsort order
    assert np.array_equal(np.lexsort((corners[:, 1], corners[:, 0])), np.arange(len(corners)))
    assert report.eer == protocol._hull_eer(want_corners)


@by_polarity
def test_sorted_sweep_matches_loop(dissimilarity):
    rng = np.random.default_rng(197)
    for trial in range(60):
        n_g = int(rng.integers(1, 400))
        n_i = int(rng.integers(1, 400))
        # few decimals: heavy ties within and across the two sets
        decimals = int(rng.integers(0, 3))
        g = np.round(rng.normal(0.6, 0.2, n_g), decimals)
        im = np.round(rng.normal(0.4, 0.2, n_i), decimals)
        assert_matches_loop(g, im, dissimilarity)


@by_polarity
def test_sorted_sweep_matches_loop_on_ties(dissimilarity):
    assert_matches_loop([0.5] * 7, [0.5] * 3, dissimilarity)
    assert_matches_loop([1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0], dissimilarity)
    assert_matches_loop([0.25], [0.75], dissimilarity)
    assert_matches_loop([-0.0, 0.0, 0.5], [0.0, -0.0], dissimilarity)
    # unsorted input, as the protocol hands it over
    assert_matches_loop([0.9, 0.1, 0.5, 0.5, 0.3], [0.5, 0.2, 0.9, 0.2], dissimilarity)


@by_polarity
def test_zero_threshold_is_positive_zero(dissimilarity):
    # np.unique keeps whichever zero its sort puts first; the sweep of the
    # negated scores sees the other sign
    rng = np.random.default_rng(199)
    for n in (2, 5, 40, 400):
        zeros = rng.choice([-0.0, 0.0], size=n)
        zeros[:2] = [-0.0, 0.0]
        scores = np.concatenate([zeros, [0.5, -0.5]])
        for g, im in [(scores, zeros), (zeros, scores), (-scores, zeros)]:
            report = compute_eer(g, im, dissimilarity=dissimilarity)
            zero_rows = [row for row in roc_rows(report.roc) if row.endswith(",0.000000000")]
            assert len(zero_rows) == 1
            assert not any(row.endswith(",-0.000000000") for row in roc_rows(report.roc))
            assert report.genuine_scores.tobytes() == np.asarray(g).tobytes()
            assert report.impostor_scores.tobytes() == np.asarray(im).tobytes()


def test_sorted_sweep_leaves_inputs_and_scores_alone():
    g = np.array([0.9, 0.1, 0.5])
    im = np.array([0.4, 0.8])
    report = compute_eer(g, im)
    assert g.tolist() == [0.9, 0.1, 0.5] and im.tolist() == [0.4, 0.8]
    assert report.genuine_scores.tolist() == [0.9, 0.1, 0.5]
    assert report.genuine_scores is not g
    assert compute_eer(iter([0.9, 0.8]), iter([0.2])).eer == 0.0


@by_polarity
def test_sorted_sweep_empty_scores(dissimilarity):
    for genuine, impostor in [
        (np.array([]), np.array([0.5])),
        (np.array([0.5]), np.array([])),
        (np.array([0.5, np.nan]), np.array([0.5])),
        (np.array([0.5]), np.array([-np.inf])),
    ]:
        with pytest.raises(EmptyScores):
            compute_eer(genuine, impostor, dissimilarity=dissimilarity)
