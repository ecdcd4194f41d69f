"""Per-finger bit selection: power, reliability, adaptive threshold, mask.

``train_finger`` is the one checked entry; the variance, the bar and the
mask loop are its private helpers and are tested directly. The matrix forms
of the variance, the reliability and the population mean are checked
against the per-object loops in ``tests/oracles.py`` for identical arrays.
"""

import math

import numpy as np
import pytest

import oracles
from fpbits.bit_training import (
    _adaptive_threshold,
    _interclass_variance,
    _train_mask,
    train_finger,
)
from fpbits.codebook import BitString, DistanceVector, global_mean
from fpbits.config import PipelineConfig
from fpbits.errors import EmptyEnrollment, LengthMismatch

# the default config's reliability bar: floor and steepness
ALPHA, BETA = PipelineConfig().alpha, PipelineConfig().beta


def sigmoid_bar(t, n_mean, alpha=ALPHA, beta=BETA):
    # independent rendering of the threshold formula
    return alpha + (1.0 - alpha) / (1.0 + math.exp(-beta * (t - n_mean)))


# ---------------------------------------------------------------------------
# variance and power
# ---------------------------------------------------------------------------

def test_interclass_variance_clips_above_mean():
    mu = np.array([5.0, 5.0, 5.0])
    distances = np.array([
        [3.0, 5.0, 9.0],
        [1.0, 6.0, 2.0],
    ])
    out = _interclass_variance(distances, mu)
    # below-mean gaps -2 and -4; 0 and 0 (above never counts); 0 and -3
    assert np.allclose(out, [(4.0 + 16.0) / 2.0, 0.0, 9.0 / 2.0])


def test_reliability_fraction():
    bits = np.array([
        [1, 1, 0, 0],
        [1, 0, 0, 1],
        [1, 1, 0, 1],
    ], dtype=bool)
    args = (np.zeros((3, 4)), bits, [5, 6, 7], np.zeros(4), np.ones(4), ALPHA, BETA)
    assert np.allclose(train_finger("x", *args).reliability, [1.0, 2 / 3, 0.0, 2 / 3])
    # a single string is not a matrix of enrollment rows
    with pytest.raises(LengthMismatch):
        train_finger("x", np.zeros((1, 4)), bits[0], [5], *args[3:])


# ---------------------------------------------------------------------------
# adaptive threshold
# ---------------------------------------------------------------------------

def test_threshold_midpoint_exact():
    # at rank == mean minutia count the bar sits exactly halfway to 1
    assert abs(_adaptive_threshold(2.0, 2.0, ALPHA, BETA) - 0.725) < 1e-12
    assert abs(_adaptive_threshold(7.0, 7.0, alpha=0.45, beta=BETA) - 0.725) < 1e-12
    assert abs(_adaptive_threshold(3.0, 3.0, alpha=0.2, beta=BETA) - 0.6) < 1e-12


def test_threshold_rank_values():
    # frozen values for alpha 0.45, beta 0.4, n_mean 2
    for t, want in [
        (1, 0.45 + 0.55 / (1.0 + math.exp(0.4))),
        (2, 0.725),
        (3, 0.45 + 0.55 / (1.0 + math.exp(-0.4))),
        (4, 0.45 + 0.55 / (1.0 + math.exp(-0.8))),
    ]:
        assert abs(_adaptive_threshold(t, 2.0, ALPHA, BETA) - want) < 1e-15
        assert abs(_adaptive_threshold(t, 2.0, ALPHA, BETA) - sigmoid_bar(t, 2.0)) < 1e-15
    assert abs(_adaptive_threshold(1, 2.0, ALPHA, BETA) - 0.6707217869) < 1e-9
    assert abs(_adaptive_threshold(3, 2.0, ALPHA, BETA) - 0.7792782131) < 1e-9
    assert abs(_adaptive_threshold(4, 2.0, ALPHA, BETA) - 0.8294859646) < 1e-9


def test_threshold_strictly_increasing_and_bounded():
    # strictly increasing while doubles can resolve the increments; once the
    # sigmoid saturates the bar must hold at the supremum, never dip
    values = [_adaptive_threshold(t, 25.0, ALPHA, BETA) for t in range(1, 201)]
    assert all(b > a for a, b in zip(values[:100], values[1:100]))
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] > 0.45
    assert 1.0 - 1e-15 <= values[-1] <= 1.0


def test_threshold_saturated_sigmoid_takes_its_limit():
    # exp(50 * 38) overflows a double: the sigmoid term's limit is 0, so an
    # early rank faces the floor itself
    assert _adaptive_threshold(1, 39.0, alpha=0.45, beta=50.0) == 0.45
    assert _adaptive_threshold(1, 39.0, alpha=0.0, beta=50.0) == 0.0
    # exp underflows to 0 on the far side: the bar is 1
    assert _adaptive_threshold(200, 39.0, alpha=0.45, beta=50.0) == 1.0
    # ranks where exp stays finite keep the formula's value
    for t in (30, 38, 39, 40, 50):
        assert _adaptive_threshold(t, 39.0, ALPHA, beta=50.0) == sigmoid_bar(t, 39.0, beta=50.0)


def test_train_mask_under_a_saturated_bar():
    # ranks 1-24 overflow and face alpha; up to n_mean the bar stays within
    # 1e-21 of it, and past n_mean it is all but 1
    power = np.arange(40, 0, -1, dtype=np.float64)
    rel = np.full(40, 0.5)
    mask = _train_mask(power, rel, n_mean=39.0, alpha=0.45, beta=50.0)
    assert mask.tolist() == [True] * 38 + [False] * 2


# ---------------------------------------------------------------------------
# mask training
# ---------------------------------------------------------------------------

def test_train_mask_worked_example():
    power = np.array([4.0, 3.0, 2.0, 1.0])
    rel = np.array([0.9, 0.5, 0.9, 0.9])
    mask = _train_mask(power, rel, 2.0, ALPHA, BETA)
    # ranks visit indices 0..3; bars ~0.671, 0.725, 0.779, 0.829
    assert mask.tolist() == [True, False, True, True]


def test_train_mask_threshold_is_strict():
    # reliability exactly at the bar is rejected
    power = np.array([5.0, 1.0])
    rel = np.array([0.725, 1.0])
    mask = _train_mask(power, rel, 1.0, ALPHA, BETA)  # rank 1 bar = midpoint = 0.725
    assert mask.tolist() == [False, True]


def test_train_mask_tie_breaks_by_index():
    power = np.array([2.0, 2.0, 2.0])
    # ranks 1..3 in index order; bars rise, so which slot a bit lands in matters
    rel = np.array([0.70, 0.70, 0.70])
    mask = _train_mask(power, rel, 2.0, ALPHA, BETA)
    # bar(1) ~= 0.671 < 0.70, bar(2) = 0.725 > 0.70, bar(3) ~= 0.779 > 0.70
    assert mask.tolist() == [True, False, False]


def test_train_mask_visits_every_position():
    rng = np.random.default_rng(137)
    power = rng.uniform(0.0, 1.0, 50)
    rel = np.ones(50)  # perfectly reliable bits clear any bar below 1
    mask = _train_mask(power, rel, 10.0, ALPHA, BETA)
    assert mask.all()


def test_train_mask_oracle_sweep():
    rng = np.random.default_rng(139)
    for _ in range(30):
        k = int(rng.integers(2, 40))
        power = np.round(rng.uniform(0, 3, k), 3)
        rel = np.round(rng.uniform(0, 1, k), 3)
        n_mean = float(rng.uniform(1, 15))
        got = _train_mask(power, rel, n_mean, ALPHA, BETA)
        order = sorted(range(k), key=lambda i: (-power[i], i))
        want = np.zeros(k, dtype=bool)
        for t, idx in enumerate(order, start=1):
            want[idx] = rel[idx] > sigmoid_bar(t, n_mean)
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# whole-finger training
# ---------------------------------------------------------------------------

def test_train_finger_assembles_parts():
    mu = np.array([4.0, 4.0, 4.0, 4.0])
    weights = np.array([1.0, 0.5, 1.0, 0.25])
    distances = np.array([
        [2.0, 4.0, 3.0, 4.0],
        [2.0, 4.0, 5.0, 4.0],
    ])
    bits = np.array([
        [1, 0, 1, 0],
        [1, 0, 1, 1],
    ], dtype=bool)
    finger = train_finger("s7", distances, bits, [30, 34], mu, weights, ALPHA, BETA)
    assert finger.finger_id == "s7"
    assert finger.n_mean == 32.0
    # below-mean variance (4, 0, 1/2, 0) times the cluster weights
    assert np.allclose(finger.power, [4.0, 0.0, 0.5, 0.0])
    assert np.allclose(finger.reliability, [1.0, 0.0, 1.0, 0.5])
    assert np.array_equal(
        finger.mask, _train_mask(finger.power, finger.reliability, 32.0, ALPHA, BETA)
    )
    assert finger.k == 4


def test_train_finger_empty_errors():
    mu = np.zeros(2)
    w = np.ones(2)
    dv = np.zeros((1, 2))
    bs = np.zeros((1, 2), dtype=bool)
    with pytest.raises(EmptyEnrollment):
        train_finger("x", np.zeros((0, 2)), bs, [5], mu, w, ALPHA, BETA)
    with pytest.raises(EmptyEnrollment):
        train_finger("x", dv, np.zeros((0, 2), dtype=bool), [5], mu, w, ALPHA, BETA)
    with pytest.raises(EmptyEnrollment):
        train_finger("x", dv, bs, [], mu, w, ALPHA, BETA)


@pytest.mark.parametrize("distances_shape, bits_shape, counts", [
    ((2, 4), (3, 4), [5]),  # variance over 2 rows, reliability over 3, 1 count
    ((2, 4), (3, 4), [5, 6, 7]),
    ((3, 4), (2, 4), [5, 6, 7]),
    ((3, 4), (3, 4), [5, 6]),
    ((3, 4), (3, 4), [5, 6, 7, 8]),
    ((2, 4), (2, 3), [5, 6]),
])
def test_train_finger_rejects_disagreeing_shapes(distances_shape, bits_shape, counts):
    mu, w = np.zeros(4), np.ones(4)
    distances = np.zeros(distances_shape)
    bits = np.zeros(bits_shape, dtype=bool)
    with pytest.raises(LengthMismatch):
        train_finger("x", distances, bits, counts, mu, w, ALPHA, BETA)


@pytest.mark.parametrize("mu, w", [
    (np.zeros(5), np.ones(4)),  # a population mean of K + 1 clusters
    (np.zeros(4), np.ones(5)),
    (np.zeros(4), np.ones((1, 4))),  # 2-d cluster weights, which would broadcast
], ids=["mean K+1", "weights K+1", "2-d weights"])
def test_train_finger_rejects_a_mean_or_weights_of_another_shape(mu, w):
    with pytest.raises(LengthMismatch, match="^(population_mean|cluster_weights) must be"):
        train_finger("x", np.zeros((2, 4)), np.zeros((2, 4), bool), [5, 6], mu, w, ALPHA, BETA)


# ---------------------------------------------------------------------------
# the matrix forms against the per-object oracles
# ---------------------------------------------------------------------------

def random_finger(rng, n, k):
    """One finger's ``(n, k)`` distance and bit rows, with values tied to the mean."""
    mu = rng.uniform(0.5, 2.0, k)
    distances = mu + rng.normal(0.0, 0.7, (n, k))
    distances = np.where(rng.random((n, k)) < 0.1, mu, distances)  # some at the mean
    bits = rng.random((n, k)) < rng.uniform(0.1, 0.9)
    return distances, bits, mu


def assert_matches_oracles(distances, bits, mu, weights, counts):
    vectors = [DistanceVector(row) for row in distances]
    strings = [BitString(row) for row in bits]
    variance = oracles.interclass_variance(vectors, mu)
    rel = oracles.reliability(strings)
    assert np.array_equal(_interclass_variance(distances, mu), variance)
    finger = train_finger("f", distances, bits, counts, mu, weights, ALPHA, BETA)
    power = weights * variance
    assert np.array_equal(finger.power, power)
    assert np.array_equal(finger.reliability, rel)
    n_mean = float(np.mean(counts))
    assert np.array_equal(finger.mask, _train_mask(power, rel, n_mean, ALPHA, BETA))


# numpy's axis-0 sum of an (n, 1) matrix goes pairwise once n >= 8, so these
# shapes tell a row-order sum from an axis sum in the last bits
SHAPES = [(1, 1), (2, 1), (8, 1), (9, 1), (17, 1), (3, 2), (8, 5), (17, 64), (5, 100)]


@pytest.mark.parametrize("n, k", SHAPES)
def test_bit_training_matches_per_object_oracles(n, k):
    rng = np.random.default_rng(1000 * n + k)
    for _ in range(40):
        distances, bits, mu = random_finger(rng, n, k)
        weights = rng.uniform(0.0, 1.0, k)
        counts = rng.integers(5, 60, n).tolist()
        assert_matches_oracles(distances, bits, mu, weights, counts)


@pytest.mark.parametrize("n, k", SHAPES)
def test_global_mean_matches_per_object_oracle(n, k):
    rng = np.random.default_rng(2000 * n + k)
    for _ in range(20):
        sizes = rng.integers(1, n + 1, int(rng.integers(1, 6)))
        groups = [rng.normal(3.0, 1.0, (size, k)) for size in sizes]
        want = oracles.global_mean(
            [[DistanceVector(row) for row in group] for group in groups]
        )
        assert np.array_equal(global_mean(groups), want)
