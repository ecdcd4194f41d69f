"""Comparison scores: greedy vector pairing, bit intersection, folding."""

import math

import numpy as np
import pytest

from fpbits.bit_training import FingerModel
from fpbits.codebook import BitString
from fpbits.config import PipelineConfig
from fpbits.errors import BadLength, EmptyImage, LengthMismatch
from fpbits.matching import (
    _pair_budget,
    fold_bits,
    fold_compress,
    intersection_score,
    intersection_scores,
    lgs_score,
    masked_score,
    masked_scores,
    pack_words,
    stack_bits,
)
import oracles


def pair_args(**overrides):
    """The default config's pair-budget parameters, as the matchers name them."""
    cfg = PipelineConfig()
    return {"min_pairs": cfg.min_nL, "max_pairs": cfg.max_nL, "midpoint": cfg.mu_P,
            "steepness": cfg.tau_P, **overrides}


def bits(*positions, k=10):
    arr = np.zeros(k, dtype=bool)
    for p in positions:
        arr[p] = True
    return BitString(arr)


# ---------------------------------------------------------------------------
# pair budget
# ---------------------------------------------------------------------------

def test_pair_budget_spot_values():
    assert _pair_budget(35, 35, **pair_args()) == 7  # sigmoid midpoint
    assert _pair_budget(35, 200, **pair_args()) == 7  # smaller count drives it
    assert _pair_budget(1, 1, **pair_args()) == 4
    assert _pair_budget(0, 50, **pair_args()) == 4
    assert _pair_budget(1000, 1000, **pair_args()) == 10


def test_pair_budget_saturated_sigmoid_takes_its_limit():
    # exp(200 * 35) overflows a double: the sigmoid term's limit is 0
    assert _pair_budget(0, 50, **pair_args(steepness=200.0)) == 4
    narrow = pair_args(min_pairs=2, max_pairs=9, steepness=200.0)
    assert _pair_budget(10, 10, **narrow) == 2
    assert _pair_budget(1000, 1000, **pair_args(steepness=200.0)) == 10  # exp underflows to 0
    # where exp does not overflow, nothing moves
    for n in (0, 20, 34, 35, 36, 60):
        want = 4 + int(math.floor(6 / (1.0 + math.exp(-3.0 * (n - 35.0)))))
        assert _pair_budget(n, n, **pair_args(steepness=3.0)) == want
    steep = pair_args(steepness=200.0)
    # a budget of 4 over 3 vectors a side: all 3 pairs are taken, and the score is short
    assert lgs_score(np.zeros((3, 2)), np.ones((5, 2)), **steep).short


def test_pair_budget_monotone_and_bounded():
    prev = 0
    for n in range(0, 200):
        b = _pair_budget(n, n, **pair_args())
        assert 4 <= b <= 10
        assert b >= prev
        prev = b


# ---------------------------------------------------------------------------
# greedy pairing
# ---------------------------------------------------------------------------

def greedy_oracle(a, b, budget):
    ranked = sorted(
        (float(np.linalg.norm(a[i] - b[j])), i, j)
        for i in range(len(a))
        for j in range(len(b))
    )
    used_a, used_b, picked = set(), set(), []
    for d, i, j in ranked:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        picked.append(d)
        if len(picked) >= budget:
            break
    return picked


def test_lgs_matches_greedy_oracle():
    rng = np.random.default_rng(149)
    for _ in range(30):
        n_a = int(rng.integers(1, 25))
        n_b = int(rng.integers(1, 25))
        a = np.round(rng.normal(size=(n_a, 4)), 3)  # rounding provokes ties
        b = np.round(rng.normal(size=(n_b, 4)), 3)
        got = lgs_score(a, b, **pair_args())
        budget = _pair_budget(n_a, n_b, **pair_args())
        picked = greedy_oracle(a, b, budget)
        assert math.isclose(got.value, float(np.mean(picked)), rel_tol=1e-12)
        assert got.short == (len(picked) < budget)
        assert got.kind == "lgs"


def lgs_sweep():
    """Seeded ``(a, b, pair_args)`` cases for the argmin greedy.

    Integer-valued vectors make tied distances common, some sides repeat
    rows or share the other side's rows, every fifth case has one vector on
    a side, and budgets run from 1 to past both counts, ``min_pairs ==
    max_pairs`` included.
    """
    rng = np.random.default_rng(157)
    for trial in range(600):
        n_a, n_b = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        if trial % 5 == 0:
            n_a = 1
        elif trial % 5 == 1:
            n_b = 1
        dim = int(rng.integers(1, 6))
        if trial % 2:
            a = rng.integers(-2, 3, size=(n_a, dim)).astype(np.float64)
            b = rng.integers(-2, 3, size=(n_b, dim)).astype(np.float64)
        else:
            a, b = rng.normal(size=(n_a, dim)), rng.normal(size=(n_b, dim))
        if trial % 3 == 0:
            a = a[rng.integers(0, n_a, size=n_a)]
            b = np.concatenate([b, a])[rng.integers(0, n_a + n_b, size=n_b)]
        min_pairs = int(rng.integers(1, 15))
        max_pairs = min_pairs + int(rng.integers(0, 3)) * int(rng.integers(0, 10))
        yield a, b, pair_args(min_pairs=min_pairs, max_pairs=max_pairs,
                              midpoint=float(rng.uniform(0, 30)))


def test_lgs_argmin_picks_match_sorted_greedy():
    seen = {"short": 0, "full": 0, "min == max": 0, "n_a = 1": 0, "n_b = 1": 0}
    for a, b, args in lgs_sweep():
        got = lgs_score(a, b, **args)
        assert got == oracles.lgs_score(a, b, **args), (a, b, args)
        seen["short" if got.short else "full"] += 1
        seen["min == max"] += args["min_pairs"] == args["max_pairs"]
        seen["n_a = 1"] += len(a) == 1
        seen["n_b = 1"] += len(b) == 1
    assert min(seen.values()) >= 50, seen


def test_lgs_single_pair():
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])
    score = lgs_score(a, b, **pair_args())
    assert math.isclose(score.value, 5.0)
    assert score.short


def test_lgs_identical_sets_score_zero():
    rng = np.random.default_rng(151)
    a = rng.normal(size=(40, 6))
    score = lgs_score(a, a.copy(), **pair_args())
    assert score.value == 0.0
    assert not score.short


def test_lgs_empty_side():
    a = np.zeros((0, 3))
    b = np.ones((2, 3))
    c = np.zeros((3, 0))  # rows, but vectors of length 0
    for x, y in ((a, b), (b, a), (a, a), (c, c[:2])):
        with pytest.raises(EmptyImage, match="^an impression with no fused vectors has no lgs "
                                             "score$"):
            lgs_score(x, y, **pair_args())


def test_lgs_dim_mismatch():
    with pytest.raises(LengthMismatch):
        lgs_score(np.zeros((2, 3)), np.zeros((2, 4)), **pair_args())


# ---------------------------------------------------------------------------
# intersection score
# ---------------------------------------------------------------------------

def test_intersection_spot_values():
    a = bits(0, 1, 2)
    b = bits(1, 2, 5, 7)
    score = intersection_score(a, b)  # sizes 3 and 4, common 2
    assert score.value == 0.56

    same = bits(1, 4, 6)
    assert intersection_score(same, bits(1, 4, 6)).value == 1.0
    assert intersection_score(bits(0, 1), bits(5, 6)).value == 0.0


def test_intersection_identity_is_exact_one():
    rng = np.random.default_rng(157)
    for _ in range(50):
        arr = rng.random(64) < 0.3
        if not arr.any():
            continue
        bs = BitString(arr)
        assert intersection_score(bs, BitString(arr.copy())).value == 1.0


def test_intersection_empty_both():
    score = intersection_score(bits(), bits())
    assert score.value == 0.0


def test_intersection_bounded():
    rng = np.random.default_rng(163)
    for _ in range(200):
        a = BitString(rng.random(32) < rng.uniform(0.1, 0.9))
        b = BitString(rng.random(32) < rng.uniform(0.1, 0.9))
        v = intersection_score(a, b).value
        assert 0.0 <= v <= 1.0


def test_intersection_length_checks():
    with pytest.raises(LengthMismatch):
        intersection_score(bits(0, k=10), bits(0, k=12))


# ---------------------------------------------------------------------------
# masked score
# ---------------------------------------------------------------------------

def finger_with_mask(mask, reference):
    m = np.asarray(mask, dtype=bool)
    k = m.shape[0]
    return FingerModel(
        finger_id="f",
        power=np.zeros(k),
        reliability=np.zeros(k),
        mask=m,
        n_mean=5.0,
        reference=np.asarray(reference, dtype=bool),
    )


def test_masked_score_both_sides():
    query = bits(0, 1, 2, 3, k=6)
    finger = finger_with_mask([0, 1, 1, 1, 0, 0], bits(1, 2, 4, k=6).bits)
    got = masked_score(query, finger, mask_both=True)
    want = oracles.intersection_score(bits(1, 2, 3, k=6), bits(1, 2, k=6))
    assert got.value == want.value


def test_masked_score_enrolled_only():
    query = bits(0, 1, 2, 3, k=6)
    finger = finger_with_mask([0, 1, 1, 1, 0, 0], bits(1, 2, 4, k=6).bits)
    got = masked_score(query, finger, mask_both=False)
    want = oracles.intersection_score(query, bits(1, 2, k=6))
    assert got.value == want.value


def test_masked_score_length_check():
    finger = finger_with_mask([1, 0, 1, 1], bits(1, k=4).bits)
    with pytest.raises(LengthMismatch):
        masked_score(bits(0, k=3), finger, mask_both=True)


# ---------------------------------------------------------------------------
# fold compression
# ---------------------------------------------------------------------------

def test_fold_or_semantics():
    bs = bits(0, 5, 9, k=10)
    folded = fold_compress(bs, 5)
    # positions 0, 5 collapse onto 0; 9 lands on 4
    assert folded.bits.tolist() == [True, False, False, False, True]
    assert len(folded) == 5


def test_fold_identity_at_own_length():
    rng = np.random.default_rng(167)
    for _ in range(20):
        bs = BitString(rng.random(24) < 0.4)
        same = fold_compress(bs, 24)
        assert np.array_equal(same.bits, bs.bits)


def test_fold_popcount_never_grows():
    rng = np.random.default_rng(173)
    for _ in range(50):
        k = int(rng.integers(2, 64))
        bs = BitString(rng.random(k) < rng.uniform(0.1, 0.8))
        length = int(rng.integers(1, k + 1))
        folded = fold_compress(bs, length)
        assert folded.ones <= bs.ones
        assert len(folded) == length


def test_fold_identical_strings_score_one():
    rng = np.random.default_rng(179)
    for _ in range(30):
        arr = rng.random(40) < 0.35
        if not arr.any():
            continue
        a = fold_compress(BitString(arr), 17)
        b = fold_compress(BitString(arr.copy()), 17)
        assert intersection_score(a, b).value == 1.0


def test_fold_length_validation():
    bs = bits(0, k=8)
    with pytest.raises(BadLength):
        fold_compress(bs, 0)
    with pytest.raises(BadLength):
        fold_compress(bs, 9)


# ---------------------------------------------------------------------------
# batch scoring against the one-pair oracles (tests/oracles.py)
# ---------------------------------------------------------------------------

def random_rows(rng, n, k):
    """Rows of mixed density, including empty and full ones."""
    rows = rng.random((n, k)) < rng.uniform(0.0, 1.0, size=(n, 1))
    rows[0] = False
    rows[1] = False
    rows[2] = True
    return rows


def assert_matches_pairwise(values, want):
    assert values.dtype == np.float64
    assert values.tolist() == [w.value for w in want]  # bit-identical floats


@pytest.mark.parametrize("k", [1, 7, 63, 64, 65, 100, 128, 200, 257])
def test_intersection_scores_match_one_pair_oracle(k):
    rng = np.random.default_rng(1000 + k)
    a = random_rows(rng, 60, k)
    b = random_rows(rng, 60, k)
    b[3] = a[3]  # identical strings score exactly 1
    # rows 0/1: empty vs empty; rows 0/2 of b against a: empty vs nonempty
    b[4] = False
    values = intersection_scores(a, b)
    want = [oracles.intersection_score(BitString(x), BitString(y)) for x, y in zip(a, b)]
    assert_matches_pairwise(values, want)
    assert values[0] == 0.0
    if a[3].any():
        assert values[3] == 1.0


def test_pack_words_layout():
    rows = np.zeros((2, 70), dtype=bool)
    rows[0, [0, 63, 64, 69]] = True
    words = pack_words(rows)
    assert words.dtype == np.uint64 and words.shape == (2, 2)
    assert words[0].tolist() == [(1 << 0) | (1 << 63), (1 << 0) | (1 << 5)]
    assert words[1].tolist() == [0, 0]


@pytest.mark.parametrize("mask_both", [True, False])
@pytest.mark.parametrize("k", [5, 64, 100, 130])
def test_masked_scores_match_one_pair_oracle(k, mask_both):
    rng = np.random.default_rng(2000 + k)
    query = random_rows(rng, 40, k)
    enrolled = random_rows(rng, 40, k)
    masks = rng.random((40, k)) < rng.uniform(0.0, 1.0, size=(40, 1))
    masks[5] = False  # a mask that keeps nothing
    values = masked_scores(query, enrolled, masks, mask_both)
    want = [
        oracles.masked_score(BitString(q), finger_with_mask(m, e), mask_both)
        for q, e, m in zip(query, enrolled, masks)
    ]
    assert_matches_pairwise(values, want)


def test_stack_bits_is_one_matrix():
    got = stack_bits([bits(0, k=10), bits(3, 4, k=10)])
    assert got.dtype == bool and got.shape == (2, 10)
    assert got.sum(axis=1).tolist() == [1, 2]


def test_batch_length_checks():
    with pytest.raises(LengthMismatch):  # string lengths
        intersection_scores(np.zeros((3, 10), bool), np.zeros((3, 12), bool))
    with pytest.raises(LengthMismatch):  # row counts
        intersection_scores(np.zeros((3, 10), bool), np.zeros((4, 10), bool))
    with pytest.raises(LengthMismatch):
        masked_scores(np.zeros((3, 4), bool), np.zeros((3, 4), bool),
                      np.zeros((3, 3), bool), mask_both=True)
    with pytest.raises(LengthMismatch):
        stack_bits([bits(0, k=10), bits(0, k=12)])


def fold_oracle(row, length):
    out = np.zeros(length, dtype=bool)
    np.logical_or.at(out, np.arange(row.shape[0]) % length, row)
    return out


@pytest.mark.parametrize("k", [1, 13, 64, 100])
def test_fold_bits_matches_logical_or_at_for_every_length(k):
    rng = np.random.default_rng(3000 + k)
    rows = random_rows(rng, 6, k) if k >= 3 else rng.random((6, k)) < 0.5
    for length in range(1, k + 1):
        folded = fold_bits(rows, length)
        assert folded.shape == (6, length) and folded.dtype == bool
        want = np.array([fold_oracle(r, length) for r in rows])
        assert np.array_equal(folded, want)
    with pytest.raises(BadLength):
        fold_bits(rows, 0)
    with pytest.raises(BadLength):
        fold_bits(rows, k + 1)
