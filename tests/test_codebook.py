"""Codebook training, boundary radii, and bit conversion."""

import numpy as np
import pytest

from fpbits.codebook import (
    BitString,
    Codebook,
    _kmeanspp_init,
    _sq_norms,
    cardinality_weights,
    centroid_distances,
    cluster_cardinalities,
    distance_vector,
    encode_bitstring,
    estimate_radii,
    global_mean,
    kmeans_objective,
    kmeans_train,
)
from fpbits.config import PipelineConfig
from fpbits.errors import (
    DegeneratePool,
    LengthMismatch,
    PoolTooSmall,
)
import oracles
from oracles import distances_oracle, kmeans_train_oracle, kmeanspp_init_oracle

MAX_ITERS = PipelineConfig().kmeans_max_iters


def brute_distances(x, centroids):
    out = np.empty((len(x), len(centroids)))
    for i, v in enumerate(x):
        for j, c in enumerate(centroids):
            out[i, j] = np.sqrt(((v - c) ** 2).sum())
    return out


def make_codebook(centroids, radii):
    c = np.asarray(centroids, dtype=np.float64)
    k = c.shape[0]
    return Codebook(
        centroids=c,
        radii=np.asarray(radii, dtype=np.float64),
        cardinalities=np.ones(k, dtype=np.int64),
    )


def encode(x, cb, tau_s, top_t, gate_all):
    """:func:`encode_bitstring` of the fused matrix ``x`` under ``cb``."""
    return encode_bitstring(centroid_distances(x, cb.centroids), cb.radii, tau_s, top_t,
                            gate_all)


# ---------------------------------------------------------------------------
# bit-string container
# ---------------------------------------------------------------------------

def test_bitstring_basics():
    bs = BitString(np.array([1, 0, 1, 1, 0], dtype=bool))
    assert len(bs) == 5
    assert bs.ones == 3
    assert bs == BitString(np.array([True, False, True, True, False]))
    assert "3/5" in repr(bs)


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def test_kmeans_deterministic_in_seed():
    rng = np.random.default_rng(101)
    x = rng.normal(size=(80, 6))
    a = kmeans_train(x, 8, max_iters=MAX_ITERS, seed=3)
    b = kmeans_train(x.copy(), 8, max_iters=MAX_ITERS, seed=3)
    assert np.array_equal(a, b)


def test_kmeans_objective_trace_non_increasing():
    rng = np.random.default_rng(103)
    for trial in range(5):
        x = rng.normal(size=(int(rng.integers(40, 120)), 5))
        trace = []
        kmeans_train(x, 6, max_iters=MAX_ITERS, seed=trial, trace=trace)
        assert len(trace) >= 1
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_kmeans_assignment_matches_brute_force():
    rng = np.random.default_rng(107)
    x = rng.normal(size=(90, 4))
    centroids = kmeans_train(x, 7, max_iters=MAX_ITERS, seed=1)
    fast = np.argmin(
        ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    slow = brute_distances(x, centroids).argmin(axis=1)
    assert np.array_equal(fast, slow)
    # converged centroids are the means of their own members
    for j in range(7):
        members = x[slow == j]
        assert members.shape[0] > 0
        assert np.allclose(centroids[j], members.mean(axis=0), atol=1e-9)


def test_kmeans_survives_duplicate_heavy_pool():
    # many exact duplicates force empty-cluster reseeds along the way
    base = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    x = np.repeat(base, 10, axis=0)
    trace = []
    centroids = kmeans_train(x, 5, max_iters=MAX_ITERS, seed=0, trace=trace)
    assert centroids.shape == (5, 2)
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    assert np.isfinite(centroids).all()


# ---------------------------------------------------------------------------
# k-means against the direct-form oracles: identical to the last bit
# ---------------------------------------------------------------------------

def random_pool(n, dim, seed):
    return np.random.default_rng(seed).normal(size=(n, dim))


def duplicate_pool(n, dim, levels, seed):
    """Coordinates on a grid of multiples of 0.1 (not exactly representable),
    so most rows repeat others exactly."""
    rng = np.random.default_rng(seed)
    return rng.integers(-levels, levels + 1, size=(n, dim)) * 0.1


def few_distinct_pool():
    # 3 distinct points for K = 5: seeding runs out of distance mass (the
    # uniform fallback) and Lloyd must reseed empty clusters
    base = np.array([[0.3, 0.1], [1.1, 0.7], [0.1, 1.9]])
    return np.repeat(base, 10, axis=0)


ORACLE_POOLS = [
    pytest.param(random_pool(60, 3, 1), 4, id="random-60x3-k4"),
    pytest.param(random_pool(300, 8, 2), 12, id="random-300x8-k12"),
    pytest.param(random_pool(500, 20, 3), 30, id="random-500x20-k30"),
    pytest.param(random_pool(40, 1, 4), 6, id="random-40x1-k6"),
    pytest.param(duplicate_pool(200, 3, 2, 5), 10, id="dup-200x3-k10"),
    pytest.param(duplicate_pool(400, 6, 1, 6), 25, id="dup-400x6-k25"),
    pytest.param(few_distinct_pool(), 5, id="few-distinct-k5"),
    pytest.param(random_pool(2000, 40, 7), 100, id="random-2000x40-k100"),
]


@pytest.mark.parametrize("x, k", ORACLE_POOLS)
def test_kmeanspp_init_matches_direct_form_oracle(x, k):
    for seed in range(3):
        want = kmeanspp_init_oracle(x, k, np.random.default_rng(seed))
        got = _kmeanspp_init(x, _sq_norms(x), k, np.random.default_rng(seed))
        assert np.array_equal(got, want), seed


@pytest.mark.parametrize("x, k", ORACLE_POOLS)
def test_kmeans_train_matches_lloyd_oracle(x, k):
    for seed in range(2):
        trace, want_trace = [], []
        got = kmeans_train(x, k, max_iters=MAX_ITERS, seed=seed, trace=trace)
        want = kmeans_train_oracle(x, k, max_iters=MAX_ITERS, seed=seed, trace=want_trace)
        assert np.array_equal(got, want), seed
        assert np.array_equal(trace, want_trace), seed
        assert np.array_equal(centroid_distances(x, got), distances_oracle(x, got))


@pytest.mark.parametrize("max_iters", [1, 2])
@pytest.mark.parametrize(
    "x, k", [(random_pool(300, 8, 11), 12), (few_distinct_pool(), 5)]
)
def test_kmeans_train_cut_at_max_iters_matches_oracle(x, k, max_iters):
    trace, want_trace = [], []
    got = kmeans_train(x, k, max_iters=max_iters, seed=4, trace=trace)
    want = kmeans_train_oracle(x, k, max_iters=max_iters, seed=4, trace=want_trace)
    assert np.array_equal(got, want)
    assert trace == want_trace and len(trace) <= max_iters


def test_kmeans_pool_errors():
    with pytest.raises(PoolTooSmall):
        kmeans_train(np.zeros((3, 2)), 4, MAX_ITERS, 0)
    with pytest.raises(PoolTooSmall):
        kmeans_train(np.zeros((3, 2)), 0, MAX_ITERS, 0)


@pytest.mark.parametrize("scale", [1e153, 1e200])
def test_kmeans_refuses_a_pool_whose_norms_overflow(scale):
    # finite rows, but the squared distances k-means sums would reach inf
    pool = random_pool(20, 2, 3) * scale
    with pytest.raises(LengthMismatch, match="squared row norms overflow"):
        kmeans_train(pool, 3, MAX_ITERS, 0)
    assert np.isfinite(kmeans_train(pool / scale * 1e150, 3, MAX_ITERS, 0)).all()


def test_kmeans_objective_value():
    x = np.array([[0.0], [1.0], [10.0]])
    centroids = np.array([[0.5], [10.0]])
    assert np.isclose(kmeans_objective(x, centroids), 0.25 + 0.25 + 0.0)


# ---------------------------------------------------------------------------
# boundary radii
# ---------------------------------------------------------------------------

def test_radii_brute_force_oracle():
    rng = np.random.default_rng(109)
    x = rng.normal(size=(40, 3))
    centroids = kmeans_train(x, 4, max_iters=MAX_ITERS, seed=2)
    n_boundary = 6
    got = estimate_radii(centroid_distances(x, centroids), n_boundary)
    d = brute_distances(x, centroids)
    assign = d.argmin(axis=1)
    for j in range(4):
        external = np.sort(d[assign != j, j])
        want = external[:n_boundary].mean()
        assert np.isclose(got[j], want, rtol=1e-12)


def test_radii_take_all_when_short():
    x = np.array([[0.0], [0.1], [5.0], [5.1]])
    centroids = np.array([[0.05], [5.05]])
    r = estimate_radii(centroid_distances(x, centroids), n_boundary=100)
    assert np.isclose(r[0], np.mean([4.95, 5.05]))
    assert np.isclose(r[1], np.mean([4.95, 5.05]))


def test_radii_degenerate_pool():
    x = np.zeros((5, 2))
    centroids = np.array([[0.0, 0.0], [9.0, 9.0]])
    with pytest.raises(DegeneratePool):
        estimate_radii(centroid_distances(x, centroids), 3)


# ---------------------------------------------------------------------------
# adjusted assignment
# ---------------------------------------------------------------------------

def test_adjusted_assignment_lets_a_wide_cluster_claim():
    centroids = np.array([[0.0], [10.0]])
    x = np.array([[4.0]])
    d = centroid_distances(x, centroids)
    # plain nearest is cluster 0, but cluster 1's wide boundary wins, with
    # adjusted distance 6 - 5 = 1
    radii = np.array([0.5, 5.0])
    assert cluster_cardinalities(d, radii).tolist() == [0, 1]
    cb = make_codebook(centroids, radii)
    assert encode(x, cb, 1.0 + 1e-9, 1, True).bits.tolist() == [False, True]
    assert encode(x, cb, 1.0 - 1e-9, 1, True).ones == 0
    # equal radii leave the plain nearest cluster in charge
    radii = np.array([0.5, 0.5])
    assert cluster_cardinalities(d, radii).tolist() == [1, 0]
    cb = make_codebook(centroids, radii)
    assert encode(x, cb, 100.0, 1, True).bits.tolist() == [True, False]


def test_adjusted_assignment_tie_goes_to_smallest_index():
    centroids = np.array([[0.0], [10.0]])
    x = np.array([[5.0]])
    d = centroid_distances(x, centroids)
    radii = np.array([1.0, 1.0])  # adjusted distance 4 to both
    assert cluster_cardinalities(d, radii).tolist() == [1, 0]
    cb = make_codebook(centroids, radii)
    assert encode(x, cb, 4.0 + 1e-9, 1, True).bits.tolist() == [True, False]
    assert encode(x, cb, 4.0 - 1e-9, 1, True).ones == 0
    assert encode(x, cb, 100.0, 1, False).bits.tolist() == [True, False]


def test_cardinalities_sum_and_oracle():
    rng = np.random.default_rng(113)
    x = rng.normal(size=(50, 2))
    centroids = kmeans_train(x, 5, max_iters=MAX_ITERS, seed=0)
    d = centroid_distances(x, centroids)
    radii = estimate_radii(d, 4)
    card = cluster_cardinalities(d, radii)
    assert card.sum() == 50
    adj = brute_distances(x, centroids) - radii[None, :]
    want = np.bincount(adj.argmin(axis=1), minlength=5)
    assert np.array_equal(card, want)


@pytest.mark.parametrize("x, k", ORACLE_POOLS)
def test_matrix_stages_match_vector_oracles(x, k):
    # every stage reads the one distance matrix; each oracle computes its own
    # from the vectors
    centroids = kmeans_train(x, k, max_iters=MAX_ITERS, seed=0)
    d = centroid_distances(x, centroids)
    radii = estimate_radii(d, 6)
    assert np.array_equal(radii, oracles.estimate_radii(x, centroids, 6))
    card = cluster_cardinalities(d, radii)
    assert np.array_equal(card, oracles.cluster_cardinalities(x, centroids, radii))
    cb = Codebook(centroids, radii, card)
    tau_s = float(np.median(d - radii))  # gates about half the nominations
    for rows in (x, x[:1], x[::7]):
        d = centroid_distances(rows, centroids)
        assert np.array_equal(distance_vector(d).values,
                              oracles.distance_vector(rows, cb).values)
        for top_t in (1, 3, k):
            for gate_all in (True, False):
                got = encode_bitstring(d, radii, tau_s, top_t, gate_all)
                want = oracles.encode_bitstring(rows, cb, tau_s, top_t, gate_all)
                assert got == want, (len(rows), top_t, gate_all)


def test_cardinality_weights_endpoints():
    w = cardinality_weights(np.array([10, 4, 7]))
    assert np.isclose(w[0], 0.0)
    assert np.isclose(w[1], 1.0)
    assert np.isclose(w[2], 0.5)
    ones = cardinality_weights(np.array([3, 3, 3]))
    assert ones.dtype == np.float64 and (ones == 1.0).all()


# ---------------------------------------------------------------------------
# bit conversion
# ---------------------------------------------------------------------------

def encode_oracle(x, codebook, tau_s, top_t, gate_all):
    bits = np.zeros(codebook.k, dtype=bool)
    for v in x:
        adj = [
            (np.sqrt(((v - codebook.centroids[j]) ** 2).sum()) - codebook.radii[j], j)
            for j in range(codebook.k)
        ]
        adj.sort()
        for rank, (value, j) in enumerate(adj[:top_t]):
            if not gate_all and rank > 0:
                bits[j] = True
            elif value < tau_s:
                bits[j] = True
    return bits


def test_encode_exhaustive_oracle_both_modes():
    rng = np.random.default_rng(127)
    for trial in range(10):
        dim = 4
        centroids = rng.normal(size=(12, dim))
        radii = rng.uniform(0.5, 2.0, size=12)
        x = rng.normal(size=(15, dim))
        cb = make_codebook(centroids, radii)
        for top_t in (1, 3, 5):
            for gate_all in (True, False):
                got = encode(x, cb, 0.2, top_t, gate_all)
                assert np.array_equal(got.bits, encode_oracle(x, cb, 0.2, top_t, gate_all))


def test_encode_best_only_ties_nominate_smaller_index():
    # the query at 0 sits exactly between centroid pairs, so adjusted
    # distances tie in pairs: (0, 1) at 0.5 and (2, 3) at 1.5
    centroids = [[1.0], [-1.0], [2.0], [-2.0], [9.0]]
    x = np.zeros((1, 1))
    cb = make_codebook(centroids, [0.5] * 5)
    for top_t in (1, 2, 3, 5):
        for tau_s in (0.0, 1.0):  # rank-1 gate shut, then open
            got = encode(x, cb, tau_s, top_t, False)
            assert np.array_equal(got.bits, encode_oracle(x, cb, tau_s, top_t, False))
    # rank 1 (cluster 0) fails the gate; ranks 2 and 3 are set outright
    assert encode(x, cb, 0.0, 3, False).bits.tolist() == [
        False, True, True, False, False
    ]


def test_encode_gate_blocks_distant_vectors():
    cb = make_codebook([[0.0], [10.0]], [0.5, 0.5])
    out = encode(np.array([[5.0]]), cb, -0.05, 2, True)
    assert out.ones == 0  # adjusted distances 4.5 both sides, gate shut
    near = encode(np.array([[0.1]]), cb, -0.05, 2, True)
    assert near.bits[0] and not near.bits[1]


def test_encode_empty_input():
    # an impression with no vectors: a (0, K) distance matrix
    out = encode_bitstring(np.zeros((0, 2)), np.array([0.1, 0.1]), -0.05, 5, True)
    assert len(out) == 2 and out.ones == 0


def test_distance_vector_oracle():
    rng = np.random.default_rng(131)
    centroids = rng.normal(size=(6, 3))
    x = rng.normal(size=(9, 3))
    dv = distance_vector(centroid_distances(x, centroids))
    want = brute_distances(x, centroids).min(axis=0)
    assert np.allclose(dv.values, want, rtol=1e-12)


def test_global_mean_two_stage():
    a = np.array([[1.0, 3.0], [3.0, 5.0]])
    b = np.array([[10.0, 0.0]])
    out = global_mean([a, b])
    # finger means (2,4) and (10,0), averaged with equal weight
    assert np.allclose(out, [6.0, 2.0])
    # a pooled mean would have been ((1+3+10)/3, (3+5+0)/3): not this
    assert not np.allclose(out, [14.0 / 3.0, 8.0 / 3.0])
