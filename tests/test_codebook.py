"""Codebook training, boundary radii, and bit conversion."""

import numpy as np
import pytest

from fpbits.codebook import (
    BitString,
    Codebook,
    DistanceVector,
    GATE_BEST_ONLY,
    GATE_PER_CANDIDATE,
    cardinality_weights,
    cluster_cardinalities,
    distance_vector,
    encode_bitstring,
    estimate_radii,
    global_mean,
    kmeans_objective,
    kmeans_train,
    nearest_cluster,
)
from fpbits.errors import (
    DegeneratePool,
    EmptyImage,
    EmptyTrainingSet,
    LengthMismatch,
    PoolTooSmall,
)


def brute_distances(x, centroids):
    out = np.empty((len(x), len(centroids)))
    for i, v in enumerate(x):
        for j, c in enumerate(centroids):
            out[i, j] = np.sqrt(((v - c) ** 2).sum())
    return out


def make_codebook(centroids, radii, tau_s=-0.05, top_t=5):
    c = np.asarray(centroids, dtype=np.float64)
    k = c.shape[0]
    return Codebook(
        centroids=c,
        radii=np.asarray(radii, dtype=np.float64),
        cardinalities=np.ones(k, dtype=np.int64),
        weights=np.ones(k),
        tau_s=tau_s,
        top_t=top_t,
        n_boundary=3,
    )


# ---------------------------------------------------------------------------
# bit-string container
# ---------------------------------------------------------------------------

def test_bitstring_basics():
    bs = BitString(np.array([1, 0, 1, 1, 0], dtype=bool))
    assert len(bs) == 5
    assert bs.ones == 3
    assert bs.template_length == 5
    assert bs == BitString(np.array([True, False, True, True, False]))
    assert bs != BitString(np.array([1, 0, 1, 1, 0], dtype=bool), template_length=10)
    assert "3/5" in repr(bs)


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def test_kmeans_deterministic_in_seed():
    rng = np.random.default_rng(101)
    x = rng.normal(size=(80, 6))
    a = kmeans_train(x, 8, seed=3)
    b = kmeans_train(x.copy(), 8, seed=3)
    assert np.array_equal(a, b)


def test_kmeans_objective_trace_non_increasing():
    rng = np.random.default_rng(103)
    for trial in range(5):
        x = rng.normal(size=(int(rng.integers(40, 120)), 5))
        trace = []
        kmeans_train(x, 6, seed=trial, trace=trace)
        assert len(trace) >= 1
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_kmeans_assignment_matches_brute_force():
    rng = np.random.default_rng(107)
    x = rng.normal(size=(90, 4))
    centroids = kmeans_train(x, 7, seed=1)
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
    centroids = kmeans_train(x, 5, seed=0, trace=trace)
    assert centroids.shape == (5, 2)
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    assert np.isfinite(centroids).all()


def test_kmeans_pool_errors():
    with pytest.raises(PoolTooSmall):
        kmeans_train(np.zeros((3, 2)), 4)
    with pytest.raises(PoolTooSmall):
        kmeans_train(np.zeros((3, 2)), 0)


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
    centroids = kmeans_train(x, 4, seed=2)
    n_boundary = 6
    got = estimate_radii(x, centroids, n_boundary)
    d = brute_distances(x, centroids)
    assign = d.argmin(axis=1)
    for j in range(4):
        external = np.sort(d[assign != j, j])
        want = external[:n_boundary].mean()
        assert np.isclose(got[j], want, rtol=1e-12)


def test_radii_take_all_when_short():
    x = np.array([[0.0], [0.1], [5.0], [5.1]])
    centroids = np.array([[0.05], [5.05]])
    r = estimate_radii(x, centroids, n_boundary=100)
    assert np.isclose(r[0], np.mean([4.95, 5.05]))
    assert np.isclose(r[1], np.mean([4.95, 5.05]))


def test_radii_degenerate_pool():
    x = np.zeros((5, 2))
    centroids = np.array([[0.0, 0.0], [9.0, 9.0]])
    with pytest.raises(DegeneratePool):
        estimate_radii(x, centroids, 3)
    with pytest.raises(ValueError):
        estimate_radii(x, centroids, 0)


# ---------------------------------------------------------------------------
# adjusted assignment
# ---------------------------------------------------------------------------

def test_nearest_cluster_radius_adjustment():
    centroids = np.array([[0.0], [10.0]])
    # plain nearest is cluster 0, but cluster 1's wide boundary wins
    idx, adj = nearest_cluster(np.array([4.0]), centroids, np.array([0.5, 5.0]))
    assert idx == 1
    assert np.isclose(adj, 6.0 - 5.0)
    idx, _ = nearest_cluster(np.array([4.0]), centroids, np.array([0.5, 0.5]))
    assert idx == 0


def test_nearest_cluster_tie_smallest_index():
    centroids = np.array([[0.0], [10.0]])
    idx, adj = nearest_cluster(np.array([5.0]), centroids, np.array([1.0, 1.0]))
    assert idx == 0 and np.isclose(adj, 4.0)


def test_cardinalities_sum_and_oracle():
    rng = np.random.default_rng(113)
    x = rng.normal(size=(50, 2))
    centroids = kmeans_train(x, 5, seed=0)
    radii = estimate_radii(x, centroids, 4)
    card = cluster_cardinalities(x, centroids, radii)
    assert card.sum() == 50
    adj = brute_distances(x, centroids) - radii[None, :]
    want = np.bincount(adj.argmin(axis=1), minlength=5)
    assert np.array_equal(card, want)


def test_cardinality_weights_endpoints():
    w = cardinality_weights(np.array([10, 4, 7]))
    assert np.isclose(w[0], 0.0)
    assert np.isclose(w[1], 1.0)
    assert np.isclose(w[2], 0.5)
    assert (cardinality_weights(np.array([3, 3, 3])) == 1.0).all()


# ---------------------------------------------------------------------------
# bit conversion
# ---------------------------------------------------------------------------

def encode_oracle(x, codebook, gate_mode):
    bits = np.zeros(codebook.k, dtype=bool)
    for v in x:
        adj = [
            (np.sqrt(((v - codebook.centroids[j]) ** 2).sum()) - codebook.radii[j], j)
            for j in range(codebook.k)
        ]
        adj.sort()
        for rank, (value, j) in enumerate(adj[: codebook.top_t]):
            if gate_mode == GATE_BEST_ONLY and rank > 0:
                bits[j] = True
            elif value < codebook.tau_s:
                bits[j] = True
    return bits


def test_encode_exhaustive_oracle_both_modes():
    rng = np.random.default_rng(127)
    for trial in range(10):
        dim = 4
        centroids = rng.normal(size=(12, dim))
        radii = rng.uniform(0.5, 2.0, size=12)
        x = rng.normal(size=(15, dim))
        for top_t in (1, 3, 5):
            for gate in (GATE_PER_CANDIDATE, GATE_BEST_ONLY):
                cb = make_codebook(centroids, radii, tau_s=0.2, top_t=top_t)
                got = encode_bitstring(x, cb, gate_mode=gate)
                assert np.array_equal(got.bits, encode_oracle(x, cb, gate))


def test_encode_best_only_ties_nominate_smaller_index():
    # the query at 0 sits exactly between centroid pairs, so adjusted
    # distances tie in pairs: (0, 1) at 0.5 and (2, 3) at 1.5
    centroids = [[1.0], [-1.0], [2.0], [-2.0], [9.0]]
    x = np.zeros((1, 1))
    for top_t in (1, 2, 3, 5):
        for tau_s in (0.0, 1.0):  # rank-1 gate shut, then open
            cb = make_codebook(centroids, [0.5] * 5, tau_s=tau_s, top_t=top_t)
            got = encode_bitstring(x, cb, gate_mode=GATE_BEST_ONLY)
            assert np.array_equal(got.bits, encode_oracle(x, cb, GATE_BEST_ONLY))
    cb = make_codebook(centroids, [0.5] * 5, tau_s=0.0, top_t=3)
    # rank 1 (cluster 0) fails the gate; ranks 2 and 3 are set outright
    assert encode_bitstring(x, cb, GATE_BEST_ONLY).bits.tolist() == [
        False, True, True, False, False
    ]


def test_encode_gate_blocks_distant_vectors():
    cb = make_codebook([[0.0], [10.0]], [0.5, 0.5], tau_s=-0.05, top_t=2)
    out = encode_bitstring(np.array([[5.0]]), cb)
    assert out.ones == 0  # adjusted distances 4.5 both sides, gate shut
    near = encode_bitstring(np.array([[0.1]]), cb)
    assert near.bits[0] and not near.bits[1]


def test_encode_empty_input():
    cb = make_codebook([[0.0], [1.0]], [0.1, 0.1])
    out = encode_bitstring([], cb)
    assert len(out) == 2 and out.ones == 0


def test_encode_rejects_unknown_mode():
    cb = make_codebook([[0.0]], [0.1])
    with pytest.raises(ValueError):
        encode_bitstring(np.zeros((1, 1)), cb, gate_mode="sometimes")


def test_distance_vector_oracle():
    rng = np.random.default_rng(131)
    centroids = rng.normal(size=(6, 3))
    cb = make_codebook(centroids, np.ones(6))
    x = rng.normal(size=(9, 3))
    dv = distance_vector(x, cb, subject_id="s1", impression_id="02")
    want = brute_distances(x, centroids).min(axis=0)
    assert np.allclose(dv.values, want, rtol=1e-12)
    assert dv.subject_id == "s1" and dv.impression_id == "02"
    with pytest.raises(EmptyImage):
        distance_vector([], cb)


def test_global_mean_two_stage():
    a1 = DistanceVector(np.array([1.0, 3.0]))
    a2 = DistanceVector(np.array([3.0, 5.0]))
    b1 = DistanceVector(np.array([10.0, 0.0]))
    out = global_mean([[a1, a2], [b1]])
    # finger means (2,4) and (10,0), averaged with equal weight
    assert np.allclose(out, [6.0, 2.0])
    # a pooled mean would have been ((1+3+10)/3, (3+5+0)/3): not this
    assert not np.allclose(out, [14.0 / 3.0, 8.0 / 3.0])


def test_global_mean_errors():
    with pytest.raises(EmptyTrainingSet):
        global_mean([])
    with pytest.raises(EmptyTrainingSet):
        global_mean([[]])
    with pytest.raises(LengthMismatch):
        global_mean([[DistanceVector(np.zeros(2)), DistanceVector(np.zeros(3))]])
