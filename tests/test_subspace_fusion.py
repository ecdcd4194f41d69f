"""Subspace training, projection, and descriptor fusion."""

import math

import numpy as np
import pytest

import fpbits.subspace_fusion as subspace_fusion
from fpbits.errors import LengthMismatch, RankDeficient, TooFewSamples
from fpbits.subspace_fusion import (
    FusedVector,
    PcaModel,
    fuse,
    fuse_matrix,
    project,
    stack_fused,
    train_pca,
    znorm,
)


def pairwise_distances(rows):
    x = np.asarray(rows)
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_full_rank_projection_preserves_distances():
    rng = np.random.default_rng(41)
    x = rng.normal(size=(50, 30))
    model = train_pca(x, 30)
    proj = np.stack([project(model, row) for row in x])
    d0 = pairwise_distances(x)
    d1 = pairwise_distances(proj)
    assert np.allclose(d0, d1, rtol=1e-6, atol=1e-9)


def test_truncation_never_increases_distances():
    rng = np.random.default_rng(43)
    x = rng.normal(size=(40, 25))
    model = train_pca(x, 8)
    proj = np.stack([project(model, row) for row in x])
    d0 = pairwise_distances(x)
    d1 = pairwise_distances(proj)
    assert (d1 <= d0 + 1e-9).all()


def test_gram_path_agrees_with_covariance_path():
    # same data, both solver branches: wide (n < dim, Gram) vs the same
    # samples embedded where n >= dim does not exist, so compare projected
    # distances against the exact full-rank isometry property instead
    rng = np.random.default_rng(47)
    x = rng.normal(size=(20, 60))  # Gram branch, rank 19
    model = train_pca(x, 19)
    proj = np.stack([project(model, row) for row in x])
    assert np.allclose(pairwise_distances(x), pairwise_distances(proj), rtol=1e-8)
    # basis orthonormality holds on both branches
    gram = model.basis.T @ model.basis
    assert np.allclose(gram, np.eye(19), atol=1e-9)

    y = rng.normal(size=(80, 12))  # covariance branch
    model2 = train_pca(y, 12)
    assert np.allclose(model2.basis.T @ model2.basis, np.eye(12), atol=1e-9)


def test_eigen_decomposition_oracle():
    # the retained directions diagonalize the sample covariance
    rng = np.random.default_rng(53)
    x = rng.normal(size=(100, 10)) @ np.diag(np.linspace(3.0, 0.5, 10))
    model = train_pca(x, 10)
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / (x.shape[0] - 1)
    evals = np.linalg.eigvalsh(cov)[::-1]
    assert np.allclose(model.explained_variance, evals, rtol=1e-9)
    recon = model.basis @ np.diag(model.explained_variance) @ model.basis.T
    assert np.allclose(recon, cov, atol=1e-9)


def test_variances_sorted_descending():
    rng = np.random.default_rng(59)
    x = rng.normal(size=(60, 15))
    model = train_pca(x, 15)
    assert (np.diff(model.explained_variance) <= 1e-12).all()


def test_sign_convention_deterministic():
    rng = np.random.default_rng(61)
    x = rng.normal(size=(30, 8))
    a = train_pca(x, 5)
    b = train_pca(x.copy(), 5)
    assert np.array_equal(a.basis, b.basis)
    for j in range(a.basis.shape[1]):
        k = int(np.argmax(np.abs(a.basis[:, j])))
        assert a.basis[k, j] > 0.0


def test_training_errors():
    rng = np.random.default_rng(67)
    with pytest.raises(TooFewSamples):
        train_pca(rng.normal(size=(1, 5)), 1)
    with pytest.raises(RankDeficient):
        train_pca(rng.normal(size=(10, 5)), 6)  # dim caps the rank
    with pytest.raises(RankDeficient):
        train_pca(rng.normal(size=(4, 20)), 4)  # n - 1 caps the rank
    with pytest.raises(RankDeficient):
        train_pca(rng.normal(size=(10, 5)), 0)
    # numerically rank-1 data cannot supply 2 directions on the Gram branch
    row = rng.normal(size=12)
    dup = np.stack([row * t for t in (1.0, 2.0, 3.0)])
    with pytest.raises(RankDeficient):
        train_pca(dup, 2)


def test_project_checks_length():
    rng = np.random.default_rng(71)
    model = train_pca(rng.normal(size=(20, 6)), 3)
    with pytest.raises(LengthMismatch):
        project(model, np.zeros(7))
    out = project(model, np.zeros(6))
    assert out.shape == (3,)


def test_project_centers_on_mean():
    rng = np.random.default_rng(73)
    x = rng.normal(loc=5.0, size=(40, 6))
    model = train_pca(x, 3)
    assert np.allclose(project(model, model.mean), np.zeros(3), atol=1e-12)


# ---------------------------------------------------------------------------
# z-normalization and fusion
# ---------------------------------------------------------------------------

def test_znorm_spot_values():
    out = znorm(np.array([1.0, 2.0, 3.0]))
    root = math.sqrt(3.0 / 2.0)  # population std of {1,2,3} is sqrt(2/3)
    assert np.allclose(out, [-root, 0.0, root], rtol=1e-12)
    assert abs(out.mean()) < 1e-12
    assert abs(out.std() - 1.0) < 1e-12


def test_znorm_constant_and_short():
    assert (znorm(np.full(5, 3.3)) == 0.0).all()
    with pytest.raises(LengthMismatch):
        znorm(np.array([1.0]))


def test_fuse_layout_and_weights():
    rng = np.random.default_rng(79)
    a = rng.normal(size=10)
    b = rng.normal(size=10)
    fused = fuse(a, b, 0.6, 0.4)
    assert len(fused) == 20
    assert np.allclose(fused.values[:10], 0.6 * znorm(a), rtol=1e-12)
    assert np.allclose(fused.values[10:], 0.4 * znorm(b), rtol=1e-12)


def test_fuse_length_mismatch():
    with pytest.raises(LengthMismatch):
        fuse(np.zeros(5), np.zeros(6))


def test_stack_fused():
    vs = [FusedVector(np.arange(4.0)), FusedVector(np.ones(4))]
    m = stack_fused(vs)
    assert m.shape == (2, 4)
    assert stack_fused([]).shape == (0, 0)
    ints = np.arange(6).reshape(3, 2)
    passed = stack_fused(ints)
    assert passed.dtype == np.float64 and np.array_equal(passed, ints)


# ---------------------------------------------------------------------------
# whole-impression matrices against the per-vector oracles
# ---------------------------------------------------------------------------

def projection_tol(x, model):
    # a dot product of length dim summed in another order: dim * eps per
    # unit of |x - mean| (the basis columns have unit norm)
    scale = np.abs(np.asarray(x) - model.mean).sum(axis=-1).max()
    return model.dim * np.finfo(np.float64).eps * scale


@pytest.mark.parametrize("n_samples", [12, 80])  # Gram and covariance branches
def test_basis_is_c_contiguous(n_samples):
    rng = np.random.default_rng(83)
    model = train_pca(rng.normal(size=(n_samples, 30)), 5)
    assert model.basis.flags.c_contiguous


def test_project_matrix_matches_rows(monkeypatch):
    rng = np.random.default_rng(89)
    model = train_pca(rng.normal(size=(60, 9)), 4)
    x = rng.normal(loc=2.0, size=(25, 9))
    want = np.array([project(model, row) for row in x])
    got = project(model, x)
    assert got.shape == (25, 4)
    assert np.max(np.abs(got - want)) <= projection_tol(x, model)
    # row blocks of 2 give the same coordinates
    monkeypatch.setattr(subspace_fusion, "_PROJECT_BLOCK_ELEMENTS", 2 * 9)
    assert np.max(np.abs(project(model, x) - want)) <= projection_tol(x, model)
    assert project(model, np.zeros((0, 9))).shape == (0, 4)
    with pytest.raises(LengthMismatch):
        project(model, np.zeros((3, 8)))


def test_fuse_matrix_matches_fuse_rows():
    rng = np.random.default_rng(97)
    a = rng.normal(size=(15, 6))
    b = rng.normal(scale=3.0, size=(15, 6))
    a[4] = 2.5  # constant rows map to zeros, as znorm does
    b[7] = 0.0
    got = fuse_matrix(a, b, 0.6, 0.4)
    want = np.array([fuse(ra, rb, 0.6, 0.4).values for ra, rb in zip(a, b)])
    assert got.shape == (15, 12)
    assert np.allclose(got, want, rtol=0.0, atol=1e-14)
    assert not got[4, :6].any() and not got[7, 6:].any()
    assert fuse_matrix(np.zeros((0, 6)), np.zeros((0, 6))).shape == (0, 12)


def test_fuse_matrix_shape_errors():
    with pytest.raises(LengthMismatch):
        fuse_matrix(np.zeros((3, 5)), np.zeros((3, 6)))
    with pytest.raises(LengthMismatch):
        fuse_matrix(np.zeros((3, 5)), np.zeros((2, 5)))
    with pytest.raises(LengthMismatch):
        fuse_matrix(np.zeros((3, 1)), np.zeros((3, 1)))
