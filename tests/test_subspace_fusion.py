"""Subspace training, projection, and descriptor fusion."""

import math

import numpy as np
import pytest

from fpbits.errors import LengthMismatch, RankDeficient, TooFewSamples
from fpbits.subspace_fusion import (
    PcaModel,
    fuse,
    fuse_matrix,
    project,
    train_pca,
    train_pca_inplace,
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


@pytest.mark.parametrize("n_samples", [12, 80])  # Gram and covariance branches
def test_train_pca_leaves_its_argument_alone(n_samples):
    rng = np.random.default_rng(69)
    x = rng.normal(loc=3.0, size=(n_samples, 30))
    before = x.copy()
    model = train_pca(x, 5)
    assert np.array_equal(x, before)
    # the list-of-vectors form too
    rows = list(x)
    train_pca(rows, 5)
    assert all(np.array_equal(r, b) for r, b in zip(rows, before))
    # the in-place fit gives the same model and leaves the centred samples
    owned = x.copy()
    inplace = train_pca_inplace(owned, 5)
    for name in ("mean", "basis", "explained_variance"):
        assert np.array_equal(getattr(inplace, name), getattr(model, name)), name
    assert np.array_equal(owned, x - model.mean)


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


# ---------------------------------------------------------------------------
# truncated (Lanczos) eigensolver against the full dense eigh
# ---------------------------------------------------------------------------

def dense_pca(x, k):
    """train_pca's variances and sign-fixed basis from the full ``eigh``."""
    n, dim = x.shape
    xc = x - x.mean(axis=0)
    if n < dim:
        evals, evecs = np.linalg.eigh(xc @ xc.T)
        variance = evals[::-1][:k] / (n - 1)
        basis = xc.T @ evecs[:, ::-1][:, :k]
        basis /= np.linalg.norm(basis, axis=0)
    else:
        evals, evecs = np.linalg.eigh(xc.T @ xc / (n - 1))
        variance = np.maximum(evals[::-1][:k], 0.0)
        basis = evecs[:, ::-1][:, :k].copy()
    for j in range(k):
        if basis[np.argmax(np.abs(basis[:, j])), j] < 0.0:
            basis[:, j] *= -1.0
    return variance, basis


def spectrum_samples(rng, n, dim, rank=15, noise=0.05):
    """Samples with ``rank`` well-separated leading directions plus noise."""
    scales = np.geomspace(10.0, 1.0, rank)
    signal = (rng.normal(size=(n, rank)) * scales) @ rng.normal(size=(rank, dim))
    return 3.0 + signal + noise * rng.normal(size=(n, dim))


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Counts calls to scipy's ``eigsh``; ``raise_no_convergence`` fails them.

    ``dsymv`` counts the one-triangle matrix-vector products the Lanczos
    operator ran.
    """
    import scipy.linalg.blas as blas
    import scipy.sparse.linalg as sla

    real, real_dsymv = sla.eigsh, blas.dsymv
    state = {"calls": 0, "dsymv": 0, "raise_no_convergence": False}

    def spy(*args, **kwargs):
        state["calls"] += 1
        state["v0"] = kwargs.get("v0")
        if state["raise_no_convergence"]:
            raise sla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))
        return real(*args, **kwargs)

    def dsymv_spy(*args, **kwargs):
        state["dsymv"] += 1
        return real_dsymv(*args, **kwargs)

    monkeypatch.setattr(sla, "eigsh", spy)
    monkeypatch.setattr(blas, "dsymv", dsymv_spy)
    return state


def assert_matches_dense(model, x, k):
    variance, basis = dense_pca(x, k)
    assert np.allclose(model.explained_variance, variance, rtol=1e-12, atol=0.0)
    assert np.max(np.abs(model.basis - basis)) <= 1e-10


@pytest.mark.parametrize(
    "n, dim",
    [(120, 300), (400, 80)],  # Gram (n < dim) and covariance branches
)
def test_lanczos_matches_dense_eigh(eigsh_calls, n, dim):
    x = spectrum_samples(np.random.default_rng(101), n, dim)
    model = train_pca(x, 10)
    assert eigsh_calls["calls"] == 1  # 4 * 10 < min(n, dim): Lanczos side
    assert eigsh_calls["dsymv"] > 10  # every Lanczos step ran the operator
    assert_matches_dense(model, x, 10)


def test_lanczos_with_ones_in_the_null_space(eigsh_calls):
    # mean-free rows make the all-ones vector a null vector of the
    # covariance (as it always is of the centred Gram matrix): a Lanczos
    # start there breaks down at the first step
    x = spectrum_samples(np.random.default_rng(103), 300, 60)
    x -= x.mean(axis=1, keepdims=True)
    xc = x - x.mean(axis=0)
    ones = np.ones(60) / math.sqrt(60)
    assert np.linalg.norm(xc.T @ xc @ ones) < 1e-9 * np.linalg.norm(xc) ** 2
    model = train_pca(x, 8)
    assert eigsh_calls["calls"] == 1
    v0 = eigsh_calls["v0"]
    assert abs(v0 @ ones) < 0.5 * np.linalg.norm(v0)
    assert_matches_dense(model, x, 8)


def test_lanczos_fit_repeats_bit_for_bit(eigsh_calls):
    x = spectrum_samples(np.random.default_rng(107), 100, 250)
    a = train_pca(x, 12)
    b = train_pca(x.copy(), 12)
    assert eigsh_calls["calls"] == 2
    for name in ("mean", "basis", "explained_variance"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_lanczos_rank_deficient(eigsh_calls):
    # rank 5 (after centring at most 5 nonzero eigenvalues), 12 requested
    x = spectrum_samples(np.random.default_rng(109), 100, 300, rank=5, noise=0.0)
    with pytest.raises(RankDeficient):
        train_pca(x, 12)
    assert eigsh_calls["calls"] == 1


@pytest.mark.parametrize("n, k", [(50, 6), (400, 12)])  # dense and Lanczos sides
def test_covariance_branch_rank_deficient(eigsh_calls, n, k):
    # n >= dim: the covariance branch. Rank 3 cannot supply k directions;
    # the trailing eigenvalues are round-off, not variance
    rng = np.random.default_rng(131)
    dim = 10 if n == 50 else 60
    x = rng.normal(size=(n, 3)) @ rng.normal(size=(3, dim))
    with pytest.raises(RankDeficient):
        train_pca(x, k)
    assert eigsh_calls["calls"] == (1 if 4 * k < dim else 0)
    assert train_pca(x, 3).explained_variance[-1] > 0.0


def test_lanczos_no_convergence_falls_back_to_dense(eigsh_calls):
    eigsh_calls["raise_no_convergence"] = True
    x = spectrum_samples(np.random.default_rng(113), 120, 300)
    model = train_pca(x, 10)
    assert eigsh_calls["calls"] == 1
    assert_matches_dense(model, x, 10)


def test_small_matrix_takes_dense_path(eigsh_calls):
    x = spectrum_samples(np.random.default_rng(127), 30, 90, rank=10)
    model = train_pca(x, 8)  # Gram order 30 <= 4 * 8
    assert eigsh_calls["calls"] == 0
    assert_matches_dense(model, x, 8)


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


def test_project_matrix_matches_rows():
    rng = np.random.default_rng(89)
    model = train_pca(rng.normal(size=(60, 9)), 4)
    x = rng.normal(loc=2.0, size=(25, 9))
    want = np.array([project(model, row) for row in x])
    got = project(model, x)
    assert got.shape == (25, 4)
    assert np.max(np.abs(got - want)) <= projection_tol(x, model)
    assert project(model, np.zeros((0, 9))).shape == (0, 4)
    with pytest.raises(LengthMismatch):
        project(model, np.zeros((3, 8)))


@pytest.mark.parametrize("n_rows", [1, 3, 7, 1000])
def test_project_matrix_is_bitwise_block_formula(n_rows):
    # the whole matrix is one block: one product of its C-ordered centred
    # rows; Fortran-ordered and strided inputs must give the same bytes
    rng = np.random.default_rng(107)
    model = train_pca(rng.normal(size=(80, 40)), 6)
    x = rng.normal(loc=1.5, size=(2 * n_rows, 40))
    for matrix in (x[:n_rows], np.asfortranarray(x[:n_rows]), x[::2]):
        want = np.ascontiguousarray(matrix - model.mean) @ model.basis
        assert project(model, matrix).tobytes() == want.tobytes()


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
