"""Dimensionality reduction and descriptor fusion.

Both descriptor families are projected into low-dimensional principal
subspaces (one model per family, same target dimension), z-normalized per
vector, weighted, and concatenated into a single fused vector per minutia.
An impression travels as matrices, one row per minutia: :func:`project`
takes an ``(n, dim)`` matrix and :func:`fuse_matrix` returns the
``(n, 2 * n_p)`` fused matrix. :func:`fuse` and :func:`project` on a single
vector are the per-minutia reference forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LengthMismatch, RankDeficient, TooFewSamples

_RANK_TOL = 1e-10
# seed of the Lanczos start vector; a fixed start makes every fit repeat
# bit for bit
_LANCZOS_SEED = 0x5EED


@dataclass
class PcaModel:
    """Mean vector plus an orthonormal basis of principal directions.

    ``basis`` has one column per retained direction, ordered by decreasing
    ``explained_variance``. Each column's sign is fixed so its
    largest-magnitude component is positive, which makes training
    deterministic across runs and platforms.
    """

    mean: np.ndarray
    basis: np.ndarray  # (dim, n_components)
    explained_variance: np.ndarray

    @property
    def n_components(self) -> int:
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    for j in range(basis.shape[1]):
        k = int(np.argmax(np.abs(basis[:, j])))
        if basis[k, j] < 0.0:
            basis[:, j] = -basis[:, j]
    return basis


def _top_eigenpairs(sym: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` largest eigenpairs of a symmetric matrix, largest first.

    Implicitly restarted Lanczos (ARPACK) with ``tol=0`` iterates until the
    Ritz residuals reach machine precision, and never forms the eigenvectors
    that are thrown away. Its matrix-vector product is BLAS ``dsymv`` on one
    triangle of ``sym``, which reads half the memory of a full product. When
    ``k`` is a large share of the matrix order, or when Lanczos does not
    converge, the dense ``eigh`` solves instead.
    """
    # imported here: scipy.sparse.linalg adds about 0.3 s to the start of
    # every command, and only fitting needs it
    from scipy.linalg import blas
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    m = sym.shape[0]
    if 4 * k < m:
        # the transpose of the C-ordered symmetric matrix is itself, in the
        # Fortran order BLAS takes without a copy
        sym_f = sym.T
        op = LinearOperator(
            (m, m), matvec=lambda v: blas.dsymv(1.0, sym_f, v.ravel()), dtype=np.float64
        )
        # a random start: the all-ones vector lies in the null space of every
        # centred Gram matrix
        v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(m)
        try:
            evals, evecs = eigsh(op, k=k, which="LA", tol=0, v0=v0)
        except ArpackNoConvergence:
            pass
        else:
            order = np.argsort(evals)[::-1]
            return evals[order], evecs[:, order]
    evals, evecs = np.linalg.eigh(sym)
    order = np.argsort(evals)[::-1][:k]
    return evals[order], evecs[:, order]


def train_pca(samples: Sequence[np.ndarray] | np.ndarray, n_components: int) -> PcaModel:
    """Fit a principal-component model on row-vector samples.

    Uses the sample covariance (denominator ``n - 1``). When there are fewer
    samples than dimensions the eigenproblem is solved on the samples' Gram
    matrix instead of the full covariance, which is exact for the nonzero
    spectrum and far smaller. Only the ``n_components`` leading eigenpairs
    are computed (see :func:`_top_eigenpairs`). ``samples`` is not modified:
    the fit centres a copy (see :func:`train_pca_inplace`).

    Raises:
        TooFewSamples: fewer than 2 samples.
        RankDeficient: ``n_components`` exceeds what the samples can span
            (never more than ``min(n_samples - 1, dim)``).
    """
    x = np.array(samples, dtype=np.float64)
    if x.ndim != 2:
        x = np.vstack([np.asarray(s, dtype=np.float64).ravel() for s in samples])
    return train_pca_inplace(x, n_components)


def train_pca_inplace(x: np.ndarray, n_components: int) -> PcaModel:
    """:func:`train_pca` of an ``(n, dim)`` float64 matrix, centred in place.

    The caller hands ``x`` over: on return it holds the centred samples. No
    centred copy is made, so a large fit holds one sample matrix, not two.
    """
    n, dim = x.shape
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples, got {n}")
    if n_components < 1:
        raise RankDeficient(f"n_components must be >= 1, got {n_components}")
    achievable = min(n - 1, dim)
    if n_components > achievable:
        raise RankDeficient(
            f"{n_components} components requested, at most {achievable} achievable "
            f"from {n} samples of dimension {dim}"
        )

    mean = x.mean(axis=0)
    xc = x
    xc -= mean  # in place, as the caller allowed

    if n < dim:
        # Gram trick: eigenvectors of (Xc Xc^T) map onto covariance
        # eigenvectors through Xc^T, sharing the nonzero spectrum.
        lead, vecs = _top_eigenpairs(xc @ xc.T, n_components)
    else:
        lead, vecs = _top_eigenpairs((xc.T @ xc) / (n - 1), n_components)
    if lead[-1] <= _RANK_TOL * max(lead[0], 1.0):
        raise RankDeficient(
            f"{n_components} components requested but the samples' numerical "
            f"rank is lower"
        )
    if n < dim:
        basis = xc.T @ vecs
        basis /= np.linalg.norm(basis, axis=0)
        variance = lead / (n - 1)
    else:
        basis, variance = vecs, lead

    # C order, as a reloaded model has it: the memory layout picks the BLAS
    # kernel, and a different kernel rounds projections differently
    basis = np.ascontiguousarray(_fix_signs(basis))
    return PcaModel(mean=mean, basis=basis, explained_variance=variance)


def project(model: PcaModel, vectors: np.ndarray) -> np.ndarray:
    """Center on the model mean and project onto the basis.

    A vector gives its ``n_components`` coordinates. An ``(n, dim)`` matrix
    gives ``(n, n_components)`` as one product of the C-ordered centred rows,
    ``np.ascontiguousarray(x - mean) @ basis``: BLAS rounds a product by its
    shape and memory layout, so every caller that projects an impression's
    rows forms exactly this product.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2:
        v = x.ravel()
        if v.shape[0] != model.dim:
            raise LengthMismatch(f"vector length {v.shape[0]} != model dim {model.dim}")
        return model.basis.T @ (v - model.mean)
    if x.shape[1] != model.dim:
        raise LengthMismatch(f"vector length {x.shape[1]} != model dim {model.dim}")
    return np.ascontiguousarray(x - model.mean) @ model.basis


def znorm(vector: np.ndarray) -> np.ndarray:
    """Standardize a vector to mean 0, population-std 1 over its own entries.

    A constant vector has no scale to recover and maps to all zeros.
    """
    v = np.asarray(vector, dtype=np.float64).ravel()
    if v.shape[0] < 2:
        raise LengthMismatch(f"z-normalization needs length >= 2, got {v.shape[0]}")
    std = float(v.std())
    if std == 0.0:
        return np.zeros_like(v)
    return (v - v.mean()) / std


def _znorm_rows(matrix: np.ndarray) -> np.ndarray:
    """:func:`znorm` applied to every row; a constant row maps to zeros."""
    centred = matrix - matrix.mean(axis=1, keepdims=True)
    std = matrix.std(axis=1, keepdims=True)
    return np.divide(centred, std, out=np.zeros_like(centred), where=std != 0.0)


@dataclass
class FusedVector:
    """Weighted concatenation of both projected descriptors for one minutia."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()

    def __len__(self) -> int:
        return self.values.shape[0]


def fuse(
    minutia_part: np.ndarray,
    texture_part: np.ndarray,
    weight_m: float = 0.6,
    weight_t: float = 0.4,
) -> FusedVector:
    """Fuse the two projected descriptors of one minutia.

    Both parts are z-normalized independently, scaled by their fusion
    weights, and concatenated (minutia part first). The parts must have the
    same length, so either half can be recovered by position.
    """
    a = np.asarray(minutia_part, dtype=np.float64).ravel()
    b = np.asarray(texture_part, dtype=np.float64).ravel()
    if a.shape[0] != b.shape[0]:
        raise LengthMismatch(
            f"projected parts differ in length: {a.shape[0]} vs {b.shape[0]}"
        )
    return FusedVector(np.concatenate([weight_m * znorm(a), weight_t * znorm(b)]))


def fuse_matrix(
    minutia_part: np.ndarray,
    texture_part: np.ndarray,
    weight_m: float = 0.6,
    weight_t: float = 0.4,
) -> np.ndarray:
    """Fuse the projected descriptors of a whole impression, row by row.

    Row ``i`` is :func:`fuse` of row ``i`` of both ``(n, n_p)`` parts.
    """
    a = np.asarray(minutia_part, dtype=np.float64)
    b = np.asarray(texture_part, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise LengthMismatch(
            f"projected parts must be matrices of one shape: {a.shape} vs {b.shape}"
        )
    if a.shape[1] < 2:
        raise LengthMismatch(f"z-normalization needs length >= 2, got {a.shape[1]}")
    return np.concatenate([weight_m * _znorm_rows(a), weight_t * _znorm_rows(b)], axis=1)
