"""Dimensionality reduction and descriptor fusion.

Both descriptor families are projected into low-dimensional principal
subspaces (one model per family, same target dimension), z-normalized per
vector, weighted, and concatenated into a single fused vector per minutia.
An impression travels as matrices, one row per minutia: :func:`project`
takes an ``(n, dim)`` matrix and :func:`fuse_matrix` returns the
``(n, 2 * n_p)`` fused matrix of the projections the pipeline has just made,
unchecked and not exported. :func:`fuse` is its checked one-row view, kept as
an API name; nothing in the package calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (ArrayRecord, LengthMismatch, MalformedHeader, RankDeficient,
                     TooFewSamples, check_arrays, check_squares)

_RANK_TOL = 1e-10
# seed of the Lanczos start vector; a fixed start makes every fit repeat
# bit for bit
_LANCZOS_SEED = 0x5EED


@dataclass(eq=False, frozen=True)
class PcaModel(ArrayRecord):
    """Mean vector plus an orthonormal basis of principal directions.

    ``basis`` has one column per retained direction, ordered by decreasing
    ``explained_variance``. Each column's sign is fixed so its
    largest-magnitude component is positive, which makes training
    deterministic across runs and platforms.
    """

    mean: np.ndarray  # (dim,)
    basis: np.ndarray  # (dim, n_components)
    explained_variance: np.ndarray  # (n_components,)

    def __post_init__(self):
        check_arrays(self, MalformedHeader, basis=(float, "dim", "n"), mean=(float, "dim"),
                     explained_variance=(float, "n"))

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
    ``k`` is a large share of the matrix order, or when ARPACK fails (say, no
    convergence, or a zero ``sym``), the dense ``eigh`` solves instead.
    """
    # imported here: scipy.sparse.linalg adds about 0.3 s to the start of
    # every command, and only fitting needs it
    from scipy.linalg import blas
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

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
        except ArpackError:  # ArpackNoConvergence among others
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
        LengthMismatch: ``samples`` is not a finite matrix, or its products overflow.
    """
    [x] = check_arrays(locals(), LengthMismatch, samples=(float, None, None))
    return train_pca_inplace(x.copy(), n_components)


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

    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        mean = x.mean(axis=0)
        xc = x
        xc -= mean  # in place, as the caller allowed
        # Gram trick: eigenvectors of (Xc Xc^T) map onto covariance
        # eigenvectors through Xc^T, sharing the nonzero spectrum.
        sym = xc @ xc.T if n < dim else xc.T @ xc
        if n >= dim:
            sym /= n - 1  # in place: one (dim, dim) matrix, not two
    # by Cauchy-Schwarz the diagonal bounds every other entry
    if not np.isfinite(sym.diagonal()).all():
        raise LengthMismatch("samples' products overflow float64")
    lead, vecs = _top_eigenpairs(sym, n_components)
    del sym  # the Gram or covariance matrix does not outlive the eigensolve
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
    """Center an ``(n, dim)`` matrix on the model mean and project it onto the basis.

    Gives ``(n, n_components)`` as one product of the C-ordered centred rows,
    ``np.ascontiguousarray(x - mean) @ basis``: BLAS rounds a product by its
    shape and memory layout, so every caller that projects an impression's
    rows forms exactly this product.

    Raises:
        LengthMismatch: ``vectors`` is not a matrix with ``model.dim`` columns.
    """
    [x] = check_arrays(locals(), LengthMismatch, vectors=(float, None, model.dim))
    return np.ascontiguousarray(x - model.mean) @ model.basis


def _znorm_rows(matrix: np.ndarray) -> np.ndarray:
    """Each row standardized to mean 0, population std 1; a constant row maps to zeros.
    The std is ``np.std``'s formula on the centred rows, so each row mean is taken once."""
    centred = matrix - matrix.mean(axis=1, keepdims=True)
    std = np.sqrt((centred * centred).sum(axis=1, keepdims=True) / matrix.shape[1])
    return np.divide(centred, std, out=np.zeros_like(centred), where=std != 0.0)


def fuse_matrix(
    minutia_part: np.ndarray,
    texture_part: np.ndarray,
    weight_m: float,
    weight_t: float,
) -> np.ndarray:
    """Fuse the projected descriptors of a whole impression, row by row.

    Both ``(n, n_p)`` parts, ``n_p >= 2``, are z-normalized row by row, scaled
    by their fusion weights, and concatenated (minutia part first), so either
    half of a row can be recovered by position.
    """
    return np.concatenate([weight_m * _znorm_rows(minutia_part),
                           weight_t * _znorm_rows(texture_part)], axis=1)


def fuse(
    minutia_part: np.ndarray,
    texture_part: np.ndarray,
    weight_m: float,
    weight_t: float,
) -> np.ndarray:
    """:func:`fuse_matrix` of one minutia's two projected vectors.

    Raises:
        LengthMismatch: the parts are not two 1-d rows of one length >= 2, or overflow.
    """
    a, b = check_arrays(locals(), LengthMismatch, minutia_part=(float, "n_p"),
                        texture_part=(float, "n_p"))
    if a.shape[0] < 2:
        raise LengthMismatch(f"z-normalization needs length >= 2, got {a.shape[0]}")
    # a centred value is at most twice the largest, and its square sums no larger
    check_squares(LengthMismatch, 4.0, minutia_part=a, texture_part=b)
    return fuse_matrix(a[None, :], b[None, :], weight_m, weight_t)[0]
