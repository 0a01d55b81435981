"""Weighted second-moment matrix and its leading eigenpairs.

M(lambda) = sum_i lambda_i x_i x_i' is the d x d PSD matrix whose top-k
eigenpairs drive both the dual objective and the recovered embedding. n can
be huge, but dense rows build M from the rows of positive weight only, and
pair directions build it from an r x r Laplacian of their points.
Everything after it works on the d x d matrix, where a dense symmetric
eigendecomposition is the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .types import (
    DirectionSet,
    OrthonormalBasis,
    as_float_matrix,
    as_unit_vector_set,
    first_bad_weight,
    row_moment,
    weights_vector,
)

SYMMETRY_TOL = 1e-10

# Eigenvalues of a PSD-by-construction matrix may come out of LAPACK a hair
# negative; anything above this is clipped to zero, anything below it is
# left untouched (a symmetric matrix passed in directly may be indefinite).
NEGATIVE_CLIP = -1e-10


@dataclass(frozen=True)
class SpectralState:
    """Top-k eigenpairs of a symmetric matrix, eigenvalues descending.

    ``spectral_gap`` is mu_k - mu_{k+1} (with mu_{k+1} = 0 when k = d); a
    tiny gap means the top-k eigenspace, and hence the recovered basis, is
    not unique.
    """

    eigenvalues: np.ndarray
    basis: OrthonormalBasis
    spectral_gap: float


def weighted_moment_matrix(X, w) -> np.ndarray:
    """M = sum_i w_i x_i x_i' = A'A with A = diag(sqrt(w)) X, a d x d PSD matrix.

    The weights must be nonnegative but need not sum to 1; a negative or
    NaN weight raises ValueError naming its 1-based index. A holds only the
    rows of positive weight: a zero-weight row adds exactly 0 to M, so it is
    never read, and the time and temporary memory follow the support of w.
    With every weight positive A is every row in order. numpy
    computes A'A with BLAS syrk, which fills one triangle and mirrors it, so
    M is exactly symmetric. For unit rows and simplex weights, trace(M) = 1.
    M needs no unit rows, so raw rows are taken as they are, unchecked. A
    DirectionSet builds M itself (``DirectionSet.moment``) once the weights
    are checked.
    """
    if isinstance(X, DirectionSet):
        n, moment = X.n, X.moment
    else:
        Xm = as_float_matrix(X, "X")
        n, moment = Xm.shape[0], lambda w: row_moment(Xm, w)
    wv = weights_vector(w)
    if wv.ndim != 1 or wv.size != n:
        raise ShapeError(f"weight vector has length {wv.size}, expected {n}")
    bad = first_bad_weight(wv)
    if bad:
        raise ValueError(bad)
    return moment(wv)


def uniform_moment_matrix(X) -> np.ndarray:
    """M(uniform) = weighted_moment_matrix(X, 1/n), returned read-only.

    Its top-k eigenvectors are the PCA basis (the ascent's t = 0 iterate),
    and n times its eigenvalues are the squared singular values of X. Raw
    rows are checked; a DirectionSet builds the matrix on first use and
    keeps it, as it keeps its fingerprint: its directions cannot change.
    """
    X = as_unit_vector_set(X)
    if X._uniform_moment is None:
        M = X.moment(np.full(X.n, 1.0 / X.n))
        M.flags.writeable = False
        object.__setattr__(X, "_uniform_moment", M)
    return X._uniform_moment


def _canonical_signs(V):
    # Largest-magnitude entry of each column made positive; np.argmax takes
    # the lowest index on ties, which fixes the convention deterministically.
    idx = np.argmax(np.abs(V), axis=0)
    flip = V[idx, np.arange(V.shape[1])] < 0.0
    V = V.copy()
    V[:, flip] *= -1.0
    return V


def top_k_eigenpairs(M, k: int) -> SpectralState:
    """Largest k eigenvalues of a symmetric matrix with unit eigenvectors.

    Eigenvalues come back in descending order; each eigenvector's
    largest-magnitude entry is made positive so repeated runs agree bitwise.
    A matrix with a NaN or infinite entry, or one that is not symmetric to
    SYMMETRY_TOL, raises ContractError.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {M.shape}")
    d = M.shape[0]
    if not (1 <= k <= d):
        raise ValueError(f"k must be in [1, {d}], got {k}")
    if not np.isfinite(M).all():
        raise ContractError("matrix contains non-finite entries")
    asym = np.abs(M - M.T).max()
    if not asym <= SYMMETRY_TOL:  # written so that a NaN asym fails it
        raise ContractError(f"matrix is not symmetric (max |M - M'| = {asym:.3g})")
    evals, evecs = np.linalg.eigh(M)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    evals[(evals < 0.0) & (evals >= NEGATIVE_CLIP)] = 0.0
    next_val = evals[k] if k < d else 0.0
    top = evals[:k].copy()
    V = _canonical_signs(evecs[:, :k])
    return SpectralState(
        eigenvalues=top,
        basis=OrthonormalBasis(V),
        spectral_gap=float(top[-1] - next_val),
    )
