"""Reference embeddings: PCA and seeded random orthonormal projections."""

from __future__ import annotations

import numpy as np

from .spectral import top_k_eigenpairs, uniform_moment_matrix
from .types import OrthonormalBasis, check_k


def pca_basis(X, k: int) -> OrthonormalBasis:
    """Top-k eigenvectors of the uniformly weighted second-moment matrix.

    This is exactly the t = 0 iterate of the ascent driver, so its
    distortion is the PCA reference the driver can only improve on. A
    UnitVectorSet shares that matrix with the driver and the bounds.
    """
    return top_k_eigenpairs(uniform_moment_matrix(X), k).basis


def random_orthonormal_basis(d: int, k: int, seed: int) -> OrthonormalBasis:
    """Seeded random d x k orthonormal basis.

    Generator is pinned for reproducibility: numpy default_rng(seed)
    (PCG64), one standard_normal((d, k)) draw, thin QR, then each column
    is flipped so the corresponding diagonal entry of R is positive. The
    same seed yields a bitwise-identical matrix.
    """
    check_k(k, d)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, k))
    Q, R = np.linalg.qr(A)
    Q = Q * np.where(np.diag(R) < 0.0, -1.0, 1.0)
    return OrthonormalBasis(Q)
