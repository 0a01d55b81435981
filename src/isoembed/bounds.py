"""Singular-spectrum diagnostics and the computable approximation bounds.

For unit rows, sum sigma_i^2 = trace(XX') = n, which makes
1/(1 - sigma_1^2/n) a data-only upper bound on how far the recovered
distortion can sit above the unknown optimum; 1/(1 - kappa^2/l) is the
looser condition-number form. Rank-1 data (sigma_1^2 = n) makes both
bounds vacuous and is reported as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ascent import EmbeddingResult
from .errors import ContractError
from .spectral import uniform_moment_matrix
from .types import as_unit_vector_set

DEFAULT_RANK_TOL = 1e-10
SANDWICH_TOL = 1e-8


@dataclass(frozen=True)
class BoundReport:
    """Spectrum of X plus the two approximation-ratio bounds."""

    singular_values: np.ndarray  # descending, length d
    rank: int  # l: count of sigma_i > rank_tol * sigma_1
    kappa: float  # sigma_1 / sigma_l
    bound_sigma: float  # 1/(1 - sigma_1^2/n); inf when vacuous
    bound_kappa: float  # 1/(1 - kappa^2/l); inf when vacuous
    spectrum_sum_check: float  # sum_{i<=l} sigma_i^2, should equal n
    note: str | None = None
    fingerprint: str = ""


@dataclass(frozen=True)
class SandwichDiagnostic:
    """Outcome of the weak-duality sandwich check on a finished run."""

    epsilon: float
    best_dual: float
    certified_ratio: float | None  # epsilon / best_dual; None when 0/0
    exact_optimum: bool  # epsilon ~ 0 and dual ~ 0
    bound_sigma: float


def singular_spectrum(X, rank_tol: float = DEFAULT_RANK_TOL):
    """Singular values of X (descending), numerical rank and kappa.

    Computed as sigma_i^2 = n mu_i from the eigenvalues mu_i of the d x d
    matrix M(uniform) = X'X / n rather than from an n x d SVD: n dwarfs d in
    pairwise mode, and a DirectionSet keeps the M(uniform) that the ascent
    or PCA already built, so no row is read again; raw rows are checked.
    ``rank_tol`` must lie in [0, 1): at 1 or above no singular value would
    count towards the rank.
    """
    if not 0.0 <= rank_tol < 1.0:
        raise ValueError(f"rank tolerance must be in [0, 1), got {rank_tol!r}")
    X = as_unit_vector_set(X)
    evals = np.linalg.eigvalsh(uniform_moment_matrix(X))[::-1]
    sigma = np.sqrt(np.clip(X.n * evals, 0.0, None))
    rank = int(np.count_nonzero(sigma > rank_tol * sigma[0]))
    kappa = float(sigma[0] / sigma[rank - 1])
    return sigma, rank, kappa


def approximation_bound(X, rank_tol: float = DEFAULT_RANK_TOL) -> BoundReport:
    """Both spectrum-driven bounds on the achieved-vs-optimal ratio."""
    X = as_unit_vector_set(X)
    sigma, rank, kappa = singular_spectrum(X, rank_tol)
    spectrum_sum = float(np.square(sigma[:rank]).sum())
    note = None
    if rank == 1:
        # sigma_1^2 = n: every direction is the same line, the bound is void.
        bound_sigma = math.inf
        bound_kappa = math.inf
        note = "rank-1 data: sigma_1^2 = n, approximation bounds are undefined"
    else:
        denom_sigma = float(X.n) - sigma[0] ** 2
        bound_sigma = float(X.n) / denom_sigma if denom_sigma > 0.0 else math.inf
        denom_kappa = 1.0 - kappa**2 / rank
        bound_kappa = 1.0 / denom_kappa if denom_kappa > 0.0 else math.inf
    return BoundReport(
        singular_values=sigma,
        rank=rank,
        kappa=kappa,
        bound_sigma=bound_sigma,
        bound_kappa=bound_kappa,
        spectrum_sum_check=spectrum_sum,
        note=note,
        fingerprint=X.fingerprint(),
    )


def duality_sandwich_check(
    result: EmbeddingResult, report: BoundReport
) -> SandwichDiagnostic:
    """Verify best-dual <= achieved epsilon and report the certified ratio.

    The ratio epsilon/best_dual upper-bounds epsilon/optimum whenever the
    best dual value is positive. A finite-iteration dual value can
    undershoot the dual optimum, so a ratio above bound_sigma is not by
    itself an error. A violated sandwich, however, is impossible and raises
    ContractError.
    """
    if result.fingerprint != report.fingerprint:
        raise ValueError("result and bound report come from different data sets")
    eps = result.distortion.epsilon
    dual = result.best_dual_value
    if dual > eps + SANDWICH_TOL:
        raise ContractError(
            f"weak duality violated: best dual {dual:.12g} exceeds epsilon {eps:.12g}"
        )
    exact = eps <= SANDWICH_TOL and dual <= SANDWICH_TOL
    if exact:
        ratio = None
    elif dual > 0.0:
        ratio = eps / dual
    else:
        ratio = math.inf
    return SandwichDiagnostic(
        epsilon=eps,
        best_dual=dual,
        certified_ratio=ratio,
        exact_optimum=exact,
        bound_sigma=report.bound_sigma,
    )
