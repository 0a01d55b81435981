"""Projected gradient ascent on the dual of the max-distortion problem.

The dual objective g(w) = 1 - sum of the top-k eigenvalues of M(w) is
concave over the probability simplex. Each ascent step moves the weights
along the dual gradient, projects back onto the simplex, recovers the
candidate basis from the top-k eigenvectors of M, and scores its worst-case
distortion. The driver keeps the best iterate seen and finally compares it
against the average iterate, returning whichever embeds better.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .simplex import project_to_simplex
from .spectral import top_k_eigenpairs, weighted_moment_matrix
from .types import OrthonormalBasis, SimplexWeights, UnitVectorSet, unit_matrix

logger = logging.getLogger(__name__)

DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class AscentConfig:
    """Knobs for run_projected_ascent: the iteration count ``T`` and
    ``step_size``, a positive finite float or "auto" for sqrt(2)/sqrt(nT).
    """

    T: int = 120
    step_size: float | str = "auto"

    def __post_init__(self):
        if self.T < 0:
            raise ValueError(f"iteration count must be >= 0, got {self.T}")
        if self.step_size != "auto":
            try:
                ok = 0.0 < float(self.step_size) < math.inf
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError(
                    "step size must be 'auto' or a positive finite number, "
                    f"got {self.step_size!r}"
                )


@dataclass(frozen=True)
class DistortionReport:
    """Per-vector distortions phi_i = 1 - ||V'x_i||^2 and their maximum."""

    phi: np.ndarray
    epsilon: float
    argmax: int


@dataclass(frozen=True)
class IterationRecord:
    """One trace row: dual value and primal distortion of an iterate."""

    t: int
    dual_value: float
    primal_epsilon: float
    best_epsilon: float
    degenerate: bool


@dataclass(frozen=True)
class EmbeddingResult:
    """Outcome of a projected-ascent run."""

    basis: OrthonormalBasis
    distortion: DistortionReport
    trace: list[IterationRecord]
    selected_iterate: str  # "best" or "average"
    lambda_selected: SimplexWeights
    best_dual_value: float
    step_size: float
    # The t = 0 (uniform-weight) iterate's distortion: bitwise the PCA baseline.
    pca_distortion: DistortionReport
    average_record: IterationRecord | None = None
    fingerprint: str = ""
    degenerate_iterations: int = 0


def _squared_projections(Xm, Vm):
    """s_i = ||V'x_i||^2, the one X @ V product per iterate: phi = 1 - s, g = -s."""
    Y = Xm @ Vm
    return np.einsum("ij,ij->i", Y, Y)


def _distortion_report(s) -> DistortionReport:
    phi = 1.0 - s
    # phi is nonnegative in exact arithmetic; clear the roundoff dust.
    np.clip(phi, 0.0, None, out=phi)
    idx = int(np.argmax(phi))
    return DistortionReport(phi=phi, epsilon=float(phi[idx]), argmax=idx)


def _gradient(s):
    g = -s
    # ||V'x||^2 <= 1 for unit x; clip fp excess so the Lipschitz bound
    # ||grad||_2 <= sqrt(n) holds literally.
    np.clip(g, -1.0, 0.0, out=g)
    return g


def primal_distortion(X, V) -> DistortionReport:
    """Worst-case squared-length loss of projecting rows of X through V.

    phi_i = 1 - ||V'x_i||^2; epsilon is the max, argmax the first index
    attaining it (0-based). V must have orthonormal columns; a raw array is
    checked by building an OrthonormalBasis from a copy of it.
    """
    Xm = unit_matrix(X)
    if not isinstance(V, OrthonormalBasis):
        V = OrthonormalBasis(np.array(V, dtype=np.float64))
    if V.d != Xm.shape[1]:
        raise ShapeError(f"basis has shape {V.V.shape}, expected ({Xm.shape[1]}, k)")
    return _distortion_report(_squared_projections(Xm, V.V))


def dual_objective(X, w, k: int) -> float:
    """g(w) = 1 - sum of the top-k eigenvalues of M(w).

    Evaluates the smooth extension at any finite weight vector, so callers
    may probe slightly off the simplex (finite differencing); on the
    simplex the value lies in [0, 1].
    """
    state = top_k_eigenpairs(weighted_moment_matrix(X, w), k)
    return float(1.0 - state.eigenvalues.sum())


def dual_gradient(X, w, k: int) -> np.ndarray:
    """Gradient of the dual objective: coordinate l is -||x_l' V||^2.

    Exact where the k-th spectral gap of M(w) is positive; with a
    degenerate gap it is a supergradient-style surrogate built from
    whichever eigenbasis the decomposition returned. Every coordinate lies
    in [-1, 0].
    """
    state = top_k_eigenpairs(weighted_moment_matrix(X, w), k)
    return _gradient(_squared_projections(unit_matrix(X), state.basis.V))


def default_step_size(n: int, T: int) -> float:
    """Theory step size sqrt(2)/(sqrt(n) sqrt(T)).

    sqrt(2) is the simplex diameter, sqrt(n) bounds the dual gradient norm.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if T < 1:
        raise ValueError(
            "cannot derive an automatic step size for T = 0; "
            "evaluation-only runs need an explicit step size"
        )
    return math.sqrt(2.0) / math.sqrt(float(n) * float(T))


def _evaluate(Xm, lam, k):
    """Eigendecompose M(lam) and score its basis; the returned s feeds the next step."""
    state = top_k_eigenpairs(weighted_moment_matrix(Xm, lam), k)
    s = _squared_projections(Xm, state.basis.V)
    dual = float(np.clip(1.0 - state.eigenvalues.sum(), 0.0, 1.0))
    degenerate = state.spectral_gap < DEGENERACY_TOL
    return state, s, _distortion_report(s), dual, degenerate


def run_projected_ascent(X: UnitVectorSet, k: int, cfg: AscentConfig) -> EmbeddingResult:
    """Algorithm driver: uniform start, T projected ascent steps, then the
    better of the best iterate and the average iterate.

    The t = 0 record is the uniform-weight (PCA) solution and participates
    in best tracking, so the result never embeds worse than PCA. With
    T = 0 the run is evaluation-only and returns that solution directly.
    """
    if not isinstance(X, UnitVectorSet):
        X = UnitVectorSet(np.asarray(X, dtype=np.float64))
    if not (1 <= k <= X.d):
        raise ValueError(f"k must be in [1, {X.d}], got {k}")
    Xm = X.X
    n = X.n
    T = cfg.T

    if cfg.step_size == "auto":
        eta = default_step_size(n, T) if T >= 1 else 0.0
    else:
        eta = float(cfg.step_size)

    lam = np.full(n, 1.0 / n)
    state, s, report, dual, degen = _evaluate(Xm, lam, k)
    pca_report = report
    best_eps, best_lam, best_basis, best_report = report.epsilon, lam, state.basis, report
    best_dual = dual
    trace = [IterationRecord(0, dual, report.epsilon, best_eps, degen)]

    lam_sum = np.zeros(n)
    for t in range(1, T + 1):
        lam = project_to_simplex(lam + eta * _gradient(s)).lam
        lam_sum += lam
        state, s, report, dual, degen = _evaluate(Xm, lam, k)
        if report.epsilon < best_eps:
            best_eps, best_lam, best_basis, best_report = (
                report.epsilon,
                lam,
                state.basis,
                report,
            )
        best_dual = max(best_dual, dual)
        trace.append(IterationRecord(t, dual, report.epsilon, best_eps, degen))

    average_record = None
    selected = "best"
    sel_lam, sel_basis, sel_report = best_lam, best_basis, best_report
    if T >= 1:
        lam_avg = lam_sum / T
        avg_state, _, avg_report, avg_dual, avg_degen = _evaluate(Xm, lam_avg, k)
        best_dual = max(best_dual, avg_dual)
        average_record = IterationRecord(
            T, avg_dual, avg_report.epsilon, min(best_eps, avg_report.epsilon), avg_degen
        )
        # Average wins ties: the best iterate is kept only on strict improvement.
        if not (best_eps < avg_report.epsilon):
            selected = "average"
            sel_lam, sel_basis, sel_report = lam_avg, avg_state.basis, avg_report

    n_degen = sum(r.degenerate for r in trace)
    if average_record is not None:
        n_degen += average_record.degenerate
    if n_degen:
        logger.warning(
            "%d of %d evaluated iterates had a degenerate top-%d eigenspace",
            n_degen,
            len(trace) + (average_record is not None),
            k,
        )

    return EmbeddingResult(
        basis=sel_basis,
        distortion=sel_report,
        trace=trace,
        selected_iterate=selected,
        lambda_selected=SimplexWeights(sel_lam),
        best_dual_value=best_dual,
        step_size=eta,
        pca_distortion=pca_report,
        average_record=average_record,
        fingerprint=X.fingerprint(),
        degenerate_iterations=n_degen,
    )
