"""Projected gradient ascent on the dual of the max-distortion problem.

The dual objective g(w) = 1 - sum of the top-k eigenvalues of M(w) is
concave over the probability simplex. Each ascent step moves the weights
along the dual gradient, projects back onto the simplex, recovers the
candidate basis from the top-k eigenvectors of M, and scores its worst-case
distortion. The driver keeps the best iterate seen and finally compares it
against the average iterate, returning whichever embeds better. Raw rows
are checked as ``UnitVectorSet`` checks them, without taking them over.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .simplex import project_to_simplex
from .spectral import top_k_eigenpairs, uniform_moment_matrix, weighted_moment_matrix
from .types import DirectionSet, OrthonormalBasis, SimplexWeights, as_unit_vector_set

logger = logging.getLogger(__name__)

DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class AscentConfig:
    """Knobs for run_projected_ascent: the iteration count ``T``, an int
    >= 0 (a bool is refused), and ``step_size``, a positive finite float or
    "auto" for sqrt(2)/sqrt(nT).
    """

    T: int = 120
    step_size: float | str = "auto"

    def __post_init__(self):
        T = self.T
        if isinstance(T, bool) or not isinstance(T, (int, np.integer)) or T < 0:
            raise ValueError(f"iteration count must be an integer >= 0, got {T!r}")
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


def _squared_projections(X, Vm):
    """s_i = ||V'x_i||^2, the one projection pass per iterate: phi = 1 - s, g = -s."""
    return X.sq_proj(Vm)


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
    X = as_unit_vector_set(X)
    if not isinstance(V, OrthonormalBasis):
        V = OrthonormalBasis(np.array(V, dtype=np.float64))
    if V.d != X.d:
        raise ShapeError(f"basis has shape {V.V.shape}, expected ({X.d}, k)")
    return _distortion_report(_squared_projections(X, V.V))


def dual_objective(X, w, k: int) -> float:
    """g(w) = 1 - sum of the top-k eigenvalues of M(w).

    Evaluates the smooth extension at nonnegative weights that need not sum
    to 1, so callers may probe slightly off the simplex (finite
    differencing); on the simplex the value lies in [0, 1]. A negative or
    NaN weight raises ValueError.
    """
    state = top_k_eigenpairs(weighted_moment_matrix(as_unit_vector_set(X), w), k)
    return float(1.0 - state.eigenvalues.sum())


def dual_gradient(X, w, k: int) -> np.ndarray:
    """Gradient of the dual objective: coordinate l is -||x_l' V||^2.

    Exact where the k-th spectral gap of M(w) is positive; with a
    degenerate gap it is a supergradient-style surrogate built from
    whichever eigenbasis the decomposition returned. Every coordinate lies
    in [-1, 0]. The weights must be nonnegative but need not sum to 1.
    """
    X = as_unit_vector_set(X)
    state = top_k_eigenpairs(weighted_moment_matrix(X, w), k)
    return _gradient(_squared_projections(X, state.basis.V))


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


@dataclass(frozen=True)
class _Iterate:
    """An evaluated iterate; dual is g(lam) clipped to [0, 1]."""

    lam: np.ndarray
    basis: OrthonormalBasis
    report: DistortionReport
    dual: float
    degenerate: bool

    def record(self, t: int, best: _Iterate) -> IterationRecord:
        return IterationRecord(
            t, self.dual, self.report.epsilon, best.report.epsilon, self.degenerate
        )


def _evaluate(X, M, lam, k):
    """Eigendecompose M = M(lam) and score its basis. The squared
    projections s are returned beside the iterate: they feed the next step."""
    state = top_k_eigenpairs(M, k)
    s = _squared_projections(X, state.basis.V)
    dual = float(np.clip(1.0 - state.eigenvalues.sum(), 0.0, 1.0))
    degenerate = state.spectral_gap < DEGENERACY_TOL
    return _Iterate(lam, state.basis, _distortion_report(s), dual, degenerate), s


def run_projected_ascent(X: DirectionSet, k: int, cfg: AscentConfig) -> EmbeddingResult:
    """Algorithm driver: uniform start, T projected ascent steps, then the
    better of the best iterate and the average iterate.

    The t = 0 record is the uniform-weight (PCA) solution and participates
    in best tracking, so the result never embeds worse than PCA. With
    T = 0 the run is evaluation-only and returns that solution directly.
    """
    X = as_unit_vector_set(X)
    if not (1 <= k <= X.d):
        raise ValueError(f"k must be in [1, {X.d}], got {k}")
    n = X.n
    T = cfg.T

    if cfg.step_size == "auto":
        eta = default_step_size(n, T) if T >= 1 else 0.0
    else:
        eta = float(cfg.step_size)

    # The uniform weights as a zero-stride view: pca holds no length-n buffer.
    pca, s = _evaluate(X, uniform_moment_matrix(X), np.broadcast_to(1.0 / n, n), k)
    best = cur = pca
    trace = [pca.record(0, best)]
    lam_sum = np.zeros(n)
    support = 0  # summed over the steps: the moment kernel reads these rows
    for t in range(1, T + 1):
        lam = project_to_simplex(cur.lam + eta * _gradient(s)).lam
        lam_sum += lam
        support += np.count_nonzero(lam)
        del cur, s  # spent: freed before the next moment build unless best or pca
        cur, s = _evaluate(X, X.moment(lam), lam, k)
        if cur.report.epsilon < best.report.epsilon:
            best = cur
        trace.append(cur.record(t, best))

    records = list(trace)
    selected = "best"
    if T >= 1:
        lam_sum /= T  # in place: the average weights
        logger.info(
            "lambda support: mean %.4f of n = %d over %d steps, average iterate %.4f",
            support / (T * n), n, T, np.count_nonzero(lam_sum) / n,
        )
        avg, _ = _evaluate(X, X.moment(lam_sum), lam_sum, k)
        # Average wins ties: the best iterate is kept only on strict improvement.
        if not (best.report.epsilon < avg.report.epsilon):
            selected, best = "average", avg
        records.append(avg.record(T, best))

    n_degen = sum(r.degenerate for r in records)
    if n_degen:
        msg = "%d of %d evaluated iterates had a degenerate top-%d eigenspace"
        logger.warning(msg, n_degen, len(records), k)

    return EmbeddingResult(
        basis=best.basis,
        distortion=best.report,
        trace=trace,
        selected_iterate=selected,
        lambda_selected=SimplexWeights(best.lam),
        best_dual_value=max(r.dual_value for r in records),
        step_size=eta,
        pca_distortion=pca.report,
        average_record=records[-1] if T >= 1 else None,
        fingerprint=X.fingerprint(),
        degenerate_iterations=n_degen,
    )
