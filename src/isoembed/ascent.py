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
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .simplex import _project_in_place
from .spectral import top_k_eigenpairs, uniform_moment_matrix, weighted_moment_matrix
from .types import DirectionSet, OrthonormalBasis, SimplexWeights, as_unit_vector_set, check_k

logger = logging.getLogger(__name__)

DEGENERACY_TOL = 1e-8

# A _Support is built and added this many entries at a time.
_SUPPORT_CHUNK = 1 << 16


@dataclass(frozen=True)
class AscentConfig:
    """Knobs for run_projected_ascent: the iteration count ``T``, an int
    >= 0, and ``step_size``, a positive finite real number or "auto" for
    sqrt(2)/sqrt(nT). A bool is refused for either, as is a numeric string.
    """

    T: int = 120
    step_size: float | str = "auto"

    def __post_init__(self):
        T, eta = self.T, self.step_size
        if isinstance(T, bool) or not isinstance(T, (int, np.integer)) or T < 0:
            raise ValueError(f"iteration count must be an integer >= 0, got {T!r}")
        real = isinstance(eta, numbers.Real) and not isinstance(eta, bool)
        if not ((real and 0.0 < eta < math.inf) or (isinstance(eta, str) and eta == "auto")):
            raise ValueError(f"step size must be 'auto' or a positive finite number, got {eta!r}")


@dataclass(frozen=True)
class WorstDistortion:
    """The worst distortion epsilon = max_i phi_i, phi_i = 1 - ||V'x_i||^2
    clipped at 0, and argmax, the first index attaining it (0-based)."""

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
    distortion: WorstDistortion
    trace: list[IterationRecord]
    selected_iterate: str  # "best" or "average"
    lambda_selected: SimplexWeights
    best_dual_value: float
    step_size: float
    # The t = 0 (uniform-weight) iterate's distortion: bitwise the PCA baseline.
    pca_distortion: WorstDistortion
    average_record: IterationRecord | None = None
    fingerprint: str = ""
    degenerate_iterations: int = 0


def _worst_distortion(s) -> WorstDistortion:
    """The worst distortion of the squared projections s, without forming
    phi: epsilon is bitwise the max of phi = 1 - s clipped at 0, and argmax
    the first index attaining it."""
    i = int(np.argmin(s))
    # Rounding 1 - x is monotone, so epsilon is 1 - min(s) clipped at 0.
    epsilon = max(1.0 - float(s[i]), 0.0)
    if epsilon == 0.0:
        return WorstDistortion(0.0, 0)  # phi is all 0
    # An entry whose 1 - s_j rounds to epsilon too is within one spacing of
    # epsilon (at most 2^-52) of min(s), and 2^-51 keeps that margin once
    # the sum is rounded. The first such entry attains epsilon.
    near = np.flatnonzero(s <= s[i] + 2.0**-51)
    return WorstDistortion(epsilon, int(near[np.argmax(1.0 - s[near] == epsilon)]))


def _gradient(s, out=None):
    """The dual gradient -s at the squared projections s, written over s or
    into out. It is formed as 0 - s, so a zero s gives +0.0: a step then
    adds a zero weight's +0.0 or nothing to it alike."""
    g = np.subtract(0.0, s, out=s if out is None else out)
    # ||V'x||^2 <= 1 for unit x; clip fp excess so the Lipschitz bound
    # ||grad||_2 <= sqrt(n) holds literally.
    np.clip(g, -1.0, 0.0, out=g)
    return g


@dataclass(frozen=True)
class _Support:
    """A length-n weight vector kept by its nonzero entries: their indices,
    as int32 below 2^31 entries, and values, 12 bytes an entry. Both are
    built and read _SUPPORT_CHUNK entries at a time, so no temporary is as
    long as the support."""

    idx: np.ndarray
    val: np.ndarray
    n: int

    @classmethod
    def of(cls, lam):
        """The support of lam, a nonnegative vector (its positive entries)."""
        chunks = [lam[i : i + _SUPPORT_CHUNK] for i in range(0, lam.size, _SUPPORT_CHUNK)]
        # Tested as booleans: np.nonzero is several times slower on floats.
        size = sum(np.count_nonzero(c > 0.0) for c in chunks)
        idx = np.empty(size, np.int32 if lam.size <= 2**31 else np.intp)
        val = np.empty(size)
        a = 0
        for i, c in zip(range(0, lam.size, _SUPPORT_CHUNK), chunks):
            j = np.flatnonzero(c > 0.0)
            np.add(j, i, out=idx[a : a + j.size], casting="unsafe")
            np.take(c, j, out=val[a : a + j.size], mode="clip")
            a += j.size
        return cls(idx, val, lam.size)

    def add_to(self, y):
        """y += the weights, bit for bit."""
        for a in range(0, self.idx.size, _SUPPORT_CHUNK):
            # As intp: numpy indexes several times slower with int32.
            y[self.idx[a : a + _SUPPORT_CHUNK].astype(np.intp)] += self.val[a : a + _SUPPORT_CHUNK]

    def dense(self):
        lam = np.zeros(self.n)
        lam[self.idx] = self.val
        return lam


def _step(s, lam, eta, out=None):
    """lam + eta * _gradient(s), bit for bit, written over s or into out.
    lam is a length-n vector or a _Support."""
    y = _gradient(s, out)
    y *= eta
    if isinstance(lam, _Support):
        lam.add_to(y)
    else:
        y += lam
    return y


def primal_distortion(X, V) -> WorstDistortion:
    """Worst-case squared-length loss of projecting rows of X through V.

    phi_i = 1 - ||V'x_i||^2 clipped at 0; epsilon is the max, argmax the
    first index attaining it (0-based). Every phi_i is
    ``np.clip(1 - X.sq_proj(V), 0, None)``. V must have orthonormal
    columns; a raw array is checked by building an OrthonormalBasis from a
    copy of it. The worst is taken block by block as the projection
    computes them, so no length-n vector is held: a block's epsilon
    replaces the running one only when it is larger, which keeps the first
    index attaining the maximum.
    """
    X = as_unit_vector_set(X)
    if not isinstance(V, OrthonormalBasis):
        V = OrthonormalBasis(np.array(V, dtype=np.float64))
    if V.d != X.d:
        raise ShapeError(f"basis has shape {V.V.shape}, expected ({X.d}, k)")
    worst = WorstDistortion(0.0, 0)
    for a, s in X._sq_proj_blocks(V.V):
        block = _worst_distortion(s)
        if block.epsilon > worst.epsilon:
            worst = WorstDistortion(block.epsilon, int(a) + block.argmax)
    return worst


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
    return _gradient(X.sq_proj(state.basis.V))


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
    """An evaluated iterate: its worst distortion epsilon, attained first at
    argmax, and the dual g(lam) clipped to [0, epsilon]. lam is t = 0's
    zero-stride uniform view, a step's _Support or the average's vector;
    the iterate holds no other length-n vector."""

    lam: np.ndarray | _Support
    basis: OrthonormalBasis
    epsilon: float
    argmax: int
    dual: float
    degenerate: bool

    def record(self, t: int, best: _Iterate) -> IterationRecord:
        return IterationRecord(t, self.dual, self.epsilon, best.epsilon, self.degenerate)


def _evaluate(X, M, lam, k, out=None):
    """Eigendecompose M = M(lam) and score its basis: the iterate, and its
    squared projections s_i = ||V'x_i||^2, written into out (or a new
    vector), which feed the next step."""
    state = top_k_eigenpairs(M, k)
    s = X.sq_proj(state.basis.V, out)
    worst = _worst_distortion(s)
    # V spans the top-k eigenvectors of M(lam), so exactly
    # g(lam) = sum_i lam_i (1 - s_i) <= max_i (1 - s_i) <= epsilon:
    # a dual above epsilon is rounding.
    dual = float(np.clip(1.0 - state.eigenvalues.sum(), 0.0, worst.epsilon))
    degenerate = state.spectral_gap < DEGENERACY_TOL
    return _Iterate(lam, state.basis, worst.epsilon, worst.argmax, dual, degenerate), s


def run_projected_ascent(X: DirectionSet, k: int, cfg: AscentConfig) -> EmbeddingResult:
    """Algorithm driver: uniform start, T projected ascent steps, then the
    better of the best iterate and the average iterate.

    The t = 0 record is the uniform-weight (PCA) solution and participates
    in best tracking, so the result never embeds worse than PCA. With
    T = 0 the run is evaluation-only and returns that solution directly.
    """
    X = as_unit_vector_set(X)
    check_k(k, X.d)
    n = X.n
    T = cfg.T

    if cfg.step_size == "auto":
        eta = default_step_size(n, T) if T >= 1 else 0.0
    else:
        eta = float(cfg.step_size)

    # The uniform weights as a zero-stride view: pca holds no length-n
    # buffer. From step 1 on, one work vector s holds each step's s, then
    # its step, then its projection lam, then the next s, written over lam
    # once M(lam) is built: with lam_sum the loop holds two length-n
    # vectors. lam is kept by its support, for the next step and as the
    # best's.
    pca, s = _evaluate(X, uniform_moment_matrix(X), np.broadcast_to(1.0 / n, n), k)
    best = cur = pca
    trace = [pca.record(0, best)]
    support = 0  # summed over the steps: the moment kernel reads these rows
    for t in range(1, T + 1):
        if t == 1:
            # Step 1 is formed in a new vector, and t = 0's s is freed
            # before lam_sum is allocated. That one free of a length-n
            # vector lets glibc raise its mmap threshold above the steps'
            # block-sized temporaries, which it otherwise maps afresh at
            # every step: 53,600 minor faults in place of 1,400 on the
            # perfbench pairwise-solve input.
            s = _step(s, cur.lam, eta, out=np.empty(n))
            # Written, not calloc'ed as by np.zeros: the first += would fault
            # each fresh page twice, once to read the zero page and once to
            # write it.
            lam_sum = np.full(n, 0.0)
        else:
            _step(s, cur.lam, eta)
        del cur  # the spent support is freed unless it is best's
        lam = _project_in_place(s)
        lam_sum += lam
        cur = _evaluate(X, X.moment(lam), _Support.of(lam), k, out=lam)[0]
        del lam  # s now holds the next s
        support += cur.lam.idx.size
        if cur.epsilon < best.epsilon:
            best = cur
        trace.append(cur.record(t, best))
    del cur

    records = list(trace)
    selected = "best"
    if T >= 1:
        lam_sum /= T  # in place: the average weights
        logger.info(
            "lambda support: mean %.4f of n = %d over %d steps, average iterate %.4f",
            support / (T * n), n, T, np.count_nonzero(lam_sum) / n,
        )
        # The average's s is written over the last step's.
        avg = _evaluate(X, X.moment(lam_sum), lam_sum, k, out=s)[0]
        # Average wins ties: the best iterate is kept only on strict improvement.
        if not (best.epsilon < avg.epsilon):
            selected, best = "average", avg
        records.append(avg.record(T, best))
    del s

    n_degen = sum(r.degenerate for r in records)
    if n_degen:
        msg = "%d of %d evaluated iterates had a degenerate top-%d eigenspace"
        logger.warning(msg, n_degen, len(records), k)

    return EmbeddingResult(
        basis=best.basis,
        distortion=WorstDistortion(best.epsilon, best.argmax),
        trace=trace,
        selected_iterate=selected,
        lambda_selected=SimplexWeights(
            best.lam.dense() if isinstance(best.lam, _Support) else best.lam
        ),
        best_dual_value=max(r.dual_value for r in records),
        step_size=eta,
        pca_distortion=WorstDistortion(pca.epsilon, pca.argmax),
        average_record=records[-1] if T >= 1 else None,
        fingerprint=X.fingerprint(),
        degenerate_iterations=n_degen,
    )
