"""Dual ascent for the max-distortion problem.

The dual objective g(w) = 1 - sum of the top-k eigenvalues of M(w) is
concave over the probability simplex, and its gradient at w is -s, the
squared projections s_i = ||V'x_i||^2 onto the top-k eigenvectors V of
M(w). Each ascent step is one of exponentiated-gradient, or entropic
mirror, ascent (Beck & Teboulle, Oper. Res. Lett. 2003): lam_i *
exp(-eta s_i), divided by its sum, which is the KL projection onto the
simplex. It needs no sort, and one walk over the directions does a whole
step: each block of s updates its block of lam as the projection computes
it, and the same walk then adds that block's share of the next moment, so
no length-n s exists and the directions are read once per step. The
paper's rule, lam + eta * gradient projected onto the simplex in the
Euclidean norm, is kept as a private reference (_paper_rule_ascent).

Each iterate's basis is recovered from the top-k eigenvectors of M and
scored by its worst-case distortion. The driver keeps the best iterate seen
and finally compares it against the average iterate, returning whichever
embeds better. Raw rows are checked as ``UnitVectorSet`` checks them,
without taking them over.
"""

from __future__ import annotations

import logging
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import ShapeError
from .simplex import _project_in_place
from .spectral import top_k_eigenpairs, uniform_moment_matrix, weighted_moment_matrix
from .types import DirectionSet, OrthonormalBasis, SimplexWeights, as_unit_vector_set, check_k

logger = logging.getLogger(__name__)

DEGENERACY_TOL = 1e-8

# The auto step is this multiple of sqrt(2 ln n / T), the step that
# minimises mirror ascent's regret bound for gradients in [-1, 0]. At 4
# every perfbench input certifies 14-19% tighter than under the paper's
# projected rule; at 8 rows-wide stays at its PCA value.
_ENTROPIC_STEP_SCALE = 4.0

# A step multiplies each weight by at least exp(-eta), and the largest
# weight is at least 1/n: up to this eta it stays positive.
_STEP_LIMIT = 700.0


@dataclass(frozen=True)
class AscentConfig:
    """Knobs for run_projected_ascent: the iteration count ``T``, an int
    >= 0, and ``step_size``, a positive finite real number at most 700, or
    "auto" (entropic_step_size). A bool is refused for either, as is a
    numeric string.
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
        if real and eta > _STEP_LIMIT:
            raise ValueError(f"step size must be at most 700, got {eta!r}")


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
    """Outcome of a dual-ascent run.

    ``lambda_selected``, the selected iterate's weights, is formed on first
    access and kept. An entropic run holds no step's weights, so it replays
    its passes from uniform weights: t of them for step t, bit for bit the
    loop's weights, and T for the average, the mean of lambda_1..lambda_T.
    The result therefore keeps a reference to the direction set. t = 0
    gives the uniform weights; the paper's rule hands over the vector it
    kept.
    """

    basis: OrthonormalBasis
    distortion: WorstDistortion
    trace: list[IterationRecord]
    selected_iterate: str  # "best" or "average"
    _form_lambda: Callable[[], np.ndarray] = field(repr=False, compare=False)
    best_dual_value: float
    step_size: float
    # The t = 0 (uniform-weight) iterate's distortion: bitwise the PCA baseline.
    pca_distortion: WorstDistortion
    average_record: IterationRecord | None = None
    fingerprint: str = ""
    degenerate_iterations: int = 0

    @cached_property
    def lambda_selected(self) -> SimplexWeights:
        return SimplexWeights(self._form_lambda())


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


def _gradient(s):
    """The dual gradient -s at the squared projections s, written over s.
    It is formed as 0 - s, so a zero s gives +0.0."""
    g = np.subtract(0.0, s, out=s)
    # ||V'x||^2 <= 1 for unit x; clip fp excess so the Lipschitz bound
    # ||grad||_2 <= sqrt(n) holds literally.
    np.clip(g, -1.0, 0.0, out=g)
    return g


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
    return _blockwise_worst(X, V.V)


def _blockwise_worst(X, V, lam=None, eta=0.0, M=None) -> WorstDistortion:
    """The worst distortion of the basis V over the blocks of the walk of
    X, as primal_distortion takes it, its argmax in the packed order. Given
    lam, in the walk's layout, each block then takes the entropic step over
    s (_entropic_step), and given M the walk adds the stepped weights'
    moment into it. A pad has s = 1, so it is never the worst."""
    worst = WorstDistortion(0.0, 0)
    for a, s in X._sq_proj_blocks(V, lam, M):
        if 1.0 - float(s.min()) > worst.epsilon:  # else the block cannot be worse
            block = _worst_distortion(s)
            worst = WorstDistortion(block.epsilon, int(a) + block.argmax)
        if lam is not None:
            _entropic_step(lam[a : a + s.size], s, eta)
    return WorstDistortion(worst.epsilon, X._packed_index(worst.argmax))


def _entropic_step(lam, s, eta):
    """lam *= exp(-eta * min(s, 1)) for s >= 0, written over s: bit for
    bit the dense update, block by block. The caller divides lam by its
    sum."""
    c = np.minimum(s, 1.0, out=s)
    c *= -eta
    lam *= np.exp(c, out=c)


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
    """Theory step size sqrt(2)/(sqrt(n) sqrt(T)) of the paper's rule.

    sqrt(2) is the simplex diameter, sqrt(n) bounds the dual gradient norm.
    """
    _check_auto_step(n, T)
    return math.sqrt(2.0) / math.sqrt(float(n) * float(T))


def entropic_step_size(n: int, T: int) -> float:
    """run_projected_ascent's auto step, 4 sqrt(2 ln n / T).

    sqrt(2 ln n / T) minimises mirror ascent's regret bound for the
    entropy, whose range on the simplex is ln n, and gradients in [-1, 0];
    the factor is _ENTROPIC_STEP_SCALE.
    """
    _check_auto_step(n, T)
    return _ENTROPIC_STEP_SCALE * math.sqrt(2.0 * math.log(n) / T)


def _check_auto_step(n, T):
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if T < 1:
        raise ValueError(
            "cannot derive an automatic step size for T = 0; "
            "evaluation-only runs need an explicit step size"
        )


@dataclass(frozen=True)
class _Iterate:
    """An evaluated iterate: its basis, its worst distortion epsilon,
    attained first at argmax, and the dual g(lam) clipped to [0, epsilon].
    It holds no length-n vector."""

    basis: OrthonormalBasis
    epsilon: float
    argmax: int
    dual: float
    degenerate: bool

    def record(self, t: int, best: _Iterate) -> IterationRecord:
        return IterationRecord(t, self.dual, self.epsilon, best.epsilon, self.degenerate)


def _iterate(state, worst):
    # V spans the top-k eigenvectors of M(lam), so exactly
    # g(lam) = sum_i lam_i (1 - s_i) <= max_i (1 - s_i) <= epsilon:
    # a dual above epsilon is rounding.
    dual = float(np.clip(1.0 - state.eigenvalues.sum(), 0.0, worst.epsilon))
    degenerate = state.spectral_gap < DEGENERACY_TOL
    return _Iterate(state.basis, worst.epsilon, worst.argmax, dual, degenerate)


def _evaluate(X, M, k):
    """Eigendecompose M and score its basis: the iterate, and its squared
    projections s_i = ||V'x_i||^2, which feed the next step."""
    state = top_k_eigenpairs(M, k)
    s = X.sq_proj(state.basis.V)
    return _iterate(state, _worst_distortion(s)), s


def _score(X, state):
    """The iterate of the eigenpairs state, its basis scored block by
    block."""
    return _iterate(state, _blockwise_worst(X, state.basis.V))


def _entropic_pass(X, state, lam, eta, moment=True):
    """Score the basis of the eigenpairs state of M(lam) block by block and
    step lam in place to the next weights, each block of s stepping its
    block of lam; the same walk sums the moment of the stepped weights.
    lam and the moment are then divided by the weights' sum: the iterate
    and the next weights' moment (None unless moment)."""
    M = np.zeros((X.d, X.d)) if moment else None
    worst = _blockwise_worst(X, state.basis.V, lam, eta, M)
    total = lam.sum()
    lam /= total
    if moment:
        M /= total
    return _iterate(state, worst), M


def _select(best, avg):
    """("average", avg) unless the best iterate embeds strictly better: the
    average wins ties."""
    if best.epsilon < avg.epsilon:
        return "best", best
    return "average", avg


def run_projected_ascent(X: DirectionSet, k: int, cfg: AscentConfig) -> EmbeddingResult:
    """Algorithm driver: uniform start, T entropic mirror ascent steps, then
    the better of the best iterate and the average iterate.

    The t = 0 record is the uniform-weight (PCA) solution and participates
    in best tracking, so the result never embeds worse than PCA. With
    T = 0 the run is evaluation-only and returns that solution directly.
    """
    return _run(X, k, cfg, _entropic_steps, entropic_step_size)


def _paper_rule_ascent(X: DirectionSet, k: int, cfg: AscentConfig) -> EmbeddingResult:
    """run_projected_ascent under the paper's rule, projected gradient
    ascent with default_step_size as its auto step: the reference that
    the tests hold the paper's claims and the entropic rule to."""
    return _run(X, k, cfg, _projected_steps, default_step_size)


def _run(X, k, cfg, steps, auto_step):
    X = as_unit_vector_set(X)
    check_k(k, X.d)
    T = cfg.T
    if cfg.step_size != "auto":
        eta = float(cfg.step_size)
    elif T < 1:
        eta = 0.0
    else:
        eta = auto_step(X.n, T)

    pca, trace, avg, selected, chosen, form_lambda = steps(X, k, T, eta)

    records = trace if avg is None else trace + [avg]
    n_degen = sum(r.degenerate for r in records)
    if n_degen:
        msg = "%d of %d evaluated iterates had a degenerate top-%d eigenspace"
        logger.warning(msg, n_degen, len(records), k)

    return EmbeddingResult(
        basis=chosen.basis,
        distortion=WorstDistortion(chosen.epsilon, chosen.argmax),
        trace=trace,
        selected_iterate=selected,
        _form_lambda=form_lambda,
        best_dual_value=max(r.dual_value for r in records),
        step_size=eta,
        pca_distortion=WorstDistortion(pca.epsilon, pca.argmax),
        average_record=avg,
        fingerprint=X.fingerprint(),
        degenerate_iterations=n_degen,
    )


def _projected_steps(X, k, T, eta):
    """The paper's rule: T projected gradient steps
    lam <- P(lam + eta * gradient) from uniform weights, lam dense. Returns
    t = 0's iterate, the trace, the average's record (None when T = 0), the
    selected iterate's name and iterate, and a function returning its
    weights, which it keeps."""
    n = X.n
    lam = np.broadcast_to(1.0 / n, n)
    pca, s = _evaluate(X, uniform_moment_matrix(X), k)
    best, best_lam = pca, lam
    trace = [pca.record(0, best)]
    lam_sum = np.zeros(n)
    for t in range(1, T + 1):
        lam = _project_in_place(lam + eta * _gradient(s))
        lam_sum += lam
        cur, s = _evaluate(X, X.moment(lam), k)
        if cur.epsilon < best.epsilon:
            best, best_lam = cur, lam
        trace.append(cur.record(t, best))
    if T < 1:
        return pca, trace, None, "best", best, lambda: best_lam
    lam_sum /= T  # in place: the average weights
    avg = _evaluate(X, X.moment(lam_sum), k)[0]
    selected, chosen = _select(best, avg)
    kept = lam_sum if selected == "average" else best_lam
    return pca, trace, avg.record(T, chosen), selected, chosen, lambda: kept


def _entropic_steps(X, k, T, eta):
    """Entropic mirror ascent: T steps lam <- lam * exp(-eta s) / sum from
    uniform weights. Returns as _projected_steps does, but the function
    forms the weights again (_replayed_lambda).

    The loop holds one length-n vector, lam, in the walk's layout
    (DirectionSet): a pair set pads it by at most about 1/16. Each pass
    over the blocks of s steps lam_t to lam_{t+1} in place and sums
    M(lam_{t+1}) in the same walk (_entropic_pass). M is linear in lam, so
    the average's moment is the mean of the steps' moments, and no sum of
    the weights is kept.
    """
    n = X.n
    M = uniform_moment_matrix(X)
    if T < 1:
        pca = _score(X, top_k_eigenpairs(M, k))
        return pca, [pca.record(0, pca)], None, "best", pca, partial(_replayed_lambda, X, k, eta, 0)
    # glibc raises its mmap threshold to the size of a mapped block when it
    # frees it, and its heap trim threshold to twice that. A vector 512
    # entries shorter than lam, freed untouched before lam is allocated,
    # puts the threshold just below lam: the passes' block-sized
    # temporaries then reuse the heap, where they would otherwise be
    # mapped afresh at every step (24,900 minor faults in place of 640 on
    # the perfbench pairwise-solve input), and lam stays mapped, so it
    # returns its pages when it is freed.
    np.empty(max(X._layout_size - 512, 0))
    lam = X._to_layout(np.broadcast_to(1.0 / n, n))
    M_sum = np.zeros((X.d, X.d))
    trace = []
    for t in range(T + 1):
        state = top_k_eigenpairs(M, k)
        if t:
            M_sum += M
        del M  # freed before the walk sums the next one
        if t < T:
            cur, M = _entropic_pass(X, state, lam, eta)
        else:  # the last pass forms no lam_{T+1}
            cur = _score(X, state)
        if t == 0:
            pca = best = cur
            best_t = 0
        elif cur.epsilon < best.epsilon:
            best, best_t = cur, t
        trace.append(cur.record(t, best))

    M_sum /= T  # in place: the average's moment
    avg = _score(X, top_k_eigenpairs(M_sum, k))
    selected, chosen = _select(best, avg)
    average = selected == "average"
    form = partial(_replayed_lambda, X, k, eta, T if average else best_t, average)
    return pca, trace, avg.record(T, chosen), selected, chosen, form


def _replayed_lambda(X, k, eta, t, average=False):
    """lam_t, formed again by re-running the first t passes of
    _entropic_steps from uniform weights, bit for bit the loop's; with
    average, the mean of lam_1..lam_t. Packed, as a new vector."""
    lam = X._to_layout(np.broadcast_to(1.0 / X.n, X.n))
    mean = np.zeros(X._layout_size) if average else None
    M = uniform_moment_matrix(X)
    for step in range(1, t + 1):
        M = _entropic_pass(X, top_k_eigenpairs(M, k), lam, eta, moment=step < t)[1]
        if average:
            mean += lam
    if average:
        del lam  # freed before the packed copy of the mean
        mean /= t
        return X._from_layout(mean)
    return X._from_layout(lam)
