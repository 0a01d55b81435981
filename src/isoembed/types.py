"""Core value types: point sets, direction sets, simplex weights and
orthonormal bases.

All types validate their invariants at construction and freeze the wrapped
arrays (``writeable=False``), so instances are safe to share between
threads. A float64 C-contiguous input is taken over, not copied: the
caller's array becomes read-only ("assignment destination is read-only" on
a later write), so a caller that keeps writing should pass ``X.copy()``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, DegenerateVectorError, ShapeError

# Row norms may deviate from 1 by this much before construction refuses the
# data outright; smaller deviations (above ROW_NORM_TOL) are silently
# renormalized as parsing roundoff.
RENORMALIZE_LIMIT = 1e-6

ROW_NORM_TOL = 1e-9
SIMPLEX_TOL = 1e-9
ORTHONORMAL_TOL = 1e-8

# At most this many entries of X per block of the rows walk
# (_row_sq_proj_blocks): 2 MB of float64. The 42 moments of one 8000 x 300
# run (one BLAS thread) took 545, 491, 469 and 437 ms in blocks of 2^16,
# 2^17, 2^18 and 2^19 entries, and 474 ms as one product over a copy of the
# rows; 2^19 doubles the working set.
_ROW_BLOCK_ENTRIES = 1 << 18

# About this many entries per block of _row_norms and of the pair set's row
# blocks: 512 KB of float64, about an L2 cache.
_BLOCK_ENTRIES = 1 << 16

# The smallest normal float. A pair whose squared distance is below it is
# coincident, and a row whose norm is below its square root is divided by its
# largest entry before its norm.
_TINY = np.finfo(np.float64).tiny


def as_float_matrix(a, name):
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be a 2-d matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"{name} must be non-empty, got shape {m.shape}")
    return m


def check_k(k, d: int) -> None:
    """ValueError unless k is an int or numpy integer (not a bool) in [1, d]."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 1 <= k <= d:
        raise ValueError(f"k must be an integer in [1, {d}], got {k!r}")


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def matrix_fingerprint(m) -> str:
    """Content hash (sha256 hex) of a float matrix, shape included."""
    m = np.ascontiguousarray(np.asarray(m, dtype=np.float64))
    return blocks_fingerprint(m.shape, [m])


def blocks_fingerprint(shape, blocks) -> str:
    """matrix_fingerprint of the matrix of the given shape whose rows are
    the rows of ``blocks`` (C-contiguous float64 arrays), in order. Each
    block is hashed as it comes, so the matrix never exists whole."""
    # Imported here, not at the top: hashlib maps OpenSSL's libcrypto, about
    # 3.3 MB resident, and the first hash comes after the solve, so a
    # top-level import would hold it under the solve's peak.
    import hashlib

    h = hashlib.sha256()
    h.update(("%dx%d;" % tuple(shape)).encode())
    for b in blocks:
        h.update(memoryview(b).cast("B"))
    return h.hexdigest()


def _row_sq_proj_blocks(Xm, V, w=None, M=None, packed=True):
    """The walk of the rows of Xm (DirectionSet._sq_proj_blocks), in blocks
    of h rows of at most _ROW_BLOCK_ENTRIES entries: unless V is None,
    (a, s[a:a + h]) with s_i = ||V'x_i||^2 the row sums of the squares of
    the block's Xm @ V. Given w and M, the block's A'A, A = diag(sqrt(w)) X
    over its rows, is then added into M, from the weights as the caller
    leaves them once it has read the block. numpy computes each A'A with
    BLAS syrk, which fills one triangle and mirrors it, so each term and
    their sum are exactly symmetric. A walk's working set is one block.
    The rows' layout is the packed one, so ``packed`` changes nothing."""
    h = max(1, _ROW_BLOCK_ENTRIES // Xm.shape[1])
    for a in range(0, Xm.shape[0], h):
        if V is not None:
            Y = Xm[a : a + h] @ V
            s = np.einsum("ij,ij->i", Y, Y)
            del Y  # freed before the next block's product
            yield a, s
        if M is not None:
            A = Xm[a : a + h] * np.sqrt(w[a : a + h])[:, None]
            M += A.T @ A
            del A


def _walked_moment(walk, d, w) -> np.ndarray:
    """M(w) for packed weights w, as a new d x d array, summed into zeros
    by walk, a _sq_proj_blocks given no V."""
    M = np.zeros((d, d))
    for _ in walk(None, w, M, True):
        pass  # a walk given no V yields no block
    return M


def _row_norms(X) -> np.ndarray:
    """np.linalg.norm of each row of X, taken over blocks of rows of about
    _BLOCK_ENTRIES entries, so the squares formed are one block's, and each
    norm is bitwise that of one call over X. A row whose squares overflow
    has an infinite norm, one holding a NaN a NaN norm. The one row-norm
    rule of check_unit_rows and _normalize_in_place."""
    h = max(1, _BLOCK_ENTRIES // X.shape[1])
    norms = np.empty(X.shape[0])
    with np.errstate(over="ignore"):
        for a in range(0, len(X), h):
            norms[a : a + h] = np.linalg.norm(X[a : a + h], axis=1)
    return norms


def check_unit_rows(X) -> float:
    """The largest deviation from 1 of the row norms of X. ContractError when
    it exceeds RENORMALIZE_LIMIT, naming the first row with a non-finite
    entry or else the worst row, 1-based. The norms are _row_norms', as
    _normalize_in_place takes them, so the two agree on which rows are
    within ROW_NORM_TOL: one read pass with no temporary of X's size."""
    norms = _row_norms(X)
    dev = np.abs(norms - 1.0)
    worst = dev.max()
    if not worst <= RENORMALIZE_LIMIT:
        bad = np.flatnonzero(~np.isfinite(norms))
        i = int(bad[0]) if bad.size else int(np.argmax(dev))
        if not np.isfinite(X[i]).all():
            raise ContractError(f"row {i + 1} contains non-finite entries")
        raise ContractError(
            f"row {i + 1} has norm {norms[i]:.6g}; rows must be unit length "
            f"(deviation {dev[i]:.3g} exceeds {RENORMALIZE_LIMIT:g})"
        )
    return worst


def _normalize_in_place(M) -> bool:
    """Make the rows of M, a writeable C-contiguous float64 matrix, unit
    length in place: the one rule of UnitVectorSet, normalize_rows and
    ``embed --mode rows``. When every row's np.linalg.norm is within
    ROW_NORM_TOL of 1, M is left as it is and False returned. Otherwise
    every row is divided by its norm and True returned; a row whose norm
    overflows or is below sqrt(_TINY) (about 1.5e-154, the pair set's
    coincidence threshold) is divided by its largest absolute entry first.
    A row holding a NaN or an infinity raises ContractError, and then an
    all-zero row DegenerateVectorError, each naming the first such row
    (1-based), before any division; ShapeError unless M is a non-empty 2-d
    matrix. The norms are _row_norms', which check_unit_rows reads too."""
    as_float_matrix(M, "M")
    norms = _row_norms(M)
    if np.abs(norms - 1.0).max() <= ROW_NORM_TOL:
        return False
    odd = np.flatnonzero(~((norms >= np.sqrt(_TINY)) & (norms < np.inf)))
    top = np.abs(M[odd]).max(axis=1, initial=0.0)  # NaN or inf on a non-finite row
    bad = ~np.isfinite(top)
    if bad.any():
        raise ContractError(f"row {int(odd[np.argmax(bad)]) + 1} contains non-finite entries")
    if (top == 0.0).any():
        raise DegenerateVectorError(int(odd[np.argmax(top == 0.0)]) + 1)
    norms[odd] = 1.0
    M /= norms[:, None]
    M[odd] /= top[:, None]
    M[odd] /= np.linalg.norm(M[odd], axis=1)[:, None]
    return True


@dataclass(frozen=True)
class PointSet:
    """An r x d matrix of raw data points, one point per row. A float64
    C-contiguous input is taken over read-only; pass ``P.copy()`` to keep writing P."""

    points: np.ndarray

    def __post_init__(self):
        pts = as_float_matrix(self.points, "points")
        if not np.isfinite(pts).all():
            raise ContractError("point set contains non-finite entries")
        object.__setattr__(self, "points", _freeze(pts))

    @property
    def r(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


class DirectionSet(ABC):
    """n unit directions x_1..x_n in R^d, as the solver and the bounds read
    them: only through ``n``, ``d``, ``fingerprint()``, ``moment(w)`` and
    ``sq_proj(V)``. Both kernels are one walk of the set's blocks,
    ``_sq_proj_blocks``, which ``primal_distortion`` and the ascent read
    block by block, and which sums the moment of the weights the ascent
    steps; ``moment`` and ``sq_proj`` only gather what it computes.
    ``UnitVectorSet`` holds the rows; ``pairs.PairDifferenceSet`` holds the
    points whose normalised differences they are. The methods check
    nothing: callers check their arguments once, at the API boundary.

    The walk reads and steps weights, and yields its blocks of s, in its
    own layout: a vector of ``_layout_size`` entries, in which the entries
    of the n directions keep their order and any other entry, a pad, holds
    weight 0 and has s = 1. ``_to_layout``, ``_from_layout``,
    ``_packed_index`` and ``_packed_blocks`` convert to and from the packed
    order of the n directions; for rows the layout is the packed one.

    The directions cannot change, so this class computes two values on
    first use and keeps them: the fingerprint, hashed from the blocks of
    ``_unit_blocks()``, and M(uniform), which
    ``spectral.uniform_moment_matrix`` returns.
    """

    @property
    @abstractmethod
    def n(self) -> int: ...

    @property
    @abstractmethod
    def d(self) -> int: ...

    @abstractmethod
    def _unit_blocks(self):
        """The rows of the n x d matrix of the directions, in order, as
        C-contiguous float64 blocks."""

    @abstractmethod
    def _sq_proj_blocks(self, V, w=None, M=None, packed=False):
        """The set's one kernel, a walk over consecutive blocks of its
        layout. Unless V, a d x k array, is None, it yields (a, s[a:b])
        for each block of s_i = ||V'x_i||^2 in the layout, a vector the
        caller may overwrite, a its first entry. Given nonnegative float64
        weights w in the layout, or under ``packed`` a length-n vector in
        the packed order, which may be a read-only or zero-stride view,
        and a d x d float64 array M, it adds M(w) = sum_i w_i x_i x_i',
        exactly symmetric, into M, each block's share summed once the
        caller has read the block: a caller may step the block's weights in
        place, and M then gains the moment of the stepped weights."""

    @property
    def _layout_size(self) -> int:
        return self.n

    def _to_layout(self, w) -> np.ndarray:
        """Packed weights w in the walk's layout, as a new vector."""
        return np.array(w, dtype=np.float64)

    def _from_layout(self, lam) -> np.ndarray:
        """Weights lam in the walk's layout in the packed order: for rows,
        lam itself."""
        return lam

    def _packed_index(self, i: int) -> int:
        """The packed index of entry i of the layout, not a pad."""
        return i

    def _packed_blocks(self, blocks):
        """The walk's blocks (a, s[a:b]), in order, as blocks of the packed
        vector: for rows, the blocks themselves."""
        return blocks

    def moment(self, w) -> np.ndarray:
        """M(w) = sum_i w_i x_i x_i' for packed w, as a new d x d array: the
        walk's sum given no V."""
        return _walked_moment(self._sq_proj_blocks, self.d, w)

    def sq_proj(self, V) -> np.ndarray:
        """s_i = ||V'x_i||^2 for a d x k array V, as a new length-n float64
        vector in the packed order: the walk's blocks in place."""
        s = np.empty(self.n)
        for a, block in self._packed_blocks(self._sq_proj_blocks(V)):
            s[a : a + block.size] = block
        return s

    def fingerprint(self) -> str:
        """matrix_fingerprint of the n x d matrix of the directions."""
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        return blocks_fingerprint((self.n, self.d), self._unit_blocks())

    @cached_property
    def _uniform_moment(self) -> np.ndarray:
        # The uniform weights as a zero-stride view: no length-n buffer.
        M = self.moment(np.broadcast_to(1.0 / self.n, self.n))
        M.flags.writeable = False
        return M


@dataclass(frozen=True)
class UnitVectorSet(DirectionSet):
    """An n x d matrix whose rows are unit-length direction vectors.

    Rows whose norm deviates from 1 by more than ``ROW_NORM_TOL`` but at
    most ``RENORMALIZE_LIMIT`` are renormalized (benign roundoff) by the
    rule of ``normalize_rows``, on a copy, so the rows of a
    ``normalize_rows`` result are kept bit for bit; larger deviations raise,
    since they indicate the wrong data was passed. A float64 C-contiguous
    ``X`` that needs no renormalising is kept without a copy and made
    read-only; pass ``X.copy()`` to keep writing to it.
    """

    X: np.ndarray

    def __post_init__(self):
        X = as_float_matrix(self.X, "X")
        if check_unit_rows(X) > ROW_NORM_TOL:
            X = np.array(X, order="C")
            _normalize_in_place(X)
        object.__setattr__(self, "X", _freeze(X))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def _unit_blocks(self):
        return (self.X,)

    def _sq_proj_blocks(self, V, w=None, M=None, packed=False):
        return _row_sq_proj_blocks(self.X, V, w, M)


@dataclass(frozen=True)
class SimplexWeights:
    """Nonnegative weights lambda summing to 1 (dual variables)."""

    lam: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=np.float64)
        if lam.ndim != 1 or lam.size < 1:
            raise ShapeError("weights must be a non-empty 1-d vector")
        bad = first_bad_weight(lam)
        if bad:
            raise ContractError(bad)
        if abs(lam.sum() - 1.0) > SIMPLEX_TOL:
            raise ContractError(f"weights sum to {lam.sum():.12g}, not 1")
        object.__setattr__(self, "lam", _freeze(lam))


@dataclass(frozen=True)
class OrthonormalBasis:
    """A d x k matrix with orthonormal columns (the embedding map)."""

    V: np.ndarray

    def __post_init__(self):
        V = as_float_matrix(self.V, "V")
        if V.shape[1] > V.shape[0]:
            raise ShapeError(
                f"cannot have {V.shape[1]} orthonormal columns in dimension {V.shape[0]}"
            )
        gram_err = np.abs(V.T @ V - np.eye(V.shape[1])).max()
        if gram_err > ORTHONORMAL_TOL:
            raise ContractError(
                f"columns are not orthonormal (max |V'V - I| = {gram_err:.3g})"
            )
        object.__setattr__(self, "V", _freeze(V))

    @property
    def d(self) -> int:
        return self.V.shape[0]


def first_bad_weight(w) -> str | None:
    """The error text for the first (1-based) negative or NaN weight of a
    non-empty vector, "negative weight at index N" or "NaN weight at index
    N"; None when every weight is >= 0 (``-0.0`` included)."""
    if w.min() >= 0.0:
        return None
    i = int(np.argmax(~(w >= 0.0)))
    return f"{'NaN' if np.isnan(w[i]) else 'negative'} weight at index {i + 1}"


def as_unit_vector_set(X) -> DirectionSet:
    """X itself if it is a DirectionSet, else a UnitVectorSet of its rows.

    A raw input is checked exactly as the constructor checks it, but on a
    read-only view: a float64 C-contiguous array is neither copied nor
    taken over, so the caller can keep writing to it.
    """
    if isinstance(X, DirectionSet):
        return X
    view = np.asarray(X, dtype=np.float64).view()
    view.flags.writeable = False
    return UnitVectorSet(view)


def weights_vector(w) -> np.ndarray:
    """The raw weight vector behind SimplexWeights (or array passthrough)."""
    return w.lam if isinstance(w, SimplexWeights) else np.asarray(w, dtype=np.float64)
