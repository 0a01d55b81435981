"""Core value types: point sets, direction sets, simplex weights and
orthonormal bases.

All types validate their invariants at construction and freeze the wrapped
arrays (``writeable=False``), so instances are safe to share between
threads. A float64 C-contiguous input is taken over, not copied: the
caller's array becomes read-only ("assignment destination is read-only" on
a later write), so a caller that keeps writing should pass ``X.copy()``.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError

# Row norms may deviate from 1 by this much before construction refuses the
# data outright; smaller deviations (above ROW_NORM_TOL) are silently
# renormalized as parsing roundoff.
RENORMALIZE_LIMIT = 1e-6

ROW_NORM_TOL = 1e-9
SIMPLEX_TOL = 1e-9
ORTHONORMAL_TOL = 1e-8


def as_float_matrix(a, name):
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be a 2-d matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"{name} must be non-empty, got shape {m.shape}")
    return m


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
    h = hashlib.sha256()
    h.update(("%dx%d;" % tuple(shape)).encode())
    for b in blocks:
        h.update(memoryview(b).cast("B"))
    return h.hexdigest()


def row_moment(Xm, w) -> np.ndarray:
    """sum_i w_i x_i x_i' = A'A with A = diag(sqrt(w)) X over the rows of
    positive weight only, for nonnegative w (unchecked). numpy computes A'A
    with BLAS syrk, which fills one triangle and mirrors it, so the result
    is exactly symmetric."""
    keep = w > 0.0
    A = np.compress(keep, Xm, axis=0)
    A *= np.sqrt(w[keep])[:, None]
    return A.T @ A


def row_sq_proj(Xm, V) -> np.ndarray:
    """s_i = ||V'x_i||^2 over the rows of Xm: one Xm @ V product."""
    Y = Xm @ V
    return np.einsum("ij,ij->i", Y, Y)


def check_unit_rows(X, labels=None):
    """The row norms of X and their largest deviation from 1. ContractError when
    it exceeds RENORMALIZE_LIMIT, naming the first row with a non-finite
    entry or else the worst row, 1-based: row i of X is row ``labels[i]``
    of the set it belongs to (row i by default). One read pass with no
    temporary of X's size: a NaN or inf entry, or one whose square
    overflows, leaves its row's norm non-finite."""
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    dev = np.abs(norms - 1.0)
    worst = dev.max()
    if not worst <= RENORMALIZE_LIMIT:
        bad = np.flatnonzero(~np.isfinite(norms))
        i = int(bad[0]) if bad.size else int(np.argmax(dev))
        row = i + 1 if labels is None else int(labels[i]) + 1
        if not np.isfinite(X[i]).all():
            raise ContractError(f"row {row} contains non-finite entries")
        raise ContractError(
            f"row {row} has norm {norms[i]:.6g}; rows must be unit length "
            f"(deviation {dev[i]:.3g} exceeds {RENORMALIZE_LIMIT:g})"
        )
    return norms, worst


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
    them: only through ``n``, ``d``, ``fingerprint()``, ``moment(w)``,
    ``sq_proj(V)`` and ``rows(idx)``. ``UnitVectorSet`` holds the rows;
    ``pairs.PairDifferenceSet`` holds the points whose normalised
    differences they are. The methods check nothing: callers check their
    arguments once, at the API boundary.
    """

    # M(uniform), kept by spectral.uniform_moment_matrix on first use.
    _uniform_moment: np.ndarray | None = None

    @property
    @abstractmethod
    def n(self) -> int: ...

    @property
    @abstractmethod
    def d(self) -> int: ...

    @abstractmethod
    def fingerprint(self) -> str:
        """matrix_fingerprint of the n x d matrix of the directions."""

    @abstractmethod
    def moment(self, w) -> np.ndarray:
        """M(w) = sum_i w_i x_i x_i', exactly symmetric, for a nonnegative
        length-n float64 vector w."""

    @abstractmethod
    def sq_proj(self, V) -> np.ndarray:
        """s_i = ||V'x_i||^2 for a d x k array V, as a new length-n vector."""

    @abstractmethod
    def rows(self, idx) -> np.ndarray:
        """The directions of the given row indices, as a new dense array."""


@dataclass(frozen=True)
class UnitVectorSet(DirectionSet):
    """An n x d matrix whose rows are unit-length direction vectors.

    Rows whose norm deviates from 1 by more than ``ROW_NORM_TOL`` but at
    most ``RENORMALIZE_LIMIT`` are renormalized (benign roundoff); larger
    deviations raise, since they indicate the wrong data was passed.
    A float64 C-contiguous ``X`` that needs no renormalising is kept without
    a copy and made read-only; pass ``X.copy()`` to keep writing to it.
    """

    X: np.ndarray
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)
    _uniform_moment: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        X = as_float_matrix(self.X, "X")
        norms, worst = check_unit_rows(X)
        if worst > ROW_NORM_TOL:
            X = X / norms[:, None]
        object.__setattr__(self, "X", _freeze(X))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def fingerprint(self) -> str:
        """matrix_fingerprint of the rows, hashed on first use only: the
        frozen rows cannot change afterwards."""
        if self._fingerprint is None:
            object.__setattr__(self, "_fingerprint", matrix_fingerprint(self.X))
        return self._fingerprint

    def moment(self, w) -> np.ndarray:
        return row_moment(self.X, w)

    def sq_proj(self, V) -> np.ndarray:
        return row_sq_proj(self.X, V)

    def rows(self, idx) -> np.ndarray:
        return self.X[idx]


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
