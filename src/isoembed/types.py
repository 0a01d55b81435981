"""Core value types: point sets, unit-vector sets, simplex weights and
orthonormal bases.

All types validate their invariants at construction and freeze the wrapped
arrays (``writeable=False``), so instances are safe to share between
threads. A float64 C-contiguous input is taken over, not copied: the
caller's array becomes read-only ("assignment destination is read-only" on
a later write), so a caller that keeps writing should pass ``X.copy()``.
"""

from __future__ import annotations

import hashlib
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


def _as_float_matrix(a, name):
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
    h = hashlib.sha256()
    h.update(("%dx%d;" % m.shape).encode())
    h.update(memoryview(m).cast("B"))
    return h.hexdigest()


@dataclass(frozen=True)
class PointSet:
    """An r x d matrix of raw data points, one point per row. A float64
    C-contiguous input is taken over read-only; pass ``P.copy()`` to keep writing P."""

    points: np.ndarray

    def __post_init__(self):
        pts = _as_float_matrix(self.points, "points")
        if not np.isfinite(pts).all():
            raise ContractError("point set contains non-finite entries")
        object.__setattr__(self, "points", _freeze(pts))

    @property
    def r(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class UnitVectorSet:
    """An n x d matrix whose rows are unit-length direction vectors.

    Rows whose norm deviates from 1 by more than ``ROW_NORM_TOL`` but at
    most ``RENORMALIZE_LIMIT`` are renormalized (benign roundoff); larger
    deviations raise, since they indicate the wrong data was passed.
    A float64 C-contiguous ``X`` that needs no renormalising is kept without
    a copy and made read-only; pass ``X.copy()`` to keep writing to it.
    """

    X: np.ndarray
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)
    # M(uniform), kept by spectral.uniform_moment_matrix on first use.
    _uniform_moment: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        X = _as_float_matrix(self.X, "X")
        # One read pass with no n x d temporary. A NaN or inf entry, or one
        # whose square overflows, leaves its row's norm non-finite.
        norms = np.sqrt(np.einsum("ij,ij->i", X, X))
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
        V = _as_float_matrix(self.V, "V")
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


def as_unit_vector_set(X) -> UnitVectorSet:
    """X itself if it is a UnitVectorSet, else a UnitVectorSet of its rows.

    A raw input is checked exactly as the constructor checks it, but on a
    read-only view: a float64 C-contiguous array is neither copied nor
    taken over, so the caller can keep writing to it.
    """
    if isinstance(X, UnitVectorSet):
        return X
    view = np.asarray(X, dtype=np.float64).view()
    view.flags.writeable = False
    return UnitVectorSet(view)


def unit_matrix(X) -> np.ndarray:
    """The raw n x d array behind a UnitVectorSet, or raw rows as a float
    array, refused with ShapeError unless 2-d and non-empty."""
    return X.X if isinstance(X, UnitVectorSet) else _as_float_matrix(X, "X")


def weights_vector(w) -> np.ndarray:
    """The raw weight vector behind SimplexWeights (or array passthrough)."""
    return w.lam if isinstance(w, SimplexWeights) else np.asarray(w, dtype=np.float64)
