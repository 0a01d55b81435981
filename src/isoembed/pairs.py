"""Implicit pair directions: the C(r, 2) unit differences of r points, held
as the points and one squared length per pair, never as a C(r, 2) x d matrix.

Row (i, j), i < j, in row-major order, is u_ij = (p_i - p_j)/||p_i - p_j||.
With the centred points P_c = P - mean(P) and D_ij = ||p_i - p_j||^2:

- ``sq_proj``: s_ij = ||V'u_ij||^2 = ||Y_i - Y_j||^2 / D_ij with
  Y = P_c V (r x k), taken as differences of k-vectors one point at a time.
  The Gram expansion ||Y_i||^2 + ||Y_j||^2 - 2 Y_i'Y_j would cancel for
  close pairs.
- ``moment``: M(w) = sum_ij w_ij u_ij u_ij' = P_c' L P_c, L the graph
  Laplacian of the upper-triangular r x r matrix C with c_ij = w_ij / D_ij.
  With deg the row plus column sums of C, M = A'A - (G + G') where
  A = diag(sqrt(deg)) P_c and G = P_c' C P_c. Both terms are exactly
  symmetric, so M is.

Both forms lose digits in proportion to kappa_ij = max(|p_i - m|,
|p_j - m|) / ||p_i - p_j|| (about kappa u relative in s and kappa^2 u in
M, u the unit roundoff). A pair with kappa above KAPPA_LIMIT, or whose D_ij
is not a normal float, takes the exact route: its unit row is held dense,
built as the dense pair rows are, enters s and M directly and gets zero
Laplacian weight (D_ij is stored as inf).
"""

from __future__ import annotations

import numpy as np

from .errors import CoincidentPairError, ShapeError
from .types import (
    ROW_NORM_TOL,
    DirectionSet,
    PointSet,
    _freeze,
    blocks_fingerprint,
    check_unit_rows,
    row_moment,
    row_sq_proj,
)

# kappa above this sends a pair to the exact route. On the perfbench inputs
# the largest kappa is 19, so none of their pairs takes it.
KAPPA_LIMIT = 32.0

_TINY = np.finfo(np.float64).tiny
# Pair differences that sq_proj squares and sums per einsum call.
_CHUNK = 1 << 14


class DenseRowsNeeded(Exception):
    """An exact-route row is off unit length by more than ROW_NORM_TOL.
    UnitVectorSet renormalises every row of a matrix holding such a row,
    which only the dense pair build reproduces."""


def point_blocks(P):
    """(i, a, diffs, norms) for each point i < r - 1: its differences
    p_i - p_j to the later points j > i, their norms (np.linalg.norm), and
    the row a of pair (i, i + 1) in row-major order."""
    a = 0
    for i in range(P.shape[0] - 1):
        diffs = P[i] - P[i + 1 :]
        yield i, a, diffs, np.linalg.norm(diffs, axis=1)
        a += diffs.shape[0]


class PairDifferenceSet(DirectionSet):
    """The normalised pairwise differences of a PointSet of r >= 2 points.

    Construction reads every pair once, one point's differences at a time,
    and keeps one float per pair. It raises ShapeError for fewer than two
    points, CoincidentPairError naming the first coincident pair (1-based
    points, row-major order; a difference whose square underflows counts as
    coincident), ContractError as UnitVectorSet would for a row whose
    difference overflows, and DenseRowsNeeded when UnitVectorSet would
    renormalise the rows.
    """

    def __init__(self, points: PointSet):
        P = points.points
        r = P.shape[0]
        if r < 2:
            raise ShapeError("need at least 2 points to form pairwise differences")
        self.points = points
        self._centred = _freeze(P - P.mean(axis=0))
        reach = np.linalg.norm(self._centred, axis=1)
        self._sq = np.empty(r * (r - 1) // 2)
        labels, rows = [], []
        for i, a, diffs, norms in point_blocks(P):
            if not norms.all():
                raise CoincidentPairError((i + 1, i + 2 + int(np.argmin(norms))))
            sq = np.square(norms, out=self._sq[a : a + norms.size])
            exact = ~(
                (sq >= _TINY)
                & (sq < np.inf)
                & (KAPPA_LIMIT * norms >= np.maximum(reach[i], reach[i + 1 :]))
            )
            if exact.any():
                labels.append(a + np.flatnonzero(exact))
                rows.append(diffs[exact] / norms[exact, None])
                sq[exact] = np.inf
        self._labels = np.concatenate(labels) if labels else np.empty(0, dtype=np.intp)
        self._exact = np.concatenate(rows) if rows else np.empty((0, P.shape[1]))
        if labels and check_unit_rows(self._exact, self._labels)[1] > ROW_NORM_TOL:
            raise DenseRowsNeeded
        self._sq.flags.writeable = False
        sizes = np.arange(r - 1, 0, -1)
        self._starts = np.cumsum(sizes) - sizes  # the row of pair (i, i + 1)
        self._X = self._fingerprint = self._upper = None

    @property
    def n(self) -> int:
        return self._sq.size

    @property
    def d(self) -> int:
        return self.points.d

    def _unit_blocks(self):
        for _, a, diffs, norms in point_blocks(self.points.points):
            yield a, np.divide(diffs, norms[:, None], out=diffs)

    @property
    def X(self) -> np.ndarray:
        """The n x d unit rows, bit for bit those of the dense pair build,
        read-only. Built on first access and kept: C(r, 2) x d floats."""
        if self._X is None:
            X = np.empty((self.n, self.d))
            for a, block in self._unit_blocks():
                X[a : a + block.shape[0]] = block
            self._X = _freeze(X)
        return self._X

    def fingerprint(self) -> str:
        """matrix_fingerprint of ``X``, streamed one point's rows at a time
        and kept."""
        if self._fingerprint is None:
            blocks = (block for _, block in self._unit_blocks())
            self._fingerprint = blocks_fingerprint((self.n, self.d), blocks)
        return self._fingerprint

    def moment(self, w) -> np.ndarray:
        Pc = self._centred
        r = Pc.shape[0]
        if self._upper is None:  # the pairs' places in C, row-major like the pairs
            self._upper = np.triu(np.ones((r, r), dtype=bool), 1)
        C = np.zeros((r, r))
        C[self._upper] = w / self._sq
        deg = C.sum(axis=0)
        deg += C.sum(axis=1)
        A = Pc * np.sqrt(deg)[:, None]
        G = Pc.T @ (C @ Pc)
        M = A.T @ A
        M -= G + G.T
        if self._labels.size:
            M += row_moment(self._exact, w[self._labels])
        return M

    def sq_proj(self, V) -> np.ndarray:
        Y = self._centred @ V
        r = Y.shape[0]
        s = np.empty(self.n)
        # Point i's differences Y_j - Y_i, j > i, are the next r - 1 - i
        # entries of s. They are gathered in buf, squared and summed once it
        # is full: one einsum per point would cost more than the arithmetic.
        buf = np.empty((max(_CHUNK, r - 1), Y.shape[1]))
        lo = fill = 0
        for i in range(r - 1):
            if fill + r - 1 - i > len(buf):
                np.einsum("ij,ij->i", buf[:fill], buf[:fill], out=s[lo : lo + fill])
                lo, fill = lo + fill, 0
            np.subtract(Y[i + 1 :], Y[i], out=buf[fill : fill + r - 1 - i])
            fill += r - 1 - i
        np.einsum("ij,ij->i", buf[:fill], buf[:fill], out=s[lo : lo + fill])
        # Only exact-route pairs (D_ij = inf) can overflow or give inf/inf
        # here, and their entries are replaced below.
        with np.errstate(over="ignore", invalid="ignore"):
            s /= self._sq
        if self._labels.size:
            s[self._labels] = row_sq_proj(self._exact, V)
        return s

    def rows(self, idx) -> np.ndarray:
        idx = np.asarray(idx)
        i = np.searchsorted(self._starts, idx, side="right") - 1
        diffs = self.points.points[i] - self.points.points[idx - self._starts[i] + i + 1]
        return diffs / np.linalg.norm(diffs, axis=1)[:, None]
