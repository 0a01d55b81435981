"""Implicit pair directions: the C(r, 2) unit differences of r points, held
as the points and one squared length per pair, never as a C(r, 2) x d matrix.

Row (i, j), i < j, in row-major order, is u_ij = (p_i - p_j)/||p_i - p_j||.
With the centred points P_c = P - mean(P) and D_ij = ||p_i - p_j||^2:

- ``sq_proj``: s_ij = ||V'u_ij||^2 = ||Y_i - Y_j||^2 / D_ij with
  Y = P_c V (r x k), each ||Y_i - Y_j||^2 by the Gram expansion
  |Y_i|^2 + |Y_j|^2 - 2 Y_i'Y_j, the entries of the product
  [Y, |Y|^2, 1] [-2Y, 1, |Y|^2]'. The expansion cancels when the pair is
  short against |Y_i| and |Y_j|, and can then come out below 0, so it is
  clamped at 0.
- ``moment``: M(w) = sum_ij w_ij u_ij u_ij' = P_c' L P_c, L the graph
  Laplacian of the upper-triangular r x r matrix C with c_ij = w_ij / D_ij.
  With deg the row plus column sums of C, M = A'A - (G + G') where
  A = diag(sqrt(deg)) P_c and G = P_c' C P_c. Both terms are exactly
  symmetric, so M is.

Both kernels are one walk, ``_sq_proj_blocks``, and neither forms an
r x r array. The walk takes the upper triangle in blocks of h rows, about
_BLOCK_ENTRIES entries each: rows a..b-1 are paired only with the columns
a+1..r-1, so the products skip the lower triangle, about half of a dense
r x r product's work. Given V, it computes the block
[Y, |Y|^2, 1][a:b] [-2Y, 1, |Y|^2][a+1:]' and gathers its upper entries,
the pairs lo..hi-1 of rows a..b-1, a run of rows of at most
_GATHER_ENTRIES pairs at a time. Given weights, once a block's pairs of s
are read, and their weights stepped, the block's Gram buffer takes w / D
of those pairs, scattered into the block C[a:b, a+1:]; the walk adds its
row and column sums to deg and writes the rows a..b-1 of C P_c. One
h x (r - 1) triangular template, sliced per block, does the gather and
the scatter. A walk's working set is one block besides its length-n input
or output.

Both forms lose digits in proportion to kappa_ij^2, kappa_ij = max(|p_i -
m|, |p_j - m|) / ||p_i - p_j||: s and M are off by about kappa^2 u, u the
unit roundoff. A pair with kappa above KAPPA_LIMIT takes the exact route:
its unit row is held dense, built as ``X`` builds it, enters s and M
directly and gets zero Laplacian weight (D_ij is stored as inf). A pair
whose D_ij overflows is refused.

A pair is coincident when D_ij is below the smallest normal float (points
closer than about 1.5e-154). Under ``dedup_policy="drop"`` each point that
coincides with an earlier kept point is dropped, and the set is that of the
kept points: every C(r, 2) pair of them, bit for bit the set built from the
points with the dropped ones deleted.
"""

from __future__ import annotations

import logging
from functools import cached_property

import numpy as np

from .errors import CoincidentPairError, ContractError, ShapeError
from .types import _BLOCK_ENTRIES, _TINY, DirectionSet, PointSet, UnitVectorSet, _freeze

# sq_proj gathers the upper entries of a block of rows this many at a time,
# at most: 256 KB of float64.
_GATHER_ENTRIES = 1 << 15

# kappa above this sends a pair to the exact route. On the perfbench inputs
# the largest kappa is 19, so none of their pairs takes it.
KAPPA_LIMIT = 32.0

logger = logging.getLogger(__name__)


def _point_blocks(P):
    """(i, a, diffs) for each point i < r - 1: its differences p_i - p_j to
    the later points j > i, and the row a of pair (i, i + 1) in row-major
    order."""
    a = 0
    for i in range(P.shape[0] - 1):
        diffs = P[i] - P[i + 1 :]
        yield i, a, diffs
        a += diffs.shape[0]


class PairDifferenceSet(DirectionSet):
    """The normalised pairwise differences of r >= 2 points: a PointSet, or
    an r x d array or nested list, which is copied into one.

    Construction reads every pair once, one point's differences at a time,
    and keeps one float per pair. Under ``dedup_policy="error"`` the first
    coincident pair raises CoincidentPairError naming it (1-based points,
    row-major order). Under ``"drop"`` each point that coincides with an
    earlier kept point is dropped with a warning, and the set is rebuilt on
    the kept points, which ``points`` then holds; CoincidentPairError((1,
    2)) is raised only when one point is left. It also raises ValueError for
    an unknown policy, ShapeError for fewer than two points, and, under
    either policy, ContractError naming the first pair of the given points
    whose squared distance overflows (1-based).
    """

    def __init__(self, points, dedup_policy: str = "error"):
        if dedup_policy not in ("error", "drop"):
            raise ValueError(f"unknown dedup policy {dedup_policy!r}")
        if not isinstance(points, PointSet):
            points = PointSet(np.array(points, dtype=np.float64))
        P = points.points
        r = P.shape[0]
        if r < 2:
            raise ShapeError("need at least 2 points to form pairwise differences")
        D = np.empty(r * (r - 1) // 2)
        keep = np.ones(r, dtype=bool)
        labels, rows = [], []
        # A difference, norm or square that overflows is inf: its pair is refused below.
        with np.errstate(over="ignore"):
            # The mean of P / 2^e, 2^e above max|P|, scaled back: no column sum overflows, and
            # the scaling is exact unless it makes a value subnormal.
            e = np.frexp(np.abs(P).max())[1]
            centred = P - np.ldexp(np.ldexp(P, -e).mean(axis=0), e)
            reach = np.linalg.norm(centred, axis=1)
            for i, a, diffs in _point_blocks(P):
                norms = np.linalg.norm(diffs, axis=1)
                sq = np.square(norms, out=D[a : a + norms.size])
                j = int(np.argmax(sq))  # the first inf, if any: the points are finite
                if sq[j] == np.inf:
                    raise ContractError(
                        f"points {i + 1} and {i + 2 + j} are too far apart: "
                        "their squared distance overflows"
                    )
                normal = sq >= _TINY
                exact = normal & (KAPPA_LIMIT * norms < np.maximum(reach[i], reach[i + 1 :]))
                if not normal.all():
                    if dedup_policy == "error":
                        raise CoincidentPairError((i + 1, i + 2 + int(np.argmin(normal))))
                    if keep[i]:  # a later copy of a kept point is dropped
                        keep[i + 1 :] &= normal
                if exact.any():
                    labels.append(a + np.flatnonzero(exact))
                    rows.append(diffs[exact] / norms[exact, None])
                    sq[exact] = np.inf
        if not keep.all():
            logger.warning("dropped %d repeated point(s) of %d", r - keep.sum(), r)
            if keep.sum() == 1:
                raise CoincidentPairError((1, 2))
            del D, sq, rows, centred  # freed before the kept points' pairs are built
            self.__init__(PointSet(P[keep]), dedup_policy)
            return
        self.points = points
        self._centred = _freeze(centred)
        self._sq = _freeze(D)
        # The exact-route pairs' rows in the set, and those rows.
        self._labels = np.concatenate(labels) if labels else np.empty(0, dtype=np.intp)
        self._exact = UnitVectorSet(np.concatenate(rows)) if rows else None
        sizes = np.arange(r - 1, -1, -1)
        # The row of pair (i, i + 1) for i < r - 1, then the pair count.
        self._starts = np.cumsum(sizes) - sizes

    @property
    def n(self) -> int:
        return self._sq.size

    @property
    def d(self) -> int:
        return self.points.d

    def _unit_blocks(self):
        """Each point's differences divided by the square roots of their
        stored squared lengths. sqrt(fl(x^2)) is x for every normal x whose
        square does not overflow, so the rows are those divided by their
        np.linalg.norm. The exact-route rows (D_ij = inf) are the stored
        ones."""
        labels = self._labels
        for _, a, diffs in _point_blocks(self.points.points):
            b = a + diffs.shape[0]
            np.divide(diffs, np.sqrt(self._sq[a:b])[:, None], out=diffs)
            if labels.size:
                lo, hi = np.searchsorted(labels, (a, b))
                diffs[labels[lo:hi] - a] = self._exact.X[lo:hi]
            yield diffs

    @cached_property
    def X(self) -> np.ndarray:
        """The n x d unit rows, each difference divided by its
        np.linalg.norm, read-only. Built on first access and kept."""
        X = np.empty((self.n, self.d))
        a = 0
        for block in self._unit_blocks():
            X[a : a + block.shape[0]] = block
            a += block.shape[0]
        return _freeze(X)

    @cached_property
    def _template(self) -> np.ndarray:
        """h x (r - 1) booleans, True on and above the diagonal: sliced to
        [:b - a, :r - 1 - a], the pairs of rows a..b-1 among the columns
        a+1..r-1. Its h is the block height."""
        r = self.points.r
        h = max(1, min(r - 1, _BLOCK_ENTRIES // (r - 1)))
        return np.triu(np.ones((h, r - 1), dtype=bool))

    def _sq_proj_blocks(self, V, w=None, M=None):
        """The walk of DirectionSet._sq_proj_blocks, over the blocks of rows
        a..b-1 of the triangle, as many rows as _template has. Given V, it
        yields (lo, s[lo:hi]) for each run of rows of a block whose pairs,
        lo..hi-1 in row-major order, are at most _GATHER_ENTRIES. Given w
        and M, once a block's runs are read, its Gram buffer takes the
        block's C = w / D, and at the end M(w) = A'A - (G + G'), plus the
        exact-route rows' moment, is added into M."""
        Pc, labels, template = self._centred, self._labels, self._template
        r, d = Pc.shape
        if V is not None:
            Y = Pc @ V
            q = np.einsum("ij,ij->i", Y, Y)[:, None]
            one = np.ones_like(q)
            L = np.hstack([Y, q, one])
            R = np.hstack([-2.0 * Y, one, q]).T
            exact = self._exact.sq_proj(V) if labels.size else None
        buf = np.empty(template.size)
        if M is not None:
            deg, CP = np.zeros(r), np.empty((r - 1, d))  # C P_c without its zero last row
        # Only exact-route pairs (D_ij = inf) can overflow or give inf - inf
        # here, and their entries are replaced below.
        ignore = dict(over="ignore", invalid="ignore")
        for a in range(0, r - 1, template.shape[0]):
            b = min(a + template.shape[0], r - 1)
            start, stop = self._starts[a], self._starts[b]
            T = template[: b - a, : r - 1 - a]  # places the block's pairs in C[a:b, a+1:]
            G = buf[: T.size].reshape(T.shape)
            if V is not None:
                with np.errstate(**ignore):
                    np.matmul(L[a:b], R[:, a + 1 :], out=G)
                h = max(1, _GATHER_ENTRIES // T.shape[1])
                lo = start
                for i in range(0, b - a, h):
                    with np.errstate(**ignore):
                        g = G[i : i + h][T[i : i + h]]
                        np.maximum(g, 0.0, out=g)
                        hi = lo + g.size
                        s = np.divide(g, self._sq[lo:hi], out=g)
                    del g  # freed before the next gather
                    if exact is not None:
                        e, f = np.searchsorted(labels, (lo, hi))
                        s[labels[e:f] - lo] = exact[e:f]
                    yield lo, s
                    lo = hi
            if M is not None:  # G becomes the block's C
                G.fill(0.0)
                G[T] = w[start:stop] / self._sq[start:stop]
                deg[a:b] += G.sum(axis=1)
                deg[a + 1 :] += G.sum(axis=0)
                np.matmul(G, Pc[a + 1 :], out=CP[a:b])
        if M is not None:
            A = Pc * np.sqrt(deg)[:, None]
            G = Pc[:-1].T @ CP
            moment = A.T @ A
            moment -= G + G.T
            if labels.size:
                moment += self._exact.moment(w[labels])
            M += moment

    def rows(self, idx) -> np.ndarray:
        """The directions of the given row indices, as a new dense array."""
        idx = np.asarray(idx)
        i = np.searchsorted(self._starts, idx, side="right") - 1
        diffs = self.points.points[i] - self.points.points[idx - self._starts[i] + i + 1]
        return diffs / np.linalg.norm(diffs, axis=1)[:, None]
