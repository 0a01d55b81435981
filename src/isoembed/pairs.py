"""Implicit pair directions: the C(r, 2) unit differences of r points, held
as the points and their centred copy, never as a C(r, 2) x d matrix and
with no array of one value per pair.

Row (i, j), i < j, in row-major order, is u_ij = (p_i - p_j)/||p_i - p_j||.
With the centred points P_c = P - mean(P) and D_ij = ||p_i - p_j||^2:

- ``sq_proj``: s_ij = ||V'u_ij||^2 = ||Y_i - Y_j||^2 / D_ij with
  Y = P_c V (r x k), each ||Y_i - Y_j||^2 by the Gram expansion
  |Y_i|^2 + |Y_j|^2 - 2 Y_i'Y_j, the entries of the product
  [Y, |Y|^2, 1] [-2Y, 1, |Y|^2]'. The expansion cancels when the pair is
  short against |Y_i| and |Y_j|, and can then come out below 0, so it is
  clamped at 0. D_ij is formed the same way, from [P_c, |P_c|^2, 1]
  [-2P_c, 1, |P_c|^2]'.
- ``moment``: M(w) = sum_ij w_ij u_ij u_ij' = P_c' L P_c, L the graph
  Laplacian of the upper-triangular r x r matrix C with c_ij = w_ij / D_ij.
  With deg the row plus column sums of C, M = A'A - (G + G') where
  A = diag(sqrt(deg)) P_c and G = P_c' C P_c. Both terms are exactly
  symmetric, so M is.

Both kernels are one walk, ``_sq_proj_blocks``, and neither forms an
r x r array. The walk takes the upper triangle in blocks of h rows, about
_BLOCK_ENTRIES entries each: rows a..b-1 are paired only with the columns
a+1..r-1, so the products skip the lower triangle, about half of a dense
r x r product's work. Each block is a (b - a) x (r - 1 - a) rectangle
whose entries left of its diagonal, which pair a point with itself or an
earlier one, are pads. The block's D is
the rectangle of the Gram product above, 1 at the pads. Given V, s is the
rectangle [Y, |Y|^2, 1][a:b] [-2Y, 1, |Y|^2][a+1:]' divided by D, 1 at
the pads (no distortion). The walk's weights are held in the same
rectangles, one after another: the walk's layout, in which a pad holds
weight 0. So a caller steps a block's weights in place over its s, and
the walk then divides them by D in place to form the block's C; it adds
C's row and column sums to deg and writes the rows a..b-1 of C P_c. A
walk's working set is two blocks besides its length-n input or output.
The layout's padding is about h / r of the pairs; h is capped at
r / _PAD_SHARE, which keeps it at about 1 / _PAD_SHARE or less.
``sq_proj``, ``moment(w)`` and the DirectionSet layout methods convert
between the layout and the packed, row-major order of the pairs.

Both forms lose digits in proportion to kappa_ij^2, kappa_ij = max(|p_i -
m|, |p_j - m|) / ||p_i - p_j||: s, D and M are off by about kappa^2 u, u
the unit roundoff. A pair with kappa above KAPPA_LIMIT takes the exact
route: its unit row is held dense, built as ``X`` builds it, enters s and
M directly and gets zero Laplacian weight (its D is set to inf). A pair
whose D_ij overflows is refused. When a Gram entry could overflow, the
walk scales the centred points by a power of two, which leaves s and M
as they are; with D_ij finite that is a few binades at most.

A pair is coincident when D_ij is below the smallest normal float (points
closer than about 1.5e-154). Under ``dedup_policy="drop"`` each point that
coincides with an earlier kept point is dropped, and the set is that of the
kept points: every C(r, 2) pair of them, bit for bit the set built from the
points with the dropped ones deleted.
"""

from __future__ import annotations

import logging
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CoincidentPairError, ContractError, ShapeError
from .types import _BLOCK_ENTRIES, _TINY, DirectionSet, PointSet, UnitVectorSet, _freeze

# kappa above this sends a pair to the exact route. On the perfbench inputs
# the largest kappa is 19, so none of their pairs takes it.
KAPPA_LIMIT = 32.0

# A block holds at most about r / _PAD_SHARE rows, so that the walk's
# layout pads the pairs by about 1 / _PAD_SHARE at most.
_PAD_SHARE = 16

logger = logging.getLogger(__name__)


def _point_blocks(P):
    """(i, a, diffs) for each point i < r - 1: its differences p_i - p_j to
    the later points j > i, and the row a of pair (i, i + 1) in row-major
    order."""
    r = P.shape[0]
    for i in range(r - 1):
        yield i, (2 * r - 1 - i) * i // 2, P[i] - P[i + 1 :]


def _norms(diffs, buf):
    """np.linalg.norm(diffs, axis=1) bit for bit, by its formula
    sqrt(add.reduce(x * x, axis=1)), with the squares formed in buf, a
    C-contiguous array of at least diffs.size entries, or diffs itself,
    in place of a temporary."""
    sq = np.square(diffs, out=buf.reshape(-1)[: diffs.size].reshape(diffs.shape))
    return np.sqrt(np.add.reduce(sq, axis=1))


def _gram_factors(Y):
    """[Y, |Y|^2, 1] and [-2Y, 1, |Y|^2]': their product's entry (i, j) is
    |Y_i - Y_j|^2 by the Gram expansion."""
    q = np.einsum("ij,ij->i", Y, Y)[:, None]
    one = np.ones_like(q)
    return np.hstack([Y, q, one]), np.hstack([-2.0 * Y, one, q]).T


class _Block(NamedTuple):
    """One block of the walk: the rows a..b-1 of the triangle, paired with
    the columns a+1..r-1; their pairs start..stop-1 in row-major order;
    the block's first entry in the walk's layout; and its template T,
    (b - a) x (r - 1 - a), True at the pairs and False at the pads."""

    a: int
    b: int
    start: int
    stop: int
    off: int
    T: np.ndarray

    def rect(self, v):
        """The block's rectangle of v, a vector in the walk's layout."""
        return v[self.off : self.off + self.T.size].reshape(self.T.shape)


class PairDifferenceSet(DirectionSet):
    """The normalised pairwise differences of r >= 2 points: a PointSet, or
    an r x d array or nested list, which is copied into one.

    Construction reads every pair once, one point's differences at a time,
    and keeps the points, their centred copy and the indices of the
    exact-route pairs, whose unit rows are built on first use: no array of
    one value per pair. Under ``dedup_policy="error"`` the first
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
        keep = np.ones(r, dtype=bool)
        labels = []
        # A difference, norm or square that overflows is inf: its pair is refused below.
        with np.errstate(over="ignore"):
            # The mean of P / 2^e, 2^e above max|P|, scaled back: no column sum overflows, and
            # the scaling is exact unless it makes a value subnormal.
            e = np.frexp(np.abs(P).max())[1]
            centred = P - np.ldexp(np.ldexp(P, -e).mean(axis=0), e)
            reach = np.linalg.norm(centred, axis=1)
            for i, a, diffs in _point_blocks(P):
                norms = _norms(diffs, diffs)
                del diffs  # squared: freed before the next point's differences
                sq = np.square(norms)
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
        if not keep.all():
            logger.warning("dropped %d repeated point(s) of %d", r - keep.sum(), r)
            if keep.sum() == 1:
                raise CoincidentPairError((1, 2))
            del centred  # freed before the kept points' pairs are built
            self.__init__(PointSet(P[keep]), dedup_policy)
            return
        self.points = points
        self._centred = _freeze(centred)
        # Every entry of a Gram product, and every partial sum, is at most
        # (|p_i| + |p_j|)^2 <= 4 d max|P_c|^2: below 2^1023 once the entries
        # of P_c are below 2^limit, which 2^-_shift brings them.
        limit = (1021 - int(np.ceil(np.log2(P.shape[1])))) // 2
        self._shift = max(int(np.frexp(np.abs(centred).max())[1]) - limit, 0)
        # The exact-route pairs' rows in the set.
        self._labels = np.concatenate(labels) if labels else np.empty(0, dtype=np.intp)
        sizes = np.arange(r - 1, -1, -1)
        # The row of pair (i, i + 1) for i < r - 1, then the pair count.
        self._starts = np.cumsum(sizes) - sizes

    @property
    def n(self) -> int:
        return int(self._starts[-1])

    @property
    def d(self) -> int:
        return self.points.d

    def _unit_blocks(self):
        """Each point's differences divided by their np.linalg.norm, as
        ``rows`` and the dense build divide them."""
        buf = np.empty_like(self.points.points)
        for _, _, diffs in _point_blocks(self.points.points):
            yield np.divide(diffs, _norms(diffs, buf)[:, None], out=diffs)

    @cached_property
    def _exact(self) -> UnitVectorSet | None:
        """The exact-route pairs' unit rows, as ``rows`` builds them."""
        return UnitVectorSet(self.rows(self._labels)) if self._labels.size else None

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
        h = max(1, min(r - 1, _BLOCK_ENTRIES // (r - 1), -(-r // _PAD_SHARE)))
        return np.triu(np.ones((h, r - 1), dtype=bool))

    @cached_property
    def _blocks(self) -> list[_Block]:
        """The walk's blocks, in order."""
        template, starts, r = self._template, self._starts, self.points.r
        blocks, off = [], 0
        for a in range(0, r - 1, template.shape[0]):
            b = min(a + template.shape[0], r - 1)
            T = template[: b - a, : r - 1 - a]
            blocks.append(_Block(a, b, int(starts[a]), int(starts[b]), off, T))
            off += T.size
        return blocks

    @property
    def _layout_size(self) -> int:
        last = self._blocks[-1]
        return last.off + last.T.size

    @cached_property
    def _slots(self) -> np.ndarray:
        """The exact-route pairs' entries in the walk's layout."""
        labels, starts = self._labels, self._starts
        i = np.searchsorted(starts, labels, side="right") - 1  # pair (i, j)
        h = self._template.shape[0]
        a = i - i % h
        # Entry (i - a, j - 1 - a) of its block's rectangle, where
        # j - 1 - a = labels - starts[i] + i - a.
        col = labels - starts[i] + i - a
        return self._offsets[i // h] + (i - a) * (self.points.r - 1 - a) + col

    @cached_property
    def _offsets(self) -> np.ndarray:
        """Each block's first entry in the walk's layout."""
        return np.array([blk.off for blk in self._blocks], dtype=np.intp)

    def _to_layout(self, w) -> np.ndarray:
        lam = np.zeros(self._layout_size)
        for blk in self._blocks:
            blk.rect(lam)[blk.T] = w[blk.start : blk.stop]
        return lam

    def _from_layout(self, lam) -> np.ndarray:
        w = np.empty(self.n)
        for blk in self._blocks:
            w[blk.start : blk.stop] = blk.rect(lam)[blk.T]
        return w

    def _packed_index(self, i: int) -> int:
        blk = self._blocks[np.searchsorted(self._offsets, i, side="right") - 1]
        row, col = divmod(i - blk.off, blk.T.shape[1])
        return int(self._starts[blk.a + row]) + col - row

    def _packed_blocks(self, blocks):
        # Row by row, a view each: row i of a block holds its pairs from column i on.
        for blk, (_, block) in zip(self._blocks, blocks):
            lo = blk.start
            for i, row in enumerate(block.reshape(blk.T.shape)):
                yield lo, row[i:]
                lo += row.size - i

    def _walked_points(self) -> np.ndarray:
        """The centred points as the walk reads them: times 2^-_shift."""
        return np.ldexp(self._centred, -self._shift) if self._shift else self._centred

    def _sq_blocks(self, Pc):
        """(blk, D, pad, exact) for each of the walk's blocks, Pc the
        walk's points: D the block's rectangle of squared lengths, the
        Gram product [Pc, |Pc|^2, 1][a:b] [-2Pc, 1, |Pc|^2][a+1:]', set to 1
        at the pads, which ``pad`` marks in its first b - a columns, and to
        inf at the exact-route pairs, those of _slots[exact]. D is
        overwritten by the next block."""
        DL, DR = _gram_factors(Pc)
        template, slots = self._template, self._slots
        pads = ~template[:, : template.shape[0]]
        buf = np.empty(template.size)
        for blk in self._blocks:
            a, b, T = blk.a, blk.b, blk.T
            D = buf[: T.size].reshape(T.shape)
            np.matmul(DL[a:b], DR[:, a + 1 :], out=D)
            pad = pads[: b - a, : b - a]
            np.copyto(D[:, : b - a], 1.0, where=pad)
            exact = slice(*np.searchsorted(slots, (blk.off, blk.off + T.size)))
            if slots.size:
                D.reshape(-1)[slots[exact] - blk.off] = np.inf  # no Laplacian weight
            yield blk, D, pad, exact

    def _sq_proj_blocks(self, V, w=None, M=None, packed=False):
        """The walk of DirectionSet._sq_proj_blocks, over the blocks of rows
        a..b-1 of the triangle, as many rows as _template has. Given V, it
        yields (off, s) for each block, s its rectangle, flat, and off its
        place in the walk's layout. Given w and M, once a block is read,
        the buffer of s takes the block's C = w / D, and at the end
        M(w) = A'A - (G + G'), plus the exact-route rows' moment, is added
        into M."""
        Pc, labels, slots = self._walked_points(), self._labels, self._slots
        r, d = Pc.shape
        if V is not None:
            L, R = _gram_factors(Pc @ V)
            if labels.size:
                exact_s = self._exact.sq_proj(V)
        buf = np.empty(self._template.size)
        if M is not None:
            deg, CP = np.zeros(r), np.empty((r - 1, d))  # C P_c without its zero last row
            ones = np.ones(r)
        for blk, D, pad, exact in self._sq_blocks(Pc):
            a, b, start, stop, off, T = blk
            G = buf[: T.size].reshape(T.shape)
            if V is not None:
                np.matmul(L[a:b], R[:, a + 1 :], out=G)
                np.copyto(G[:, : b - a], 1.0, where=pad)
                np.maximum(G, 0.0, out=G)
                s = np.divide(G, D, out=G).reshape(-1)
                if labels.size:
                    s[slots[exact] - off] = exact_s[exact]
                yield off, s
            if M is not None:  # G becomes the block's C
                if packed:
                    G.fill(0.0)
                    G[T] = w[start:stop]
                    np.divide(G, D, out=G)
                else:
                    np.divide(blk.rect(w), D, out=G)
                deg[a:b] += G @ ones[a + 1 :]
                deg[a + 1 :] += ones[a:b] @ G
                np.matmul(G, Pc[a + 1 :], out=CP[a:b])
        if M is not None:
            A = Pc * np.sqrt(deg)[:, None]
            G = Pc[:-1].T @ CP
            moment = A.T @ A
            moment -= G + G.T
            if labels.size:
                moment += self._exact.moment(w[labels] if packed else w[slots])
            M += moment

    def rows(self, idx) -> np.ndarray:
        """The directions of the given row indices, as a new dense array."""
        idx = np.asarray(idx)
        i = np.searchsorted(self._starts, idx, side="right") - 1
        diffs = self.points.points[i] - self.points.points[idx - self._starts[i] + i + 1]
        return diffs / np.linalg.norm(diffs, axis=1)[:, None]
