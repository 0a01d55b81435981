"""Dataset ingestion: file parsing, row normalization and the pairwise
unit differences that turn points into directions."""

from __future__ import annotations

import logging
import math
from array import array

import numpy as np

from .errors import CoincidentPairError, DegenerateVectorError, LoadError, ShapeError
from .pairs import DenseRowsNeeded, PairDifferenceSet, point_blocks
from .types import DirectionSet, PointSet, UnitVectorSet

logger = logging.getLogger(__name__)


def _parse_line(text, lineno):
    cells = text.split(",") if "," in text else text.split()
    try:
        values = list(map(float, cells))
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    # Error path only: name the first cell that is not a finite number.
    for cell in cells:
        cell = cell.strip()
        try:
            v = float(cell)
        except ValueError:
            raise LoadError(f"non-numeric cell {cell!r}", line=lineno) from None
        if not math.isfinite(v):
            raise LoadError(f"non-finite value {cell!r}", line=lineno)


def load_points(path, skip_header: bool = False) -> PointSet:
    """Read an r x d matrix of points from a UTF-8 text file.

    One point per row, split on commas if the line has one, else on whitespace;
    ``#`` lines and blank lines are skipped. LoadError names the 1-based line of a
    malformed row. Values go into one float64 buffer, 8 bytes each, not copied.
    """
    flat = array("d")
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                text = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise LoadError(f"not UTF-8 text ({exc.reason})", line=lineno) from None
            if not text or text.startswith("#"):
                continue
            if skip_header:
                skip_header = False
                continue
            values = _parse_line(text, lineno)
            if flat and len(values) != width:
                raise LoadError(
                    f"ragged row with {len(values)} cells, expected {width}",
                    line=lineno,
                )
            flat.extend(values)
            width = len(values)
    if not flat:
        raise LoadError("no data rows found (empty input)")
    return PointSet(np.frombuffer(flat).reshape(-1, width))


def normalize_rows(M) -> UnitVectorSet:
    """Scale each row of M to unit Euclidean length.

    Raises DegenerateVectorError (1-based row) on a zero row.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={M.ndim}")
    norms = np.linalg.norm(M, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise DegenerateVectorError(int(zero[0]) + 1)
    return UnitVectorSet(M / norms[:, None])


def pairwise_unit_differences(P: PointSet, dedup_policy: str = "error") -> DirectionSet:
    """Normalized pairwise differences (u_i - u_j)/||u_i - u_j|| for i < j.

    Pairs are ordered row-major over (i, j), giving C(r, 2) unit directions,
    held implicitly as a ``PairDifferenceSet``: the points and one float
    per pair. Coincident points make a pair's difference zero; under
    ``error`` the first such pair (1-based) raises CoincidentPairError,
    under ``drop`` they are omitted with a warning, and the rows that remain
    are built into one dense ``UnitVectorSet``.
    """
    if dedup_policy not in ("error", "drop"):
        raise ValueError(f"unknown dedup policy {dedup_policy!r}")
    try:
        return PairDifferenceSet(P)
    except CoincidentPairError:
        if dedup_policy == "error":
            raise
    except DenseRowsNeeded:
        pass
    return _dense_pairs(P.points)


def _dense_pairs(P) -> UnitVectorSet:
    """The nonzero pair rows written into one C(r, 2) x d output, coincident
    pairs dropped with a warning; temporaries are one point's differences
    (at most (r - 1) x d) and norms."""
    out = np.empty((P.shape[0] * (P.shape[0] - 1) // 2, P.shape[1]))
    n = 0
    for _, _, diffs, norms in point_blocks(P):
        if not norms.all():
            diffs, norms = diffs[norms > 0], norms[norms > 0]
        np.divide(diffs, norms[:, None], out=out[n : n + norms.size])
        n += norms.size
    if n < len(out):
        logger.warning("dropped %d coincident pair(s) of %d", len(out) - n, len(out))
        if n == 0:
            raise CoincidentPairError((1, 2))
    return UnitVectorSet(out[:n])
