"""Dataset ingestion: file parsing, row normalization and the pairwise
unit-difference construction that turns points into directions."""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import CoincidentPairError, DegenerateVectorError, LoadError, ShapeError
from .types import PointSet, UnitVectorSet

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

    One point per row; a line containing a comma is split on commas, any
    other line on whitespace. Lines starting with ``#`` and blank lines are
    ignored. Raises LoadError naming the 1-based line of any malformed row.
    """
    rows = []
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
            if rows and len(values) != len(rows[0]):
                raise LoadError(
                    f"ragged row with {len(values)} cells, expected {len(rows[0])}",
                    line=lineno,
                )
            rows.append(values)
    if not rows:
        raise LoadError("no data rows found (empty input)")
    return PointSet(np.array(rows, dtype=np.float64))


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


def pairwise_unit_differences(P: PointSet, dedup_policy: str = "error") -> UnitVectorSet:
    """Normalized pairwise differences (u_i - u_j)/||u_i - u_j|| for i < j.

    Pairs are emitted in row-major order over (i, j), giving C(r, 2) unit
    rows. Coincident points make a pair's difference zero; under the
    ``error`` policy the first such pair (1-based) raises
    CoincidentPairError, under ``drop`` those pairs are omitted with a
    logged warning.
    """
    if dedup_policy not in ("error", "drop"):
        raise ValueError(f"unknown dedup policy {dedup_policy!r}")
    if P.r < 2:
        raise ShapeError("need at least 2 points to form pairwise differences")
    ii, jj = np.triu_indices(P.r, k=1)
    diffs = P.points[ii]
    diffs -= P.points[jj]
    norms = np.linalg.norm(diffs, axis=1)
    coincident = norms == 0.0
    if coincident.any():
        first = int(np.argmax(coincident))
        if dedup_policy == "error":
            raise CoincidentPairError((int(ii[first]) + 1, int(jj[first]) + 1))
        keep = ~coincident
        dropped = int(coincident.sum())
        logger.warning("dropped %d coincident pair(s) of %d", dropped, norms.size)
        diffs, norms = diffs[keep], norms[keep]
        if diffs.shape[0] == 0:
            raise CoincidentPairError((int(ii[0]) + 1, int(jj[0]) + 1))
    diffs /= norms[:, None]
    return UnitVectorSet(diffs)
