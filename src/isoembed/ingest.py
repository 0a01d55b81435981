"""Dataset ingestion: file parsing, row normalization and the pairwise
unit-difference construction that turns points into directions."""

from __future__ import annotations

import logging
import math
from array import array

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


def pairwise_unit_differences(P: PointSet, dedup_policy: str = "error") -> UnitVectorSet:
    """Normalized pairwise differences (u_i - u_j)/||u_i - u_j|| for i < j.

    Pairs are emitted in row-major order over (i, j), giving C(r, 2) unit
    rows written into one C(r, 2) x d output; temporaries are one point's
    differences (at most (r - 1) x d) and norms. Coincident points make a pair's
    difference zero; under ``error`` the first such pair (1-based) raises
    CoincidentPairError, under ``drop`` they are omitted with a warning.
    """
    if dedup_policy not in ("error", "drop"):
        raise ValueError(f"unknown dedup policy {dedup_policy!r}")
    if P.r < 2:
        raise ShapeError("need at least 2 points to form pairwise differences")
    out = np.empty((P.r * (P.r - 1) // 2, P.d))
    n = 0
    for i in range(P.r - 1):
        diffs = P.points[i] - P.points[i + 1 :]
        norms = np.linalg.norm(diffs, axis=1)
        if not norms.all():
            if dedup_policy == "error":
                raise CoincidentPairError((i + 1, i + 2 + int(np.argmin(norms))))
            diffs, norms = diffs[norms > 0], norms[norms > 0]
        np.divide(diffs, norms[:, None], out=out[n : n + norms.size])
        n += norms.size
    if n < len(out):
        logger.warning("dropped %d coincident pair(s) of %d", len(out) - n, len(out))
        if n == 0:
            raise CoincidentPairError((1, 2))
    return UnitVectorSet(out[:n])
