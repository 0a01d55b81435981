"""Dataset ingestion: file parsing, row normalization and the pairwise
unit differences that turn points into directions."""

from __future__ import annotations

import math
from array import array

import numpy as np

from .errors import ContractError, DegenerateVectorError, LoadError, ShapeError
from .pairs import _TINY, PairDifferenceSet
from .types import PointSet, UnitVectorSet


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
    """Scale each row of M to unit length, M_i / ||M_i||. A row whose norm
    overflows or is below sqrt(tiny) (about 1.5e-154, the pair set's
    coincidence threshold) is divided by its largest absolute entry first.
    A row holding a NaN or an infinity raises ContractError, and then an
    all-zero row DegenerateVectorError, each naming the first such row
    (1-based), before any division."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={M.ndim}")
    with np.errstate(over="ignore"):  # such a row is rescaled below
        norms = np.linalg.norm(M, axis=1)
    odd = np.flatnonzero(~((norms >= math.sqrt(_TINY)) & (norms < math.inf)))
    A = np.abs(M[odd])
    finite = np.isfinite(A).all(axis=1)
    if not finite.all():
        raise ContractError(f"row {int(odd[np.argmin(finite)]) + 1} contains non-finite entries")
    top = A.max(axis=1, initial=0.0)
    if (top == 0.0).any():
        raise DegenerateVectorError(int(odd[np.argmax(top == 0.0)]) + 1)
    norms[odd] = 1.0
    U = M / norms[:, None]
    U[odd] /= top[:, None]
    U[odd] /= np.linalg.norm(U[odd], axis=1)[:, None]
    return UnitVectorSet(U)


def pairwise_unit_differences(P, dedup_policy: str = "error") -> PairDifferenceSet:
    """Normalized pairwise differences (u_i - u_j)/||u_i - u_j|| for i < j
    of a PointSet, or of an r x d array or nested list, which is copied.

    Pairs are ordered row-major over (i, j), giving C(r, 2) unit directions,
    held implicitly as a ``PairDifferenceSet``: the points and one float
    per pair. A pair is coincident when its squared difference is below
    the smallest normal float (points closer than about 1.5e-154). Under
    ``error`` the first such pair (1-based) raises CoincidentPairError;
    under ``drop`` they are left out of the set with a warning, and
    CoincidentPairError((1, 2)) is raised only when none is left.
    """
    return PairDifferenceSet(P, dedup_policy)
