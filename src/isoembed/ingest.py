"""Dataset ingestion: file parsing, row normalization and the pairwise
unit differences that turn points into directions."""

from __future__ import annotations

import logging
import math
import time
from array import array
from itertools import chain

import numpy as np

from .errors import ContractError, LoadError
from .pairs import PairDifferenceSet
from .types import PointSet, UnitVectorSet, _normalize_in_place

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


def _data_lines(fh, skip_header):
    """(lineno, text) for each data line of a binary file: decoded as UTF-8
    and stripped, skipping blank lines, ``#`` lines and, under skip_header,
    the first other line. LoadError names a line that is not UTF-8."""
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
        yield lineno, text


def _read_lines(lines):
    """The reference parse of at least one line of _data_lines, one line at
    a time: an r x d array, or LoadError naming the first faulty line."""
    flat = array("d")
    for lineno, text in lines:
        values = _parse_line(text, lineno)
        if flat and len(values) != width:
            raise LoadError(
                f"ragged row with {len(values)} cells, expected {width}",
                line=lineno,
            )
        flat.extend(values)
        width = len(values)
    return np.frombuffer(flat).reshape(-1, width)


def load_points(path, skip_header: bool = False) -> PointSet:
    """Read an r x d matrix of points from a UTF-8 text file.

    One point per row, split on commas if the line has one, else on whitespace;
    ``#`` lines and blank lines are skipped. LoadError names the 1-based line of a
    malformed row.

    The data lines go to numpy's C reader (``np.loadtxt``), split on commas if
    the first one has a comma, else on whitespace. When it refuses the file or
    reads a non-finite value, the file is read again line by line. That path
    names the faulty line, and it reads the valid files numpy refuses, such
    as one whose lines mix delimiters or a value written ``1_000``, at up to
    about 1.6x the time of one line-by-line read. Both paths give the values
    of ``float()``, bit for bit. One INFO log line gives the shape, the time
    and, for a valid file read line by line, that it was.
    """
    start = time.perf_counter()
    with open(path, "rb") as fh:
        lines = _data_lines(fh, skip_header)
        first = next(lines, None)
        if first is None:
            raise LoadError("no data rows found (empty input)")
        texts = chain([first[1]], (text for _, text in lines))
        delimiter = "," if "," in first[1] else None
        how = ""
        try:
            points = PointSet(
                np.loadtxt(texts, delimiter=delimiter, comments=None, ndmin=2, dtype=np.float64)
            )
        except (ValueError, LoadError, ContractError):
            fh.seek(0)
            points = PointSet(_read_lines(_data_lines(fh, skip_header)))
            how = ", line by line: numpy's reader refused the file"
    logger.info("read %d x %d points in %.2f s%s", points.r, points.d, time.perf_counter() - start, how)
    return points


def normalize_rows(M) -> UnitVectorSet:
    """The rows of M as unit vectors, by the one rule that UnitVectorSet
    and ``embed --mode rows`` follow too. Rows all within ROW_NORM_TOL
    (1e-9) of unit length are kept bit for bit; otherwise every row is
    divided by its np.linalg.norm, and a row whose norm overflows or is
    below sqrt(tiny) (about 1.5e-154, the pair set's coincidence threshold)
    by its largest absolute entry first. So normalize_rows is idempotent,
    bit for bit. A row holding a NaN or an infinity raises ContractError,
    and then an all-zero row DegenerateVectorError, each naming the first
    such row (1-based), before any division; an empty matrix of either
    shape raises ShapeError. M is copied, never written to."""
    M = np.array(M, dtype=np.float64, order="C")
    _normalize_in_place(M)
    return UnitVectorSet(M)


def pairwise_unit_differences(P, dedup_policy: str = "error") -> PairDifferenceSet:
    """Normalized pairwise differences (u_i - u_j)/||u_i - u_j|| for i < j
    of a PointSet, or of an r x d array or nested list, which is copied.

    Pairs are ordered row-major over (i, j), giving C(r, 2) unit directions,
    held implicitly as a ``PairDifferenceSet``: the points and one float
    per pair. A pair is coincident when its squared difference is below
    the smallest normal float (points closer than about 1.5e-154). Under
    ``error`` the first such pair (1-based) raises CoincidentPairError;
    under ``drop`` each point that coincides with an earlier kept point is
    dropped with a warning, the set is that of the kept points, and
    CoincidentPairError((1, 2)) is raised only when one point is left.
    """
    return PairDifferenceSet(P, dedup_policy)
