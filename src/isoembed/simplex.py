"""Euclidean projection onto the standard probability simplex.

The projection sorts descending, finds the largest prefix whose shifted
entries stay positive, shifts by the corresponding constant and clips. The
result is the unique nearest point of {w : w_i >= 0, sum w_i = 1}.

Only a candidate set is sorted. Michelot's iteration (J. Optim. Theory
Appl. 1986; Condat, Math. Program. 2016) keeps the entries above
tau = (sum(c) - 1)/|c| and repeats; in exact arithmetic tau rises to the
threshold from below, so every kept set holds the support. The input of the
last round that removed an entry holds the support and at least one entry
outside it. It is the top of the vector, so its descending sort and prefix
sums are bitwise the first entries of the full sort's, and a prefix length
rho that stops short of its last entry is the full sort's rho. When rho
reaches the last candidate, every entry is sorted instead. The output is
bitwise that of sorting every entry.

The rounds stop once one removes less than MIN_ROUND_SHRINK of its input.
Each earlier round shrank the set by at least that share, so the rounds
scan at most about n / MIN_ROUND_SHRINK entries in all, and an input whose
rounds each remove a little costs about one full sort.

A round compacts its kept entries into one new vector, _CHUNK_ENTRIES input
entries at a time. np.compress forms an index array as long as its output,
even with ``out=``, so over the whole input it would add a second vector of
the kept size; in chunks the index is at most one chunk's, and each chunk's
entries are taken straight into their place in the output.
"""

from __future__ import annotations

import numpy as np

from .types import SIMPLEX_TOL, SimplexWeights, weights_vector

# The first candidate round that removes less than this share of its input
# is the last (module docstring).
MIN_ROUND_SHRINK = 0.1

# A round compacts its kept entries this many input entries at a time
# (module docstring): 512 KB of float64.
_CHUNK_ENTRIES = 1 << 16


def _compress(above: np.ndarray, c: np.ndarray, kept: int) -> np.ndarray:
    """np.compress(above, c), kept entries long, built chunk by chunk."""
    out = np.empty(kept)
    a = 0
    for i in range(0, c.size, _CHUNK_ENTRIES):
        j = np.flatnonzero(above[i : i + _CHUNK_ENTRIES])
        # The indices are in range; "clip" skips the check and, unlike
        # "raise", writes to out without an intermediate buffer.
        np.take(c[i : i + _CHUNK_ENTRIES], j, out=out[a : a + j.size], mode="clip")
        a += j.size
    return out


def _support_superset(z: np.ndarray) -> np.ndarray:
    """The top entries of z that hold the projection's support and, unless
    they are all of z, at least one entry more: the input of the last
    candidate round that removed an entry."""
    cand = c = z
    while True:
        above = c > (c.sum() - 1.0) / c.size
        kept = np.count_nonzero(above)
        if kept == c.size:
            return cand
        if kept > (1.0 - MIN_ROUND_SHRINK) * c.size:
            return c
        cand = c  # the previous round's input is freed before the compaction
        c = _compress(above, c, kept)


def project_to_simplex(y) -> SimplexWeights:
    """Project a real vector onto the probability simplex.

    rho is the largest index j (1-based, in descending order) with
    y_(j) + (1 - sum_{i<=j} y_(i))/j > 0; the output is
    max(y_i + alpha, 0) with alpha = (1 - sum_{i<=rho} y_(i))/rho.
    The sort, prefix sums and test run on a candidate set (module
    docstring); when rho ends at the last candidate, they run again on
    every entry. The output is bitwise that of sorting every entry.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size < 1:
        raise ValueError("input must be a non-empty 1-d vector")
    if not np.isfinite(y).all():
        raise ValueError("input contains non-finite entries")
    return SimplexWeights(_project_in_place(y.copy()))


def _project_in_place(z: np.ndarray) -> np.ndarray:
    """project_to_simplex on a non-empty, finite, writable float64 vector
    (unchecked), overwriting it with the projection and returning it."""
    # Shifting every entry by one constant leaves the projection unchanged.
    # Shifted by the largest, the entries that stay positive lie within 1 of
    # 0 and are exact differences, so large inputs do not cancel below.
    z -= z.max()
    for c in (_support_superset(z), z):
        u = np.sort(c)[::-1]
        css = np.cumsum(u)
        # The test u_j + (1 - css_j) / j in one buffer; rho is the last j
        # that passes it.
        test = np.subtract(1.0, css)
        test /= np.arange(1, c.size + 1)
        test += u
        # j = 1 always qualifies (u_1 + 1 - u_1 = 1 > 0), so rho >= 1.
        rho = c.size - int(np.argmax(test[::-1] > 0.0))
        # rho below the candidate count is rho of the full sort.
        if rho < c.size or c.size == z.size:
            break
    alpha = (1.0 - css[rho - 1]) / rho
    z += alpha
    return np.maximum(z, 0.0, out=z)


def is_on_simplex(w, tol: float = SIMPLEX_TOL) -> bool:
    """True iff min w_i >= -tol and |sum w_i - 1| <= tol."""
    w = weights_vector(w)
    if not np.isfinite(w).all():
        raise ValueError("input contains non-finite entries")
    return bool(w.min() >= -tol and abs(w.sum() - 1.0) <= tol)
