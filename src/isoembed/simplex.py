"""Euclidean projection onto the standard probability simplex.

The projection sorts every entry descending, finds the largest prefix whose
shifted entries stay positive, shifts by the corresponding constant and
clips (Duchi, Shalev-Shwartz, Singer & Chandra, ICML 2008). The result is
the unique nearest point of {w : w_i >= 0, sum w_i = 1}.

The vector is first shifted by its largest entry, and every shifted entry
below -2 is raised to -2. The threshold lies within 1 of the largest entry,
so those entries are outside the support and still project to 0, and a
finite input whose spread exceeds the float range, such as [1.7e308,
-1.7e308, 1.0], projects without overflow.
"""

from __future__ import annotations

import numpy as np

from .types import SIMPLEX_TOL, SimplexWeights, weights_vector


def project_to_simplex(y) -> SimplexWeights:
    """Project a real vector onto the probability simplex.

    rho is the largest index j (1-based, in descending order) with
    y_(j) + (1 - sum_{i<=j} y_(i))/j > 0; the output is
    max(y_i + alpha, 0) with alpha = (1 - sum_{i<=rho} y_(i))/rho.
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
    # 0 and are exact differences, so large inputs do not cancel below. The
    # entries below -2, an overflowed -inf among them, are raised to -2
    # (module docstring), so no prefix sum overflows.
    with np.errstate(over="ignore"):
        z -= z.max()
    np.maximum(z, -2.0, out=z)
    u = np.sort(z)[::-1]
    css = np.cumsum(u)
    # j = 1 always qualifies (u_1 + 1 - u_1 = 1 > 0), so rho >= 1.
    rho = int(np.flatnonzero(u + (1.0 - css) / np.arange(1, u.size + 1) > 0.0)[-1]) + 1
    z += (1.0 - css[rho - 1]) / rho
    return np.maximum(z, 0.0, out=z)


def is_on_simplex(w, tol: float = SIMPLEX_TOL) -> bool:
    """True iff min w_i >= -tol and |sum w_i - 1| <= tol."""
    w = weights_vector(w)
    if not np.isfinite(w).all():
        raise ValueError("input contains non-finite entries")
    return bool(w.min() >= -tol and abs(w.sum() - 1.0) <= tol)
