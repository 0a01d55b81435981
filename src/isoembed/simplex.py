"""Euclidean projection onto the standard probability simplex.

The projection is the sort-based O(n log n) scheme: sort descending, find
the largest prefix whose shifted entries stay positive, shift by the
corresponding constant and clip. The result is the unique nearest point of
{w : w_i >= 0, sum w_i = 1}.
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
    # Shifting every entry by one constant leaves the projection unchanged.
    # Shifted by the largest, the entries that stay positive lie within 1 of
    # 0 and are exact differences, so large inputs do not cancel below.
    z = y - y.max()
    u = np.sort(z)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, y.size + 1)
    # j = 1 always qualifies (u_1 + 1 - u_1 = 1 > 0), so rho >= 1.
    rho = int(np.nonzero(u + (1.0 - css) / j > 0.0)[0][-1]) + 1
    alpha = (1.0 - css[rho - 1]) / rho
    z += alpha
    return SimplexWeights(np.maximum(z, 0.0, out=z))


def is_on_simplex(w, tol: float = SIMPLEX_TOL) -> bool:
    """True iff min w_i >= -tol and |sum w_i - 1| <= tol."""
    w = weights_vector(w)
    if not np.isfinite(w).all():
        raise ValueError("input contains non-finite entries")
    return bool(w.min() >= -tol and abs(w.sum() - 1.0) <= tol)
