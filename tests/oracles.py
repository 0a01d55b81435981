"""Independent reference implementations used to cross-check the library.

Everything here is deliberately brute force and shares no code with the
implementations under test.
"""

import numpy as np

import isoembed as ie


def kkt_simplex_projection(y):
    """Exact simplex projection by enumerating all support sets.

    For each nonempty support S the equality-constrained minimizer shifts
    the supported entries by a common constant and zeroes the rest. The
    projection is the candidate meeting the KKT conditions: every supported
    y_i + shift >= 0 and every other y_i + shift <= 0. Rounding can miss
    them by an ulp, so the candidate violating them least wins. (Comparing
    distances to y instead fails once one large excluded entry swamps the
    small differences between candidates.) Exponential in n, fine for
    n <= ~15.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    best, best_violation = None, np.inf
    for mask in range(1, 1 << n):
        inside = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        shift = (1.0 - y[inside].sum()) / inside.sum()
        w = np.where(inside, y + shift, 0.0)
        violation = max(0.0, -w[inside].min(), (y[~inside] + shift).max(initial=-np.inf))
        if violation < best_violation:
            best_violation, best = violation, w
    return best


def fd_dual_gradient(X, lam, k, h=1e-6):
    """Central finite differences of the dual objective, coordinate-wise.

    Perturbs straight off the simplex: the objective extends smoothly to a
    neighborhood, so no re-projection is involved.
    """
    lam = np.asarray(lam, dtype=float)
    g = np.zeros(lam.size)
    for i in range(lam.size):
        up = lam.copy()
        dn = lam.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (ie.dual_objective(X, up, k) - ie.dual_objective(X, dn, k)) / (2.0 * h)
    return g


def unit_rows(rng, n, d):
    """Random unit-vector set (isotropic Gaussian directions)."""
    M = rng.standard_normal((n, d))
    return ie.UnitVectorSet(M / np.linalg.norm(M, axis=1, keepdims=True))


def clustered_rows(rng, n, d, spread=0.2):
    """Unit vectors concentrated around a random center direction.

    These are the benign instances where the dual relaxation is tight and
    the ascent provably converges to a near-optimal embedding.
    """
    c = rng.standard_normal(d)
    c /= np.linalg.norm(c)
    M = c + spread * rng.standard_normal((n, d))
    return ie.UnitVectorSet(M / np.linalg.norm(M, axis=1, keepdims=True))


def random_simplex_point(rng, n):
    w = rng.exponential(1.0, size=n)
    return w / w.sum()
