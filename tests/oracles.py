"""Independent reference implementations used to cross-check the library.

Everything here is deliberately brute force and shares no code with the
implementations under test; the grid search only draws its fallback
candidates with the library's seeded ``random_orthonormal_basis``.
"""

import math

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


def sort_simplex_projection(y):
    """Simplex projection by sorting every entry, the bitwise reference for
    the library's projection, which runs the same formula after raising
    the entries more than 2 below the largest to that floor."""
    y = np.asarray(y, dtype=np.float64)
    z = y - y.max()
    u = np.sort(z)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, y.size + 1)
    rho = int(np.nonzero(u + (1.0 - css) / j > 0.0)[0][-1]) + 1
    alpha = (1.0 - css[rho - 1]) / rho
    z += alpha
    return np.maximum(z, 0.0, out=z)


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


def _epsilon_for_directions(Xm, D):
    # D: m x d candidate unit directions; epsilon per direction in one shot.
    proj2 = np.square(Xm @ D.T)  # n x m
    return 1.0 - proj2.min(axis=0)


def grid_search_optimum(X, k, resolution):
    """Brute-force near-optimal embedding for desk-scale instances.

    k = 1 in d = 2 scans an angle grid over the half circle, k = 1 in
    d = 3 a Fibonacci sphere lattice; any other combination with d <= 4
    falls back to scoring ``resolution`` seeded random orthonormal bases.
    Returns (basis, epsilon). The reported epsilon upper-bounds the true
    optimum by construction and is non-increasing under nested grids.
    """
    if resolution < 100:
        raise ValueError(f"resolution must be >= 100, got {resolution}")
    Xm = X.X if isinstance(X, ie.UnitVectorSet) else np.asarray(X, dtype=float)
    n, d = Xm.shape
    if not (1 <= k <= d):
        raise ValueError(f"k must be in [1, {d}], got {k}")

    if k == 1 and d == 2:
        theta = np.pi * np.arange(resolution) / resolution
        D = np.column_stack([np.cos(theta), np.sin(theta)])
    elif k == 1 and d == 3:
        i = np.arange(resolution)
        z = 1.0 - (2.0 * i + 1.0) / resolution
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        D = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    elif d <= 4:
        best_eps = math.inf
        best = None
        for s in range(resolution):
            B = ie.random_orthonormal_basis(d, k, seed=s)
            eps = float((1.0 - np.square(Xm @ B.V).sum(axis=1)).max())
            if eps < best_eps:
                best_eps, best = eps, B
        return best, best_eps
    else:
        raise ValueError(
            f"grid search supports k = 1 with d <= 3, or d <= 4; got d={d}, k={k}"
        )

    eps_all = _epsilon_for_directions(Xm, D)
    j = int(np.argmin(eps_all))
    v = D[j] / np.linalg.norm(D[j])
    return ie.OrthonormalBasis(v[:, None]), float(eps_all[j])


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


def frame_rows(rng, d, noise=0.0):
    """The rows of a seeded d x d orthogonal matrix Q, an instance whose
    optimum is known. For every rank-k projector P the squared lengths
    x_i'P x_i sum to trace(P) = k, so some row keeps at most k/d and
    epsilon >= 1 - k/d; uniform weights give M = Q'Q/d = I/d and a dual of
    1 - k/d, so the optimum is exactly 1 - k/d. With ``noise`` each entry
    gets N(0, (noise/sqrt(d))^2) and the rows are renormalised; the optimum
    is then unknown, but weak duality still holds."""
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    if noise:
        Q = Q + noise / math.sqrt(d) * rng.standard_normal((d, d))
        Q /= np.linalg.norm(Q, axis=1, keepdims=True)
    return ie.UnitVectorSet(Q)


def anisotropic_clusters(r, d, clusters, decay, spread, layout_seed, seed):
    """r points in a mixture of anisotropic Gaussian clusters, with the
    scale decay**j in dimension j, around isotropic centres of scale
    spread: the layout of the benchmark's workloads. layout_seed fixes the
    centres, seed the cluster memberships and the points."""
    centres = spread * np.random.default_rng(layout_seed).standard_normal((clusters, d))
    rng = np.random.default_rng(seed)
    labels = np.arange(r) % clusters
    rng.shuffle(labels)
    return centres[labels] + rng.standard_normal((r, d)) * decay ** np.arange(d)


def random_simplex_point(rng, n):
    w = rng.exponential(1.0, size=n)
    return w / w.sum()
