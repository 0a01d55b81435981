"""Euclidean projection onto the standard probability simplex.

The projection sorts descending, finds the largest prefix whose shifted
entries stay positive, shifts by the corresponding constant and clips. The
result is the unique nearest point of {w : w_i >= 0, sum w_i = 1}.

The vector is first shifted by its largest entry, and every shifted entry
below -2 is raised to -2. The threshold lies within 1 of the largest entry,
so those entries are outside the support and still project to 0, and a
finite input whose spread exceeds the float range, such as [1.7e308,
-1.7e308, 1.0], projects without overflow.

Only a candidate set is sorted. The projection is max(z - tau*, 0) for the
threshold tau*, and every set c of entries gives a lower bound
tau_c = (sum(c) - 1)/|c| <= tau*, since sum_c (z_i - tau*) <= 1. The
entries above a threshold t <= tau_c therefore hold the support.
Michelot's iteration (J. Optim. Theory Appl. 1986; Condat, Math. Program.
2016) keeps the entries above tau_c and repeats; tau_c rises to tau*. The
input of the last round that removed an entry holds the support and at
least one entry outside it. It is the top of the vector, so its descending
sort and prefix sums are bitwise the first entries of the full sort's, and
a prefix length rho that stops short of its last entry is the full sort's
rho. When rho reaches the last candidate, every entry is sorted instead.
The output is bitwise that of sorting every entry.

The rounds start near tau*, not at the mean of every entry, and run on a
copy, so no round reads or writes a vector as long as the input. t is the
threshold that puts mass _SAMPLE_MASS / _SAMPLE_STRIDE above it on every
_SAMPLE_STRIDE-th entry, so about _SAMPLE_MASS in all, a little more than
the support's 1. The entries above t are copied out once, _CHUNK_ENTRIES
at a time: on the perfbench inputs they are 1.02-1.10 times the support,
and the first round on them usually ends the rounds. A t above tau_c may
have cut off part of the support, so the entries above tau_c are copied
out again. A first round that removes nothing has the support itself as
its input (every entry outside it is at most t <= tau_c), and the largest
entry outside it is added, with its ties. Michelot's rounds from every
entry, which earlier versions ran, read the whole input three to six
times and compacted its top half into a new vector.

The rounds stop once one removes less than MIN_ROUND_SHRINK of its input.
Each earlier round shrank the set by at least that share, so the rounds
scan at most about |c| / MIN_ROUND_SHRINK entries in all, and an input whose
rounds each remove a little costs about one sort of the copy.

The copy is sorted in place, and its prefix sums and test run on
_PREFIX_ENTRIES entries at a time, each chunk's running sum seeded with
the last chunk's, so they are bitwise one cumsum over the copy. Only the
fall-back to every entry makes a temporary as long as the input.
"""

from __future__ import annotations

import numpy as np

from .types import SIMPLEX_TOL, SimplexWeights, weights_vector

# The first candidate round that removes less than this share of its input
# is the last (module docstring).
MIN_ROUND_SHRINK = 0.1

# The candidates are copied out of the input this many entries at a time
# (module docstring): 512 KB of float64.
_CHUNK_ENTRIES = 1 << 16

# The start threshold is read from every _SAMPLE_STRIDE-th entry, set so
# that about _SAMPLE_MASS of mass lies above it (module docstring).
_SAMPLE_STRIDE = 32
_SAMPLE_MASS = 1.1

# The prefix test runs on this many sorted candidates at a time: three
# buffers of 128 KB.
_PREFIX_ENTRIES = 1 << 14


def _chunks(z):
    return (z[i : i + _CHUNK_ENTRIES] for i in range(0, z.size, _CHUNK_ENTRIES))


def _above(z, t) -> np.ndarray:
    """The entries of z above t, in order, as a new vector built chunk by
    chunk: np.compress over the whole of z would form an index array as
    long as its output."""
    out = np.empty(sum(np.count_nonzero(c > t) for c in _chunks(z)))
    a = 0
    for c in _chunks(z):
        j = np.flatnonzero(c > t)
        # The indices are in range; "clip" skips the check and, unlike
        # "raise", writes to out without an intermediate buffer.
        np.take(c, j, out=out[a : a + j.size], mode="clip")
        a += j.size
    return out


def _start_threshold(z) -> float:
    """The threshold of projecting every _SAMPLE_STRIDE-th entry of z onto
    the simplex scaled to _SAMPLE_MASS / _SAMPLE_STRIDE: max_j (sum of the
    j largest - mass) / j."""
    u = np.sort(z[::_SAMPLE_STRIDE])[::-1]
    css = np.cumsum(u)
    css -= _SAMPLE_MASS / _SAMPLE_STRIDE
    css /= np.arange(1, u.size + 1)
    return float(css.max())


def _support_superset(z: np.ndarray) -> np.ndarray:
    """A new vector of the top entries of z that hold the projection's
    support and, unless they are all of z, at least one entry more
    (module docstring)."""
    t = _start_threshold(z)
    while True:
        c = _above(z, t)
        tau = (c.sum() - 1.0) / c.size
        if t <= tau:
            break
        t = tau  # a lower bound of the threshold: c grows, to the support
    cand = None
    while True:
        kept = np.count_nonzero(c > tau)
        if kept == c.size:
            break
        if kept > (1.0 - MIN_ROUND_SHRINK) * c.size:
            return c
        cand, c = c, _above(c, tau)
        tau = (c.sum() - 1.0) / c.size
    if cand is not None:
        return cand
    if c.size == z.size:
        return c
    # c is the support and every other entry is at most t: add the largest
    # of them, and its ties, which keeps the copy the top of z.
    below = max(np.max(b, where=b <= t, initial=-np.inf) for b in _chunks(z))
    return _above(z, np.nextafter(below, -np.inf))


def _prefix_test(u: np.ndarray) -> tuple[int, float]:
    """rho and the sum of the rho largest entries for u sorted ascending:
    rho is the last j (1-based, in descending order) with
    y_(j) + (1 - sum_{i<=j} y_(i))/j > 0."""
    h = min(u.size, _PREFIX_ENTRIES)
    css, test = np.empty(h), np.empty(h)
    j = np.arange(1.0, h + 1.0)
    rho, top, total = 0, 0.0, 0.0
    for hi in range(u.size, 0, -h):
        v = u[max(hi - h, 0) : hi][::-1]
        m = v.size
        s = css[:m]
        s[...] = v
        s[0] += total  # seeded: the chunks' sums are one cumsum's
        np.cumsum(s, out=s)
        total = s[-1]
        # The test u_j + (1 - css_j) / j in one buffer.
        w = np.subtract(1.0, s, out=test[:m])
        w /= j[:m]
        w += v
        passed = np.flatnonzero(w > 0.0)
        if passed.size:
            rho, top = int(j[passed[-1]]), float(s[passed[-1]])
        j += h
    return rho, top


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
    # 0 and are exact differences, so large inputs do not cancel below. The
    # entries below -2, an overflowed -inf among them, are raised to -2
    # (module docstring), so no prefix sum overflows.
    with np.errstate(over="ignore"):
        z -= z.max()
    np.maximum(z, -2.0, out=z)
    c = _support_superset(z)
    c.sort()
    rho, top = _prefix_test(c)
    # j = 1 always qualifies (u_1 + 1 - u_1 = 1 > 0), so rho >= 1. rho
    # below the candidate count is rho of the full sort.
    if rho == c.size < z.size:
        del c
        c = z.copy()
        c.sort()
        rho, top = _prefix_test(c)
    del c
    z += (1.0 - top) / rho
    return np.maximum(z, 0.0, out=z)


def is_on_simplex(w, tol: float = SIMPLEX_TOL) -> bool:
    """True iff min w_i >= -tol and |sum w_i - 1| <= tol."""
    w = weights_vector(w)
    if not np.isfinite(w).all():
        raise ValueError("input contains non-finite entries")
    return bool(w.min() >= -tol and abs(w.sum() - 1.0) <= tol)
