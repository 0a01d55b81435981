import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isoembed as ie
from oracles import kkt_simplex_projection


def test_already_on_simplex_is_identity():
    w = ie.project_to_simplex(np.array([0.5, 0.5]))
    assert np.allclose(w.lam, [0.5, 0.5], atol=1e-15)


def test_single_active_coordinate():
    # rho = 1, alpha = -1 by hand
    w = ie.project_to_simplex(np.array([2.0, 0.0]))
    assert np.allclose(w.lam, [1.0, 0.0], atol=1e-15)


def test_full_support_shift():
    # rho = 3, alpha = -1/15
    w = ie.project_to_simplex(np.array([0.6, 0.3, 0.3]))
    assert np.allclose(w.lam, [8.0 / 15.0, 7.0 / 30.0, 7.0 / 30.0], atol=1e-15)


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        ie.project_to_simplex(np.array([1.0, np.inf]))


def test_matches_kkt_oracle():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        y = rng.normal(0.0, 2.0, size=n)
        got = ie.project_to_simplex(y).lam
        want = kkt_simplex_projection(y)
        assert np.abs(got - want).max() <= 1e-9


@st.composite
def tied_vectors(draw):
    """Up to 8 entries drawn from a pool of at most 8 values, so ties are common."""
    pool = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    n = draw(st.integers(1, 8))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(tied_vectors())
def test_matches_kkt_oracle_with_ties_and_large_magnitudes(y):
    got = ie.project_to_simplex(y).lam
    # The oracle shifts the raw entries, so its rounding grows with them.
    scale = max(1.0, float(np.abs(y).max()))
    assert np.abs(got - kkt_simplex_projection(y)).max() <= 1e-12 * scale
    assert ie.is_on_simplex(got)


def test_output_feasible_and_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(200):
        y = rng.normal(0.0, 3.0, size=int(rng.integers(1, 30)))
        w = ie.project_to_simplex(y)
        assert ie.is_on_simplex(w, tol=1e-9)
        again = ie.project_to_simplex(w.lam)
        assert np.abs(again.lam - w.lam).max() <= 1e-12


def test_permutation_equivariance():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        y = rng.normal(0.0, 2.0, size=n)
        perm = rng.permutation(n)
        direct = ie.project_to_simplex(y[perm]).lam
        permuted = ie.project_to_simplex(y).lam[perm]
        assert np.abs(direct - permuted).max() <= 1e-12


def test_translation_invariance():
    rng = np.random.default_rng(9)
    for _ in range(100):
        y = rng.normal(0.0, 2.0, size=int(rng.integers(1, 15)))
        c = rng.normal(0.0, 10.0)
        a = ie.project_to_simplex(y).lam
        b = ie.project_to_simplex(y + c).lam
        assert np.abs(a - b).max() <= 1e-9


@pytest.mark.parametrize(
    "w, tol, expected",
    [
        ([0.25, 0.25, 0.25, 0.25], 1e-9, True),
        ([1.1, -0.1], 1e-9, False),
        ([0.5, 0.5 + 1e-12], 1e-9, True),
    ],
)
def test_is_on_simplex(w, tol, expected):
    assert ie.is_on_simplex(np.array(w), tol=tol) is expected
