import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isoembed as ie
from isoembed import ascent
from oracles import kkt_simplex_projection, sort_simplex_projection


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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


@pytest.mark.parametrize(
    "y, want", [([1.7e308, -1.7e308, 1.0, 0.5], [1.0, 0.0, 0.0, 0.0]), ([1e308, -1e308], [1.0, 0.0])]
)
def test_a_finite_input_spread_past_the_float_range_projects(y, want):
    # Shifted by the largest entry, -1.7e308 overflows to -inf. Unclipped,
    # the prefix sums turn it into an inf alpha (a NaN weight) or into
    # overflow and invalid-value warnings, errors under the suite's
    # filterwarnings.
    assert same_bits(ie.project_to_simplex(np.array(y)).lam, np.array(want))


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
    assert same_bits(got, sort_simplex_projection(y))


A, B = -0.1, -0.6000000000000001


@pytest.mark.parametrize(
    "y, support",
    [
        (np.array([0.3]), 1),
        # every entry keeps a positive weight
        (np.full(5000, 1.0 / 5000) + np.random.default_rng(10).normal(0.0, 1e-6, 5000), 5000),
        # one entry takes all the weight
        (np.concatenate([[5.0], np.random.default_rng(11).normal(0.0, 1.0, 5000)]), 1),
        # Shifted by the largest, six entries tie at the threshold -0.6 and
        # get zero weight; rounding leaves the seven at -0.1 a weight of
        # 2^-53 each.
        (np.array([A, B, A, A, A, B, 0.30000000000000004, B, A, A, 0.5, B, A, B]), 9),
    ],
    ids=["n=1", "full-support", "single-entry-support", "tie-at-threshold"],
)
def test_matches_the_full_sort_bitwise(y, support):
    got = ie.project_to_simplex(y).lam
    assert np.count_nonzero(got) == support
    assert same_bits(got, sort_simplex_projection(y))


def test_every_step_of_a_pairwise_run_matches_the_full_sort(monkeypatch):
    rng = np.random.default_rng(12)
    centres = 3.0 * rng.standard_normal((8, 6))
    P = centres[rng.integers(0, 8, 200)] + 0.3 * rng.standard_normal((200, 6))
    units = ie.pairwise_unit_differences(ie.PointSet(P))
    ys, lams = [], []
    real = ascent._project_in_place

    def recording(y):
        ys.append(y.copy())
        lam = real(y)
        lams.append(lam)
        return lam

    monkeypatch.setattr(ascent, "_project_in_place", recording)
    ascent._paper_rule_ascent(units, 2, ie.AscentConfig(T=30))
    assert units.n == 19_900 and len(ys) == 30
    for y, lam in zip(ys, lams):
        assert same_bits(ie.project_to_simplex(y).lam, sort_simplex_projection(y))
        assert same_bits(lam, sort_simplex_projection(y))  # the in-place projection too


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
