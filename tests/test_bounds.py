import math

import numpy as np
import pytest

import isoembed as ie
from oracles import unit_rows


def test_spectrum_identity_rows():
    sigma, rank, kappa = ie.singular_spectrum(np.eye(2))
    assert np.allclose(sigma, [1.0, 1.0])
    assert rank == 2 and kappa == pytest.approx(1.0)


def test_spectrum_repeated_row():
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    sigma, rank, kappa = ie.singular_spectrum(X)
    assert sigma[0] == pytest.approx(math.sqrt(2.0))
    assert sigma[1] == pytest.approx(0.0, abs=1e-12)
    assert rank == 1 and kappa == pytest.approx(1.0)


def test_spectrum_sum_equals_n():
    rng = np.random.default_rng(60)
    for _ in range(30):
        n, d = int(rng.integers(2, 50)), int(rng.integers(1, 10))
        X = unit_rows(rng, n, d)
        sigma, _, _ = ie.singular_spectrum(X)
        assert abs(np.square(sigma).sum() - n) <= 1e-8 * n


def test_spectrum_is_n_times_the_uniform_moment_spectrum():
    rng = np.random.default_rng(67)
    for _ in range(10):
        n, d = int(rng.integers(2, 50)), int(rng.integers(1, 10))
        X = unit_rows(rng, n, d)
        M = ie.weighted_moment_matrix(X, np.full(n, 1.0 / n))
        want = np.sqrt(np.clip(n * np.linalg.eigvalsh(M), 0.0, None))[::-1]
        assert np.array_equal(ie.singular_spectrum(X)[0], want)


class _UnreadableRows:
    """Stands in for UnitVectorSet.X: its shape may be read, its entries not."""

    def __init__(self, shape):
        self.shape = shape

    def __array__(self, *args, **kwargs):
        raise AssertionError("a pass over the rows of X")

    def __getitem__(self, key):
        raise AssertionError("a read of a row of X")


def test_bounds_and_pca_reuse_the_runs_uniform_moment(monkeypatch):
    rng = np.random.default_rng(68)
    X = unit_rows(rng, 40, 6)
    fresh = ie.UnitVectorSet(X.X.copy())
    want_bound = ie.approximation_bound(fresh)
    want_V = ie.pca_basis(fresh, 3).V

    ie.run_projected_ascent(X, 3, ie.AscentConfig(T=4))

    def no_pass(*args):
        raise AssertionError("a pass over the directions")

    # every moment build and projection pass of a dense set goes through these
    for method in ("moment", "sq_proj"):
        monkeypatch.setattr(ie.UnitVectorSet, method, no_pass)
    with pytest.raises(AssertionError, match="a pass over the directions"):
        ie.uniform_moment_matrix(ie.UnitVectorSet(X.X.copy()))
    object.__setattr__(X, "X", _UnreadableRows(X.X.shape))
    bound = ie.approximation_bound(X)
    assert np.array_equal(bound.singular_values, want_bound.singular_values)
    assert (bound.bound_sigma, bound.bound_kappa, bound.rank, bound.kappa) == (
        want_bound.bound_sigma,
        want_bound.bound_kappa,
        want_bound.rank,
        want_bound.kappa,
    )
    assert bound.fingerprint == want_bound.fingerprint
    assert np.array_equal(ie.pca_basis(X, 3).V, want_V)


def test_rank_tolerance_must_lie_in_unit_interval():
    for bad in (1.0, 2.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError):
            ie.singular_spectrum(np.eye(2), rank_tol=bad)
        with pytest.raises(ValueError):
            ie.approximation_bound(ie.UnitVectorSet(np.eye(2)), rank_tol=bad)
    assert ie.singular_spectrum(np.eye(2), rank_tol=0.0)[1] == 2


def test_bound_identity_rows():
    rep = ie.approximation_bound(ie.UnitVectorSet(np.eye(2)))
    assert rep.bound_sigma == pytest.approx(2.0)
    assert rep.bound_kappa == pytest.approx(2.0)
    assert rep.spectrum_sum_check == pytest.approx(2.0)


def test_bound_rank_one_is_infinite():
    rep = ie.approximation_bound(ie.UnitVectorSet(np.array([[1.0, 0.0], [1.0, 0.0]])))
    assert math.isinf(rep.bound_sigma) and math.isinf(rep.bound_kappa)
    assert rep.rank == 1 and rep.note is not None


def test_bound_orthonormal_rows_approach_one():
    prev = math.inf
    for d in (2, 4, 8, 16):
        rep = ie.approximation_bound(ie.UnitVectorSet(np.eye(d)))
        assert rep.bound_sigma == pytest.approx(d / (d - 1.0))
        assert rep.bound_sigma < prev
        prev = rep.bound_sigma


def test_bound_sigma_below_bound_kappa():
    rng = np.random.default_rng(61)
    for _ in range(30):
        n, d = int(rng.integers(3, 40)), int(rng.integers(2, 8))
        rep = ie.approximation_bound(unit_rows(rng, n, d))
        if math.isfinite(rep.bound_sigma) and math.isfinite(rep.bound_kappa):
            assert rep.bound_sigma <= rep.bound_kappa + 1e-9
        assert rep.kappa >= 1.0


def test_bound_sigma_matches_spectrum_expression():
    rng = np.random.default_rng(62)
    for _ in range(20):
        X = unit_rows(rng, int(rng.integers(4, 30)), int(rng.integers(2, 6)))
        rep = ie.approximation_bound(X)
        sigma = rep.singular_values
        alt = 1.0 / (1.0 - sigma[0] ** 2 / np.square(sigma[: rep.rank]).sum())
        assert rep.bound_sigma == pytest.approx(alt, rel=1e-10)


def test_sandwich_check_reports_ratio():
    rng = np.random.default_rng(63)
    X = unit_rows(rng, 20, 4)
    res = ie.run_projected_ascent(X, 2, ie.AscentConfig(T=80))
    rep = ie.approximation_bound(X)
    diag = ie.duality_sandwich_check(res, rep)
    assert diag.best_dual <= diag.epsilon + 1e-8
    if diag.best_dual > 0:
        assert diag.certified_ratio == pytest.approx(diag.epsilon / diag.best_dual)


def test_sandwich_check_exact_optimum_case():
    rng = np.random.default_rng(64)
    X = unit_rows(rng, 10, 3)
    res = ie.run_projected_ascent(X, 3, ie.AscentConfig(T=10))  # k = d: exact
    diag = ie.duality_sandwich_check(res, ie.approximation_bound(X))
    assert diag.exact_optimum and diag.certified_ratio is None


def test_sandwich_check_rejects_violation():
    rng = np.random.default_rng(65)
    X = unit_rows(rng, 12, 3)
    res = ie.run_projected_ascent(X, 1, ie.AscentConfig(T=20))
    rep = ie.approximation_bound(X)
    import dataclasses

    forged = dataclasses.replace(res, best_dual_value=res.distortion.epsilon + 0.01)
    with pytest.raises(ie.ContractError):
        ie.duality_sandwich_check(forged, rep)


def test_sandwich_check_rejects_mismatched_data():
    rng = np.random.default_rng(66)
    X1 = unit_rows(rng, 12, 3)
    X2 = unit_rows(rng, 12, 3)
    res = ie.run_projected_ascent(X1, 1, ie.AscentConfig(T=5))
    rep = ie.approximation_bound(X2)
    with pytest.raises(ValueError):
        ie.duality_sandwich_check(res, rep)


def test_sandwich_check_compares_fingerprints_of_bounds_from_raw_rows():
    rng = np.random.default_rng(69)
    X, Y = unit_rows(rng, 20, 4), unit_rows(rng, 20, 4)
    res = ie.run_projected_ascent(X, 2, ie.AscentConfig(T=5))
    assert ie.approximation_bound(X.X.copy()).fingerprint == res.fingerprint
    ie.duality_sandwich_check(res, ie.approximation_bound(X.X.copy()))
    with pytest.raises(ValueError, match="different data sets"):
        ie.duality_sandwich_check(res, ie.approximation_bound(Y.X.copy()))
