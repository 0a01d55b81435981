import math

import numpy as np
import pytest

import isoembed as ie
from oracles import grid_search_optimum, unit_rows


def test_pca_basis_hand_value():
    X = ie.UnitVectorSet(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    V = ie.pca_basis(X, 1).V
    assert np.allclose(V[:, 0], [1.0, 0.0], atol=1e-12)


def test_pca_full_basis_identity():
    # the uniform moment matrix of I2 is 0.5*I: the spectrum is degenerate,
    # so any signed permutation of the identity is a valid answer
    V = ie.pca_basis(np.eye(2), 2).V
    assert np.allclose(np.abs(V) @ np.abs(V).T, np.eye(2), atol=1e-12)
    assert np.allclose(np.sort(np.abs(V).ravel()), [0.0, 0.0, 1.0, 1.0], atol=1e-12)


def test_pca_single_row():
    X = ie.UnitVectorSet(np.array([[0.6, 0.8]]))
    V = ie.pca_basis(X, 1).V
    assert np.allclose(np.abs(V[:, 0]), [0.6, 0.8], atol=1e-12)


def test_pca_equals_uniform_moment_eigenvectors_exactly():
    rng = np.random.default_rng(50)
    X = unit_rows(rng, 23, 6)
    direct = ie.pca_basis(X, 3).V
    M = ie.weighted_moment_matrix(X, np.full(23, 1.0 / 23))
    via_spectral = ie.top_k_eigenpairs(M, 3).basis.V
    assert np.array_equal(direct, via_spectral)


def test_pca_k_out_of_range():
    with pytest.raises(ValueError):
        ie.pca_basis(np.eye(2), 3)


def test_random_basis_orthonormal_and_deterministic():
    a = ie.random_orthonormal_basis(5, 5, seed=7)
    assert np.abs(a.V.T @ a.V - np.eye(5)).max() <= 1e-10
    b = ie.random_orthonormal_basis(5, 5, seed=7)
    assert np.array_equal(a.V, b.V)
    c = ie.random_orthonormal_basis(5, 5, seed=8)
    assert not np.array_equal(a.V, c.V)


def test_random_basis_k_exceeds_d():
    for bad in (4, 2.0):
        with pytest.raises(ValueError, match="k must be an integer in"):
            ie.random_orthonormal_basis(3, bad, seed=1)


def test_grid_two_orthogonal_vectors():
    basis, eps = grid_search_optimum(np.eye(2), 1, 10000)
    assert eps == pytest.approx(0.5, abs=1e-6)
    assert np.allclose(np.abs(basis.V[:, 0]), [1 / math.sqrt(2)] * 2, atol=1e-3)


def test_grid_single_row_exact_recovery():
    X = ie.UnitVectorSet(np.array([[0.6, 0.8]]))
    _, eps = grid_search_optimum(X, 1, 10000)
    assert eps <= 1e-7


def test_grid_three_vector_example():
    s = 1.0 / math.sqrt(2.0)
    X = np.array([[1.0, 0.0], [0.0, 1.0], [s, s]])
    basis, eps = grid_search_optimum(X, 1, 10000)
    assert eps == pytest.approx(0.5, abs=1e-6)
    assert np.allclose(np.abs(basis.V[:, 0]), [s, s], atol=1e-3)


def test_grid_nested_resolutions_monotone():
    rng = np.random.default_rng(51)
    X = unit_rows(rng, 12, 2)
    _, coarse = grid_search_optimum(X, 1, 500)
    _, fine = grid_search_optimum(X, 1, 1000)  # contains the coarse grid
    assert fine <= coarse + 1e-15


def test_grid_sphere_and_random_fallback():
    rng = np.random.default_rng(52)
    X3 = unit_rows(rng, 10, 3)
    _, eps3 = grid_search_optimum(X3, 1, 2000)
    assert 0.0 <= eps3 <= 1.0
    X4 = unit_rows(rng, 10, 4)
    basis, eps4 = grid_search_optimum(X4, 2, 200)
    assert 0.0 <= eps4 <= 1.0
    assert np.abs(basis.V.T @ basis.V - np.eye(2)).max() <= 1e-10


def test_grid_rejects_unsupported():
    with pytest.raises(ValueError):
        grid_search_optimum(np.eye(5), 1, 1000)  # d = 5 unsupported
    with pytest.raises(ValueError):
        grid_search_optimum(np.eye(2), 1, 50)  # resolution too small


def test_grid_upper_bounds_ascent_never_contradicts():
    # the grid value upper-bounds the optimum, the ascent value does too;
    # both must sit above the best dual value seen
    rng = np.random.default_rng(53)
    X = unit_rows(rng, 15, 3)
    _, grid_eps = grid_search_optimum(X, 1, 5000)
    res = ie.run_projected_ascent(X, 1, ie.AscentConfig(T=300))
    assert res.best_dual_value <= grid_eps + 1e-8
    assert res.best_dual_value <= res.distortion.epsilon + 1e-8
