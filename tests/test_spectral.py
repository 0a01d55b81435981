import tracemalloc

import numpy as np
import pytest

import isoembed as ie
from isoembed import types as types_module
from oracles import random_simplex_point, unit_rows


def test_moment_matrix_axis_aligned():
    X = np.eye(2)
    assert np.allclose(
        ie.weighted_moment_matrix(X, np.array([0.5, 0.5])), np.diag([0.5, 0.5])
    )
    assert np.allclose(
        ie.weighted_moment_matrix(X, np.array([1.0, 0.0])), [[1.0, 0.0], [0.0, 0.0]]
    )
    assert np.allclose(
        ie.weighted_moment_matrix(X, np.array([0.75, 0.25])), np.diag([0.75, 0.25])
    )
    # -0.0 is a nonnegative weight
    assert np.array_equal(
        ie.weighted_moment_matrix(X, np.array([-0.0, 1.0])), [[0.0, 0.0], [0.0, 1.0]]
    )


def test_moment_matrix_shape_mismatch():
    with pytest.raises(ie.ShapeError):
        ie.weighted_moment_matrix(np.eye(2), np.array([0.5, 0.25, 0.25]))
    with pytest.raises(ie.ShapeError, match="X must be a 2-d matrix"):
        ie.weighted_moment_matrix(np.ones(3), np.full(3, 1.0 / 3.0))
    with pytest.raises(ie.ShapeError, match="X must be non-empty"):
        ie.weighted_moment_matrix(np.ones((0, 3)), np.ones(0))


def test_moment_matrix_trace_and_psd():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 9))
        X = unit_rows(rng, n, d)
        lam = random_simplex_point(rng, n)
        M = ie.weighted_moment_matrix(X, lam)
        assert abs(np.trace(M) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(M).min() >= -1e-10
        assert np.array_equal(M, M.T)
        reference = np.einsum("i,ij,ik->jk", lam, X.X, X.X)
        assert np.abs(M - reference).max() <= 1e-14


def test_moment_matrix_at_full_support_is_bitwise_the_all_rows_product():
    rng = np.random.default_rng(26)
    for n, d in [(1, 1), (7, 3), (300, 12), (2000, 40)]:
        X = unit_rows(rng, n, d).X
        w = random_simplex_point(rng, n)
        assert (w > 0.0).all()
        A = X * np.sqrt(w)[:, None]
        assert np.array_equal(ie.weighted_moment_matrix(X, w), A.T @ A)


def test_moment_matrix_with_zero_weights_is_the_dense_sum():
    rng = np.random.default_rng(27)
    X = unit_rows(rng, 400, 6).X
    w = random_simplex_point(rng, 400)
    w[rng.random(400) < 0.8] = 0.0
    w[:3] = [0.0, -0.0, 0.0]
    w /= w.sum()
    M = ie.weighted_moment_matrix(X, w)
    assert np.abs(M - np.einsum("i,ij,ik->jk", w, X, X)).max() <= 1e-14
    # Every row is read, so a raw NaN row of weight 0 turns M into NaN,
    # which top_k_eigenpairs refuses.
    X = X.copy()
    X[:3] = np.nan
    M = ie.weighted_moment_matrix(X, w)
    assert np.isnan(M).all()
    with pytest.raises(ie.ContractError, match="non-finite"):
        ie.top_k_eigenpairs(M, 1)


def test_moment_matrix_of_all_zero_weights_is_zero():
    X = unit_rows(np.random.default_rng(28), 10, 4)
    M = ie.weighted_moment_matrix(X, np.zeros(10))
    assert M.shape == (4, 4) and np.array_equal(M, np.zeros((4, 4)))


@pytest.mark.parametrize("height", [1, 3])
def test_row_blocks_sum_in_order(monkeypatch, height):
    # 40 rows, 8 of positive weight: one-row blocks, or blocks of three
    # with a last block of one row. A zero-weight row adds exactly 0.
    rng = np.random.default_rng(30)
    n, d = 40, 5
    monkeypatch.setattr(types_module, "_ROW_BLOCK_ENTRIES", height * d)
    X = unit_rows(rng, n, d).X
    w = np.zeros(n)
    keep = np.sort(rng.choice(n, 8, replace=False))
    w[keep] = random_simplex_point(rng, 8)
    M = ie.weighted_moment_matrix(X, w)
    products = []
    for a in range(0, n, height):
        A = X[a : a + height] * np.sqrt(w[a : a + height])[:, None]
        products.append(A.T @ A)
    expected = products[0]
    for P in products[1:]:
        expected = expected + P
    assert len(products) == {1: 40, 3: 14}[height] and np.array_equal(M, expected)
    assert np.array_equal(M, M.T)
    assert np.abs(M - np.einsum("i,ij,ik->jk", w, X, X)).max() <= 1e-14
    assert np.array_equal(ie.weighted_moment_matrix(X, np.zeros(n)), np.zeros((d, d)))


def test_moment_matrix_memory_is_one_block_at_full_support():
    rng = np.random.default_rng(31)
    n, d = 100_000, 20
    X = unit_rows(rng, n, d)
    w = random_simplex_point(rng, n)
    assert (w > 0.0).all()
    tracemalloc.start()
    try:
        ie.weighted_moment_matrix(X, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One product of every row peaks at 1.11x the input. Blocks peak
    # at 0.142x: one block of 2 MB and the square roots of its weights.
    assert peak <= 0.16 * X.X.nbytes


@pytest.mark.parametrize("height", [1, 3])
def test_row_sq_proj_writes_each_block_in_place(monkeypatch, height):
    # 40 rows: one-row blocks, or blocks of three with a last block of one row.
    rng = np.random.default_rng(32)
    n, d = 40, 5
    monkeypatch.setattr(types_module, "_ROW_BLOCK_ENTRIES", height * d)
    U = unit_rows(rng, n, d)
    X = U.X
    V = ie.random_orthonormal_basis(d, 2, seed=3).V
    s = U.sq_proj(V)
    blocks = [X[a : a + height] @ V for a in range(0, n, height)]
    assert s.tobytes() == np.concatenate([np.einsum("ij,ij->i", Y, Y) for Y in blocks]).tobytes()
    assert np.abs(s - np.square(X @ V).sum(axis=1)).max() <= 1e-15


def test_row_sq_proj_memory_is_one_block():
    rng = np.random.default_rng(33)
    X = unit_rows(rng, 100_000, 20)
    V = ie.random_orthonormal_basis(20, 10, seed=4).V
    tracemalloc.start()
    try:
        s = X.sq_proj(V)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One X @ V product peaks at 11x the output: its 8 MB of n x k entries
    # and s. Blocks of 2^18 entries of X peak at 2.3x: s and one block's
    # 1 MB product.
    assert peak <= 3.0 * s.nbytes


@pytest.mark.parametrize(
    "fn, error",
    [
        (ie.weighted_moment_matrix, ValueError),
        (lambda X, w: ie.dual_objective(X, w, 1), ValueError),
        (lambda X, w: ie.dual_gradient(X, w, 1), ValueError),
        (lambda X, w: ie.SimplexWeights(w), ie.ContractError),
    ],
    ids=["weighted_moment_matrix", "dual_objective", "dual_gradient", "SimplexWeights"],
)
@pytest.mark.parametrize(
    "bad, message",
    [(-1e-12, "negative weight at index 3"), (np.nan, "NaN weight at index 3")],
    ids=["negative", "nan"],
)
def test_moment_weights_must_be_nonnegative(fn, error, bad, message):
    # the first bad weight is named, not the most negative one (index 5)
    w = np.array([0.5, 0.25, bad, 0.25, -1.0])
    with pytest.raises(error, match=message):
        fn(np.eye(5), w)


def test_uniform_moment_matrix_is_the_cached_read_only_t0_matrix():
    rng = np.random.default_rng(25)
    rows = unit_rows(rng, 30, 5)
    pairs = ie.pairwise_unit_differences(ie.PointSet(rng.standard_normal((9, 5))))
    # Pair directions build M from a Laplacian, their raw rows densely.
    for X, raw_atol in ((rows, 0.0), (pairs, 1e-15)):
        M = ie.uniform_moment_matrix(X)
        assert np.array_equal(M, ie.weighted_moment_matrix(X, np.full(X.n, 1.0 / X.n)))
        assert ie.uniform_moment_matrix(X) is M
        raw = ie.uniform_moment_matrix(X.X)
        assert np.allclose(raw, M, rtol=0.0, atol=raw_atol) and raw is not M
        for m in (M, raw):
            assert not m.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 1.0


def test_top_k_diagonal_cases():
    M = np.diag([0.75, 0.25])
    s1 = ie.top_k_eigenpairs(M, 1)
    assert np.allclose(s1.eigenvalues, [0.75])
    assert np.allclose(s1.basis.V[:, 0], [1.0, 0.0])
    assert s1.spectral_gap == pytest.approx(0.5)

    s2 = ie.top_k_eigenpairs(M, 2)
    assert np.allclose(s2.eigenvalues, [0.75, 0.25])
    assert np.allclose(np.abs(s2.basis.V), np.eye(2))
    # sign convention: the dominant entry of each column is positive
    assert (s2.basis.V[np.argmax(np.abs(s2.basis.V), axis=0), [0, 1]] > 0).all()


def test_top_k_degenerate_spectrum_reports_zero_gap():
    s = ie.top_k_eigenpairs(0.5 * np.eye(2), 1)
    assert s.eigenvalues[0] == pytest.approx(0.5)
    assert s.spectral_gap == pytest.approx(0.0, abs=1e-12)


def test_top_k_rejects_asymmetry_and_bad_k():
    with pytest.raises(ie.ContractError):
        ie.top_k_eigenpairs(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
    for bad in (3, 0, 1.0, True, np.float64(2.0)):
        with pytest.raises(ValueError, match="k must be an integer in"):
            ie.top_k_eigenpairs(np.eye(2), bad)


@pytest.mark.parametrize(
    "entries",
    [{(0, 0): np.nan}, {(0, 1): np.inf, (1, 0): np.inf}],
    ids=["nan-diagonal", "inf-symmetric-pair"],
)
def test_top_k_rejects_non_finite_matrices(entries):
    M = np.eye(3)
    for ij, v in entries.items():
        M[ij] = v
    with pytest.raises(ie.ContractError, match="matrix contains non-finite entries"):
        ie.top_k_eigenpairs(M, 1)


def test_spectral_invariants_random():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n, d = int(rng.integers(2, 30)), int(rng.integers(2, 8))
        k = int(rng.integers(1, d + 1))
        X = unit_rows(rng, n, d)
        lam = random_simplex_point(rng, n)
        M = ie.weighted_moment_matrix(X, lam)
        state = ie.top_k_eigenpairs(M, k)
        mu, V = state.eigenvalues, state.basis.V
        assert (np.diff(mu) <= 1e-15).all() and mu.min() >= 0.0
        # eigen-residual
        assert np.linalg.norm(M @ V - V * mu, axis=0).max() <= 1e-8
        # orthonormality
        assert np.abs(V.T @ V - np.eye(k)).max() <= 1e-10
        # partial sums cannot exceed the trace
        assert mu.sum() <= 1.0 + 1e-10
        # rank(M) <= rank(X)
        rank_m = int((np.linalg.eigvalsh(M) > 1e-10).sum())
        rank_x = np.linalg.matrix_rank(X.X, tol=1e-10)
        assert rank_m <= rank_x


def test_sign_convention_is_deterministic():
    rng = np.random.default_rng(23)
    X = unit_rows(rng, 25, 5)
    lam = random_simplex_point(rng, 25)
    M = ie.weighted_moment_matrix(X, lam)
    a = ie.top_k_eigenpairs(M, 3).basis.V
    b = ie.top_k_eigenpairs(M.copy(), 3).basis.V
    assert np.array_equal(a, b)
    idx = np.argmax(np.abs(a), axis=0)
    assert (a[idx, np.arange(3)] > 0).all()


def test_full_spectrum_sums_to_one():
    rng = np.random.default_rng(24)
    X = unit_rows(rng, 18, 6)
    lam = random_simplex_point(rng, 18)
    state = ie.top_k_eigenpairs(ie.weighted_moment_matrix(X, lam), 6)
    assert state.eigenvalues.sum() == pytest.approx(1.0, abs=1e-10)
