import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isoembed as ie
from isoembed import ascent
from isoembed import pairs as pairs_module
from isoembed import types as types_module
from oracles import clustered_rows, fd_dual_gradient, frame_rows, random_simplex_point, unit_rows


# ---------------------------------------------------------------- objective


def test_dual_objective_hand_value():
    X = np.eye(2)
    assert ie.dual_objective(X, np.array([0.75, 0.25]), 1) == pytest.approx(0.25)
    assert ie.dual_objective(X, np.array([0.5, 0.5]), 1) == pytest.approx(0.5)


def test_dual_objective_full_dimension_is_zero():
    rng = np.random.default_rng(31)
    X = unit_rows(rng, 12, 4)
    lam = random_simplex_point(rng, 12)
    assert ie.dual_objective(X, lam, 4) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------- gradient


def test_dual_gradient_hand_value():
    X = np.eye(2)
    g = ie.dual_gradient(X, np.array([0.75, 0.25]), 1)
    assert np.allclose(g, [-1.0, 0.0], atol=1e-12)


def test_dual_gradient_full_dimension_all_minus_one():
    rng = np.random.default_rng(32)
    X = unit_rows(rng, 10, 3)
    lam = random_simplex_point(rng, 10)
    g = ie.dual_gradient(X, lam, 3)
    assert np.allclose(g, -1.0, atol=1e-12)


def test_dual_gradient_single_row():
    X = ie.UnitVectorSet(np.array([[1.0, 0.0]]))
    g = ie.dual_gradient(X, np.array([1.0]), 1)
    assert np.allclose(g, [-1.0], atol=1e-12)


def test_dual_gradient_range_and_norm():
    rng = np.random.default_rng(33)
    for _ in range(20):
        n, d = int(rng.integers(2, 25)), int(rng.integers(2, 7))
        k = int(rng.integers(1, d + 1))
        X = unit_rows(rng, n, d)
        g = ie.dual_gradient(X, random_simplex_point(rng, n), k)
        assert g.min() >= -1.0 - 1e-12 and g.max() <= 1e-12
        assert np.linalg.norm(g) <= math.sqrt(n) + 1e-12


def test_dual_gradient_matches_finite_differences():
    rng = np.random.default_rng(34)
    checked = 0
    while checked < 20:
        n = int(rng.integers(5, 31))
        d = int(rng.integers(3, 11))
        k = int(rng.integers(1, 4))
        if k >= d:
            continue
        X = unit_rows(rng, n, d)
        lam = random_simplex_point(rng, n)
        state = ie.top_k_eigenpairs(ie.weighted_moment_matrix(X, lam), k)
        if state.spectral_gap <= 1e-3:
            continue  # keep the difference quotient well conditioned
        analytic = ie.dual_gradient(X, lam, k)
        numeric = fd_dual_gradient(X, lam, k, h=1e-6)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-12)
        assert rel.max() <= 1e-4
        checked += 1


# ---------------------------------------------------------------- distortion


def test_primal_distortion_hand_values():
    X = np.eye(2)
    s = 1.0 / math.sqrt(2.0)
    rep = ie.primal_distortion(X, np.array([[s], [s]]))
    assert isinstance(rep, ie.WorstDistortion) and not hasattr(rep, "phi")
    assert rep.epsilon == pytest.approx(0.5)

    rep = ie.primal_distortion(X, np.array([[1.0], [0.0]]))
    assert rep.epsilon == pytest.approx(1.0)
    assert rep.argmax == 1  # 0-based: the second vector is fully crushed


def test_primal_distortion_full_basis_is_isometry():
    rng = np.random.default_rng(35)
    X = unit_rows(rng, 14, 5)
    B = ie.random_orthonormal_basis(5, 5, seed=1)
    rep = ie.primal_distortion(X, B)
    assert 0.0 <= rep.epsilon <= 1e-12


def test_primal_distortion_rejects_non_orthonormal():
    with pytest.raises(ie.ContractError):
        ie.primal_distortion(np.eye(2), np.array([[1.0], [1.0]]))
    with pytest.raises(ie.ShapeError):
        ie.primal_distortion(np.eye(2), np.eye(3))


def _dense_worst(X, V):
    phi = np.clip(1.0 - X.sq_proj(V), 0.0, None)
    return phi.max(), int(np.argmax(phi))


@pytest.mark.parametrize("height", [1, 2, 4])
def test_primal_distortion_keeps_the_first_worst_row_across_blocks(monkeypatch, height):
    # phi = 0, 0.5, 0, 1, 1, 1 on e1 rows: the first 1 ends a block of two
    # or four rows and ties with the first row of the next.
    monkeypatch.setattr(types_module, "_ROW_BLOCK_ENTRIES", height * 3)
    c = math.sqrt(0.5)
    e1, e2, e3 = np.eye(3)
    X = ie.UnitVectorSet(np.array([e1, [c, c, 0.0], e1, e3, e2, e3]))
    got = ie.primal_distortion(X, np.eye(3)[:, :1])
    assert (got.epsilon, got.argmax) == (1.0, 3) == _dense_worst(X, np.eye(3)[:, :1])
    # Every row in the span: phi is exactly 0 in every block.
    got = ie.primal_distortion(ie.UnitVectorSet(np.array([e1, e2, e1, e2, e2])), np.eye(3)[:, :2])
    assert (got.epsilon, got.argmax) == (0.0, 0)


@pytest.mark.parametrize("height, gather", [(1, 1), (2, 1), (3, 16), (8, 1 << 15)])
def test_primal_distortion_keeps_the_first_worst_pair_across_blocks(monkeypatch, height, gather):
    # Integer points with mean 0, scored on e1: every Gram entry is exact,
    # and the pairs of the three points with x = 0, (3, 4), (3, 9) and
    # (4, 9) 1-based, rows 15, 20 and 25, are crushed to exactly phi = 1.
    # In one-row blocks, or gathers of one row, they span two of them.
    monkeypatch.setattr(pairs_module, "_BLOCK_ENTRIES", height * 8)
    monkeypatch.setattr(pairs_module, "_GATHER_ENTRIES", gather)
    P = [[-2, -1], [2, 1], [0, -3], [0, 3], [-1, 0], [1, 0], [-3, 2], [3, -2], [0, 0]]
    pairs = ie.pairwise_unit_differences(ie.PointSet(np.array(P, dtype=float)))
    V = np.eye(2)[:, :1]
    got = ie.primal_distortion(pairs, V)
    assert (got.epsilon, got.argmax) == (1.0, 15) == _dense_worst(pairs, V)
    # Points on the x axis: every pair is e1 itself, phi exactly 0.
    on_axis = np.array([[-3, 0], [-1, 0], [0, 0], [1, 0], [3, 0.0]])
    line = ie.pairwise_unit_differences(ie.PointSet(on_axis))
    got = ie.primal_distortion(line, V)
    assert (got.epsilon, got.argmax) == (0.0, 0) == _dense_worst(line, V)


def test_primal_distortion_holds_no_length_n_vector():
    rng = np.random.default_rng(12)
    P = 3.0 * rng.standard_normal((1000, 6))
    pairs = ie.pairwise_unit_differences(ie.PointSet(P))
    V = ie.random_orthonormal_basis(6, 2, seed=0).V
    tracemalloc.start()
    try:
        got = ie.primal_distortion(pairs, V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got.epsilon, got.argmax) == _dense_worst(pairs, V)
    # One 2^16-entry block and one 2^15-entry gather: 0.28 of 8n at 499,500
    # pairs, where s alone is 1.
    assert peak <= 0.35 * 8 * pairs.n


# ---------------------------------------------------------------- step size


def test_default_step_size_formula():
    assert ie.default_step_size(2, 2) == pytest.approx(1.0 / math.sqrt(2.0))
    assert ie.default_step_size(1035, 120) == pytest.approx(
        math.sqrt(2.0) / math.sqrt(1035 * 120)
    )


def test_default_step_size_rejects_zero_iterations():
    with pytest.raises(ValueError):
        ie.default_step_size(10, 0)
    with pytest.raises(ValueError):
        ie.default_step_size(0, 5)


def test_ascent_config_validation():
    with pytest.raises(ValueError):
        ie.AscentConfig(T=-1)
    for bad in (0.0, math.nan, math.inf, True, "0.5"):
        with pytest.raises(ValueError, match="step size must be"):
            ie.AscentConfig(step_size=bad)
    assert ie.AscentConfig(step_size=np.float64(0.5)).step_size == 0.5
    ie.AscentConfig(T=0)  # evaluation-only runs are fine


@pytest.mark.parametrize(
    "bad",
    [2.5, True, False, "3", None, -1, np.int64(-2)],
    ids=["float", "true", "false", "str", "none", "negative", "negative-np-int64"],
)
def test_iteration_count_must_be_an_integer(bad):
    message = f"iteration count must be an integer >= 0, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ie.AscentConfig(T=bad)


def test_iteration_count_accepts_numpy_integers():
    assert ie.AscentConfig(T=np.int64(3)).T == 3


# ---------------------------------------------------------------- driver


def test_single_vector_k1_recovers_direction():
    X = ie.UnitVectorSet(np.array([[0.6, 0.8]]))
    res = ie.run_projected_ascent(X, 1, ie.AscentConfig(T=0))
    assert res.distortion.epsilon <= 1e-12
    assert np.allclose(np.abs(res.basis.V[:, 0]), [0.6, 0.8], atol=1e-12)
    assert len(res.trace) == 1 and res.average_record is None


def test_full_dimension_embedding_is_exact():
    rng = np.random.default_rng(36)
    X = unit_rows(rng, 20, 4)
    res = ie.run_projected_ascent(X, 4, ie.AscentConfig(T=15))
    assert res.distortion.epsilon <= 1e-12
    assert all(rec.dual_value == pytest.approx(0.0, abs=1e-12) for rec in res.trace)


def test_trace_shape_and_monotone_best():
    rng = np.random.default_rng(37)
    X = unit_rows(rng, 30, 6)
    T = 40
    res = ie.run_projected_ascent(X, 2, ie.AscentConfig(T=T))
    assert [rec.t for rec in res.trace] == list(range(T + 1))
    assert res.average_record is not None
    best = [rec.best_epsilon for rec in res.trace]
    assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(best, best[1:]))
    assert res.selected_iterate in ("best", "average")
    assert ie.is_on_simplex(res.lambda_selected, tol=1e-9)


def test_weak_duality_all_pairs():
    rng = np.random.default_rng(38)
    for _ in range(10):
        n, d = int(rng.integers(8, 30)), int(rng.integers(2, 7))
        k = int(rng.integers(1, d + 1))
        X = unit_rows(rng, n, d)
        res = ie.run_projected_ascent(X, k, ie.AscentConfig(T=60))
        records = res.trace + [res.average_record]
        duals = [r.dual_value for r in records]
        eps = [r.primal_epsilon for r in records]
        assert max(duals) <= min(eps) + 1e-8
        assert res.best_dual_value == pytest.approx(max(duals))
        assert res.best_dual_value <= res.distortion.epsilon + 1e-8
        assert all(0.0 <= v <= 1.0 for v in duals + eps)


def test_never_worse_than_pca():
    rng = np.random.default_rng(39)
    for _ in range(10):
        n, d = int(rng.integers(6, 25)), int(rng.integers(2, 6))
        k = int(rng.integers(1, d + 1))
        X = unit_rows(rng, n, d)
        res = ie.run_projected_ascent(X, k, ie.AscentConfig(T=30))
        eps_pca = ie.primal_distortion(X, ie.pca_basis(X, k)).epsilon
        assert res.distortion.epsilon <= eps_pca + 1e-12


@st.composite
def unit_sets(draw):
    """Random unit rows, or a degenerate set: rank 1 (one line, both signs),
    np.eye(d) (all eigenvalues of M equal) or the pairs of points of which
    two lie 1e-9 apart."""
    kind = draw(st.sampled_from(["random", "rank1", "eye", "near-coincident"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 6))
    if kind == "random":
        X = unit_rows(rng, draw(st.integers(2, 30)), d)
    elif kind == "rank1":
        u = unit_rows(rng, 1, d).X[0]
        X = ie.UnitVectorSet(rng.choice([-1.0, 1.0], size=(draw(st.integers(1, 20)), 1)) * u)
    elif kind == "eye":
        X = ie.UnitVectorSet(np.eye(d))
    else:
        P = rng.standard_normal((draw(st.integers(3, 8)), d))
        P[1] = P[0] + 1e-9 * unit_rows(rng, 1, d).X[0]
        X = ie.pairwise_unit_differences(ie.PointSet(P))
    return X, draw(st.integers(1, d)), draw(st.integers(0, 30))


@settings(max_examples=60, deadline=None)
@given(unit_sets())
def test_weak_duality_and_pca_dominance_hold(case):
    X, k, T = case
    res = ie.run_projected_ascent(X, k, ie.AscentConfig(T=T))
    assert res.best_dual_value <= res.distortion.epsilon + 1e-12
    assert res.distortion.epsilon <= res.pca_distortion.epsilon


def test_t_zero_equals_pca_exactly():
    rng = np.random.default_rng(40)
    X = unit_rows(rng, 18, 5)
    res = ie.run_projected_ascent(X, 2, ie.AscentConfig(T=0))
    eps_pca = ie.primal_distortion(X, ie.pca_basis(X, 2)).epsilon
    assert res.distortion.epsilon == eps_pca
    assert res.step_size == 0.0


KNOWN_OPTIMA = [(20, 5), (40, 8), (60, 20), (200, 30)]


@pytest.mark.parametrize("d, k", KNOWN_OPTIMA)
def test_orthogonal_rows_certify_their_known_optimum(d, k):
    # The optimum is exactly 1 - k/d (oracles.frame_rows), and the uniform
    # weights of t = 0 attain it as a dual.
    X = frame_rows(np.random.default_rng(d), d)
    result = ie.run_projected_ascent(X, k, ie.AscentConfig(T=120))
    optimum = 1.0 - k / d
    assert abs(result.best_dual_value - optimum) <= 1e-12
    assert result.distortion.epsilon >= optimum - 1e-12


@pytest.mark.parametrize("d, k", KNOWN_OPTIMA)
def test_noisy_orthogonal_rows_keep_weak_duality(d, k):
    X = frame_rows(np.random.default_rng(d), d, noise=0.05)
    result = ie.run_projected_ascent(X, k, ie.AscentConfig(T=120))
    assert result.best_dual_value <= result.distortion.epsilon


def test_returned_basis_is_feasible():
    rng = np.random.default_rng(41)
    X = unit_rows(rng, 22, 5)
    res = ie.run_projected_ascent(X, 3, ie.AscentConfig(T=25))
    V = res.basis.V
    assert np.abs(V.T @ V - np.eye(3)).max() <= 1e-8


def test_explicit_step_size_is_used():
    rng = np.random.default_rng(42)
    X = unit_rows(rng, 10, 3)
    res = ie.run_projected_ascent(X, 1, ie.AscentConfig(T=5, step_size=0.125))
    assert res.step_size == 0.125


def test_first_step_follows_the_projected_gradient_rule():
    # trace[1] must be the iterate lambda_1 = P(uniform + eta * grad g(uniform)),
    # recomputed here through public functions only.
    rng = np.random.default_rng(44)
    X = unit_rows(rng, 25, 5)
    k, eta = 2, 0.05
    res = ie.run_projected_ascent(X, k, ie.AscentConfig(T=1, step_size=eta))
    uniform = np.full(X.n, 1.0 / X.n)
    lam1 = ie.project_to_simplex(uniform + eta * ie.dual_gradient(X, uniform, k))
    basis = ie.top_k_eigenpairs(ie.weighted_moment_matrix(X, lam1), k).basis
    assert res.trace[1].dual_value == ie.dual_objective(X, lam1, k)
    assert res.trace[1].primal_epsilon == ie.primal_distortion(X, basis).epsilon


def test_one_projection_product_per_evaluated_iterate(monkeypatch):
    calls = []
    for cls in (ie.UnitVectorSet, ie.PairDifferenceSet):
        monkeypatch.setattr(
            cls,
            "sq_proj",
            lambda X, V, out=None, real=cls.sq_proj: calls.append(1) or real(X, V, out),
        )
    rng = np.random.default_rng(45)
    T = 7
    rows = unit_rows(rng, 20, 4)
    pairs = ie.pairwise_unit_differences(ie.PointSet(rng.standard_normal((8, 4))))
    for units in (rows, pairs):
        calls.clear()
        ie.run_projected_ascent(units, 2, ie.AscentConfig(T=T))
        assert len(calls) == T + 2  # t = 0, T steps, the average iterate


def test_a_run_builds_no_distortion_vector():
    X = unit_rows(np.random.default_rng(46), 20, 4)
    for T in (0, 7):
        res = ie.run_projected_ascent(X, 2, ie.AscentConfig(T=T))
        # The result keeps epsilon and argmax, those of primal_distortion.
        for got, V in ((res.distortion, res.basis), (res.pca_distortion, ie.pca_basis(X, 2))):
            assert not hasattr(got, "phi")
            want = ie.primal_distortion(X, V)
            assert (got.epsilon, got.argmax) == (want.epsilon, want.argmax)


def test_memory_per_row():
    # The rows counterpart of test_pairs.py::test_memory_per_pair: 40,000 x 50
    # rows, 16 MB. M(uniform) reads every row, a step's lambda about a third
    # of them and the average iterate 83%.
    X = unit_rows(np.random.default_rng(48), 40_000, 50)
    tracemalloc.start()
    try:
        res = ie.run_projected_ascent(X, 5, ie.AscentConfig(T=5))
        ie.approximation_bound(X)
        X.fingerprint()
        ie.primal_distortion(X, ie.random_orthonormal_basis(50, 5, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.fingerprint == X.fingerprint()
    # A moment that copies its kept rows whole peaks at 1.04x the rows. In
    # blocks the run peaks at 0.218x (one 2 MB block and a few length-n
    # vectors); the bound leaves room for two more length-n float vectors.
    assert peak <= 0.26 * X.X.nbytes


def _solve_peak(P, k):
    """The tracemalloc peak of a T = 3 solve on the pairs of P, in units of
    8n bytes, and the run."""
    pairs = ie.pairwise_unit_differences(ie.PointSet(P))
    tracemalloc.start()
    try:
        res = ie.run_projected_ascent(pairs, k, ie.AscentConfig(T=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * pairs.n), res


# A pairwise solve holds its work buffer and the running sum, two length-n
# vectors, and each kept lambda by its support, 12 bytes an entry. The
# kernels' blocks of 2^16 entries and gathers of 2^15 are about a quarter
# of a vector more at 499,500 pairs.
PAIRWISE_SOLVE_PEAK = 2.7


def test_a_pairwise_solve_holds_two_length_n_vectors():
    # 1,000 points in 20 anisotropic clusters: 499,500 pairs, whose length-n
    # vectors (4 MB each) outweigh the kernels' 2^16-entry block buffers.
    rng = np.random.default_rng(1)
    centres = 3.0 * np.random.default_rng(7).standard_normal((20, 10))
    P = centres[rng.integers(0, 20, 1000)] + rng.standard_normal((1000, 10)) * 0.9 ** np.arange(10)
    peak, res = _solve_peak(P, 3)
    # No step beats t = 0, whose weights are a zero-stride view, so no
    # spent lambda is kept as the best's.
    assert all(r.best_epsilon == res.trace[0].primal_epsilon for r in res.trace)
    # The loop peaks at 2.37 vectors here. A loop that holds lambda, the
    # running sum and s dense peaks at 3.31, and one that also keeps the
    # spent lambda through the projection, forms the step in a new vector
    # and compacts each round with one np.compress at 4.28.
    assert peak <= PAIRWISE_SOLVE_PEAK


def test_a_pairwise_solve_whose_best_is_a_spent_step_holds_two_length_n_vectors():
    # 1,000 clustered points in CI's layout, 499,500 pairs: steps 1 and 2
    # each improve on the best, so the best's lambda is held while steps 2
    # and 3 run.
    rng = np.random.default_rng(12)
    centres = 3.0 * rng.standard_normal((8, 6))
    P = centres[rng.integers(0, 8, 1000)] + 0.3 * rng.standard_normal((1000, 6))
    peak, res = _solve_peak(P, 2)
    eps = [r.primal_epsilon for r in res.trace]
    assert eps[1] < eps[0] and eps[2] < eps[1] and eps[3] > eps[2]
    assert res.selected_iterate == "best" and res.distortion.epsilon == eps[2]
    # 2.63 vectors here: the best's support and the current step's, each
    # about 21% of n, while the next s is computed. A loop that keeps the
    # best's lambda dense peaks at 4.30.
    assert peak <= PAIRWISE_SOLVE_PEAK


@st.composite
def steps(draw):
    """Squared projections s with entries of 0 and above 1, a step size,
    and lambda as t = 0's zero-stride uniform view or a dense vector."""
    n = draw(st.integers(1, 8))
    s = draw(
        st.lists(
            st.sampled_from([0.0, 1.0, np.nextafter(1.0, 2.0)]) | st.floats(0.0, 2.0),
            min_size=n,
            max_size=n,
        )
    )
    eta = draw(st.floats(1e-6, 10.0))
    if draw(st.booleans()):
        lam = np.broadcast_to(1.0 / n, n)
    else:
        lam = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    return np.array(s), eta, lam


@settings(max_examples=200, deadline=None)
@given(steps())
def test_the_step_in_s_is_bitwise_lam_plus_eta_times_the_gradient(step):
    s, eta, lam = step
    # The gradient as a new vector: -s clipped to [-1, 0].
    want = lam + eta * np.clip(-s, -1.0, 0.0)
    buf = s.copy()
    got = ascent._step(buf, lam, eta)
    assert got is buf
    assert got.tobytes() == want.tobytes()
    # A dense lambda kept by its support adds the same bits: where lambda is
    # zero, the gradient's zero is +0.0 as lam + 0.0 is.
    if lam.strides != (0,):
        got = ascent._step(s.copy(), ascent._Support.of(lam), eta)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.25]) | st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_a_support_gives_back_its_vector(values):
    lam = np.array(values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ascent, "_SUPPORT_CHUNK", 3)  # chunks of three entries
        kept = ascent._Support.of(lam)
        y = np.zeros(lam.size)
        kept.add_to(y)
    assert kept.idx.dtype == np.int32 and kept.idx.size == np.count_nonzero(lam)
    assert kept.dense().tobytes() == lam.tobytes() == y.tobytes()


@st.composite
def squared_projections(draw):
    """Nonnegative s with entries at and above 1, exact ties and
    neighbours one ulp apart."""
    base = draw(
        st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 2.0), min_size=1, max_size=5)
    )
    s = []
    for x in base:
        s += [x] * draw(st.integers(1, 2))
        s += [np.nextafter(x, to) for to in draw(st.lists(st.sampled_from([0.0, 3.0]), max_size=2))]
    return np.array(draw(st.permutations(s)))


@settings(max_examples=200, deadline=None)
@given(squared_projections())
# 1 - s rounds to 0.9 at 0.1 and at its upper neighbour: the first of the
# two attains epsilon, not the smaller one.
@example(np.array([0.5, np.nextafter(0.1, 1.0), 0.1]))
def test_iterate_epsilon_is_bitwise_the_max_of_phi(s):
    phi = np.clip(1.0 - s, 0.0, None)
    got = ascent._worst_distortion(s)
    assert np.float64(got.epsilon).tobytes() == phi.max().tobytes()
    assert got.argmax == np.argmax(phi)


def test_k_out_of_range():
    X = ie.UnitVectorSet(np.eye(3))
    for bad in (0, 4, 2.0, True):
        message = f"k must be an integer in [1, 3], got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ie.run_projected_ascent(X, bad, ie.AscentConfig(T=1))
    assert ie.run_projected_ascent(X, np.int64(2), ie.AscentConfig(T=1)).basis.V.shape == (3, 2)


def test_degenerate_spectrum_is_flagged_not_fatal():
    # two orthogonal directions, k = 1: the uniform-weight moment matrix is
    # 0.5*I, the top eigenvector is arbitrary, and the iterate gets flagged
    X = ie.UnitVectorSet(np.eye(2))
    res = ie.run_projected_ascent(X, 1, ie.AscentConfig(T=3))
    assert res.trace[0].degenerate
    assert res.degenerate_iterations >= 1
    # dual values are still valid lower bounds
    assert res.best_dual_value <= res.distortion.epsilon + 1e-8


def test_run_logs_the_support_of_lambda(caplog, monkeypatch):
    from isoembed import ascent

    lams = []
    real = ascent._project_in_place

    def recording(y):
        lam = real(y)
        lams.append(lam.copy())
        return lam

    monkeypatch.setattr(ascent, "_project_in_place", recording)
    X = clustered_rows(np.random.default_rng(46), 200, 6)
    with caplog.at_level(logging.INFO, logger="isoembed.ascent"):
        ie.run_projected_ascent(X, 2, ie.AscentConfig(T=10))
    supports = np.count_nonzero(lams, axis=1)
    assert len(lams) == 10 and supports.min() < X.n
    mean, avg = supports.sum() / (10 * X.n), np.count_nonzero(np.sum(lams, axis=0)) / X.n
    expected = f"lambda support: mean {mean:.4f} of n = 200 over 10 steps, average iterate {avg:.4f}"
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.INFO] == [expected]


def test_run_whose_lambda_loses_support_matches_a_dense_moment(monkeypatch):
    # The same run with M(lambda) summed over every row by einsum. einsum adds
    # in another order, so the runs agree to roundoff, not bitwise; ten steps
    # keep the ascent's growth of last-bit differences far below 1e-12.
    rng = np.random.default_rng(46)
    X = clustered_rows(rng, 200, 6)
    cfg = ie.AscentConfig(T=10)
    ref = ie.run_projected_ascent(X, 2, cfg)

    supports = []

    def dense_moment(self, w):
        w = np.asarray(w)
        supports.append(np.count_nonzero(w) / w.size)
        return np.einsum("i,ij,ik->jk", w, self.X, self.X)

    # X keeps the M(uniform) of the first run, so only the T + 1 steps' and
    # the average iterate's moments come here.
    monkeypatch.setattr(ie.UnitVectorSet, "moment", dense_moment)
    res = ie.run_projected_ascent(X, 2, cfg)
    assert len(supports) == cfg.T + 1 and min(supports) < 0.5

    def values(r):
        return [(x.dual_value, x.primal_epsilon, x.best_epsilon) for x in r.trace + [r.average_record]]

    assert np.abs(np.subtract(values(ref), values(res))).max() <= 1e-12
    assert [x.degenerate for x in ref.trace] == [x.degenerate for x in res.trace]
    assert ref.selected_iterate == res.selected_iterate
    assert np.abs(ref.lambda_selected.lam - res.lambda_selected.lam).max() <= 1e-12
    assert abs(ref.distortion.epsilon - res.distortion.epsilon) <= 1e-12
    assert abs(ref.best_dual_value - res.best_dual_value) <= 1e-12


# ---------------------------------------------------------------- fingerprint


def _pair_set(seed=47):
    P = np.random.default_rng(seed).standard_normal((40, 5))
    return ie.pairwise_unit_differences(ie.PointSet(P))


def test_a_run_its_bounds_and_the_fingerprint_hash_the_rows_once(monkeypatch):
    calls = []
    real = ie.PairDifferenceSet._unit_blocks
    monkeypatch.setattr(ie.PairDifferenceSet, "_unit_blocks", lambda X: calls.append(1) or real(X))
    pairs = _pair_set()
    res = ie.run_projected_ascent(pairs, 2, ie.AscentConfig(T=5))
    ie.approximation_bound(pairs)
    assert res.fingerprint == pairs.fingerprint()
    assert len(calls) == 1
    assert res.fingerprint == ie.matrix_fingerprint(pairs.X)  # X reads the rows again
    # The bounds read M(uniform) alone: on a fresh set they hash nothing.
    calls.clear()
    ie.approximation_bound(_pair_set())
    assert calls == []


def test_an_error_in_the_hash_surfaces_from_the_run(monkeypatch):
    def failing(X):
        raise RuntimeError("hash failed")
        yield

    monkeypatch.setattr(ie.PairDifferenceSet, "_unit_blocks", failing)
    with pytest.raises(RuntimeError, match="hash failed"):
        ie.run_projected_ascent(_pair_set(), 2, ie.AscentConfig(T=3))


def test_an_error_in_the_solve_is_not_masked_by_the_pending_hash(monkeypatch):
    def failing_hash(X):
        raise RuntimeError("hash failed")
        yield

    def failing_eigh(M, k):
        raise ValueError("solve failed")

    monkeypatch.setattr(ie.PairDifferenceSet, "_unit_blocks", failing_hash)
    monkeypatch.setattr(ascent, "top_k_eigenpairs", failing_eigh)
    with pytest.raises(ValueError, match="solve failed"):
        ie.run_projected_ascent(_pair_set(), 2, ie.AscentConfig(T=3))
