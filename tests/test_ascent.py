import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isoembed as ie
from oracles import clustered_rows, fd_dual_gradient, random_simplex_point, unit_rows


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
    assert np.allclose(rep.phi, [0.5, 0.5], atol=1e-12)
    assert rep.epsilon == pytest.approx(0.5)

    rep = ie.primal_distortion(X, np.array([[1.0], [0.0]]))
    assert np.allclose(rep.phi, [0.0, 1.0], atol=1e-15)
    assert rep.epsilon == pytest.approx(1.0)
    assert rep.argmax == 1  # 0-based: the second vector is fully crushed


def test_primal_distortion_full_basis_is_isometry():
    rng = np.random.default_rng(35)
    X = unit_rows(rng, 14, 5)
    B = ie.random_orthonormal_basis(5, 5, seed=1)
    rep = ie.primal_distortion(X, B)
    assert rep.epsilon <= 1e-12
    assert (rep.phi >= 0.0).all()


def test_primal_distortion_rejects_non_orthonormal():
    with pytest.raises(ie.ContractError):
        ie.primal_distortion(np.eye(2), np.array([[1.0], [1.0]]))
    with pytest.raises(ie.ShapeError):
        ie.primal_distortion(np.eye(2), np.eye(3))


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
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ie.AscentConfig(step_size=bad)
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
    from isoembed import ascent

    calls = []
    real = ascent._squared_projections
    monkeypatch.setattr(
        ascent, "_squared_projections", lambda Xm, Vm: calls.append(1) or real(Xm, Vm)
    )
    rng = np.random.default_rng(45)
    T = 7
    ie.run_projected_ascent(unit_rows(rng, 20, 4), 2, ie.AscentConfig(T=T))
    assert len(calls) == T + 2  # t = 0, T steps, the average iterate


def test_k_out_of_range():
    X = ie.UnitVectorSet(np.eye(3))
    with pytest.raises(ValueError):
        ie.run_projected_ascent(X, 0, ie.AscentConfig(T=1))
    with pytest.raises(ValueError):
        ie.run_projected_ascent(X, 4, ie.AscentConfig(T=1))


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
    real = ascent.project_to_simplex

    def recording(y):
        w = real(y)
        lams.append(w.lam)
        return w

    monkeypatch.setattr(ascent, "project_to_simplex", recording)
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
