import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isoembed as ie
from isoembed import ascent
from isoembed import pairs as pairs_module
from isoembed import types as types_module
from oracles import (
    anisotropic_clusters,
    clustered_rows,
    fd_dual_gradient,
    frame_rows,
    random_simplex_point,
    unit_rows,
)


# The default, entropic rule and the paper's rule, kept as a reference.
RULES = (ie.run_projected_ascent, ascent._paper_rule_ascent)


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


@pytest.mark.parametrize("height", [1, 2, 3, 8])
def test_primal_distortion_keeps_the_first_worst_pair_across_blocks(monkeypatch, height):
    # Integer points with mean 0, scored on e1: every Gram entry is exact,
    # and the pairs of the three points with x = 0, (3, 4), (3, 9) and
    # (4, 9) 1-based, rows 15, 20 and 25, are crushed to exactly phi = 1.
    # In blocks of one or two rows they span two of them; in blocks of
    # three, pair (3, 4) opens block 0's third row, right after that row's
    # two pads. A pad has phi = 0, so it never attains the worst.
    monkeypatch.setattr(pairs_module, "_BLOCK_ENTRIES", height * 8)
    monkeypatch.setattr(pairs_module, "_PAD_SHARE", 1)
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
    # Two blocks of about 2^16 entries, D and s: 0.32 of 8n at 499,500
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
    # exp(-700) times 1/n stays positive: the largest weight cannot vanish.
    assert ie.AscentConfig(step_size=700.0).step_size == 700.0
    with pytest.raises(ValueError, match="step size must be at most 700"):
        ie.AscentConfig(step_size=700.5)


def test_entropic_step_size_formula():
    assert ie.entropic_step_size(180, 120) == 4.0 * math.sqrt(2.0 * math.log(180) / 120)
    assert ie.entropic_step_size(1, 5) == 0.0
    with pytest.raises(ValueError):
        ie.entropic_step_size(10, 0)
    with pytest.raises(ValueError):
        ie.entropic_step_size(0, 5)
    X = unit_rows(np.random.default_rng(43), 30, 4)
    assert ie.run_projected_ascent(X, 2, ie.AscentConfig(T=9)).step_size == (
        ie.entropic_step_size(30, 9)
    )


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
    # weights of t = 0 attain it as a dual, under the entropic rule and the
    # paper's.
    X = frame_rows(np.random.default_rng(d), d)
    optimum = 1.0 - k / d
    for run in RULES:
        result = run(X, k, ie.AscentConfig(T=120))
        assert abs(result.best_dual_value - optimum) <= 1e-12, run
        assert result.distortion.epsilon >= optimum - 1e-12, run


@pytest.mark.parametrize("d, k", KNOWN_OPTIMA)
def test_noisy_orthogonal_rows_keep_weak_duality(d, k):
    X = frame_rows(np.random.default_rng(d), d, noise=0.05)
    for run in RULES:
        result = run(X, k, ie.AscentConfig(T=120))
        assert result.best_dual_value <= result.distortion.epsilon, run


def test_a_rows_wide_run_beats_its_pca_start():
    # The rows-wide benchmark layout at a tenth of its rows, d = 60: the
    # paper's rule overshoots with its auto step, and no iterate beats t = 0
    # (0.8573). The entropic average embeds at 0.7948.
    P = anisotropic_clusters(800, 60, 40, decay=0.99, spread=6.0, layout_seed=7, seed=1)
    X = ie.normalize_rows(P)
    res = ie.run_projected_ascent(X, 6, ie.AscentConfig(T=20))
    assert res.distortion.epsilon < res.pca_distortion.epsilon
    projected = ascent._paper_rule_ascent(X, 6, ie.AscentConfig(T=20))
    assert projected.distortion == projected.pca_distortion


def test_a_short_run_of_the_pairwise_build_layout_certifies_tighter_than_the_papers_rule():
    # The benchmark's pairwise-build layout at 200 points (19,900 pairs),
    # with its k = 10 and T = 5: the entropic dual is 0.694 against the
    # paper's rule's 0.628, and the certified ratio 1.41 against 1.53.
    P = anisotropic_clusters(200, 50, 120, decay=0.9, spread=3.0, layout_seed=7, seed=1)
    X = ie.pairwise_unit_differences(P)
    cfg = ie.AscentConfig(T=5)
    res, paper = ie.run_projected_ascent(X, 10, cfg), ascent._paper_rule_ascent(X, 10, cfg)
    assert res.best_dual_value > paper.best_dual_value
    ratio = res.distortion.epsilon / res.best_dual_value
    assert ratio < paper.distortion.epsilon / paper.best_dual_value


@pytest.mark.xfail(
    strict=True,
    reason="the entropic auto step overshoots short runs over few directions (ROADMAP item 2)",
)
def test_a_short_run_over_few_directions_does_no_worse_than_the_papers_rule():
    # CI's first input: the 66 pair directions of 12 normal points in R^4,
    # k = 2, T = 5. The entropic rule reaches epsilon 0.9662 and dual 0.3298,
    # the paper's rule 0.9545 and 0.4196. None of the auto step's factors
    # 0.25, 0.5, 1, 2, 4 and 8 matches the paper's rule on both, nor does
    # halving the step whenever a step's dual falls below the best. This
    # test passes once a rule does.
    X = ie.pairwise_unit_differences(np.random.default_rng(0).standard_normal((12, 4)))
    cfg = ie.AscentConfig(T=5)
    res, paper = ie.run_projected_ascent(X, 2, cfg), ascent._paper_rule_ascent(X, 2, cfg)
    assert res.distortion.epsilon <= paper.distortion.epsilon
    assert res.best_dual_value >= paper.best_dual_value


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
    res = ascent._paper_rule_ascent(X, k, ie.AscentConfig(T=1, step_size=eta))
    uniform = np.full(X.n, 1.0 / X.n)
    lam1 = ie.project_to_simplex(uniform + eta * ie.dual_gradient(X, uniform, k))
    basis = ie.top_k_eigenpairs(ie.weighted_moment_matrix(X, lam1), k).basis
    assert res.trace[1].dual_value == ie.dual_objective(X, lam1, k)
    assert res.trace[1].primal_epsilon == ie.primal_distortion(X, basis).epsilon


def _clustered_points(r):
    """r points in 8 clusters in R^6, CI's step-best layout."""
    rng = np.random.default_rng(12)
    centres = 3.0 * rng.standard_normal((8, 6))
    return centres[rng.integers(0, 8, r)] + 0.3 * rng.standard_normal((r, 6))


def _paper_rule_replayed(X, k, T):
    """The paper's rule at its auto step, formula by formula through public
    functions: the trace, the average's record, the selected weights and
    basis."""
    n = X.n
    eta = ie.default_step_size(n, T)
    lam, lam_sum = np.full(n, 1.0 / n), np.zeros(n)

    def evaluate(lam):
        state = ie.top_k_eigenpairs(ie.weighted_moment_matrix(X, lam), k)
        s = X.sq_proj(state.basis.V)
        eps = float(np.clip(1.0 - s, 0.0, None).max())
        dual = float(np.clip(1.0 - state.eigenvalues.sum(), 0.0, eps))
        return s, eps, dual, state.spectral_gap < ascent.DEGENERACY_TOL, state.basis.V

    trace, best = [], None
    for t in range(T + 1):
        if t:
            lam = ie.project_to_simplex(lam + eta * np.clip(-s, -1.0, 0.0)).lam
            lam_sum += lam
        s, eps, dual, degenerate, V = evaluate(lam)
        if best is None or eps < best[0]:
            best = (eps, lam, V)
        trace.append(ie.IterationRecord(t, dual, eps, best[0], degenerate))
    lam_avg = lam_sum / T
    _, eps, dual, degenerate, V = evaluate(lam_avg)
    chosen = best if best[0] < eps else (eps, lam_avg, V)
    return trace, ie.IterationRecord(T, dual, eps, chosen[0], degenerate), chosen[1], chosen[2]


@pytest.mark.parametrize(
    "X, T, selected",
    [
        # Step 5 of 20 is selected: its weights are spent by the steps after it.
        (clustered_rows(np.random.default_rng(40), 300, 8), 20, "best"),
        (ie.pairwise_unit_differences(ie.PointSet(_clustered_points(200))), 30, "average"),
    ],
    ids=["rows", "pairs"],
)
def test_the_papers_rule_is_its_formula_replayed_step_by_step(X, T, selected):
    res = ascent._paper_rule_ascent(X, 2, ie.AscentConfig(T=T))
    trace, avg, lam, V = _paper_rule_replayed(X, 2, T)
    assert res.selected_iterate == selected
    if selected == "best":
        assert 0 < [r.primal_epsilon for r in res.trace].index(res.distortion.epsilon) < T
    assert res.trace == trace and res.average_record == avg
    assert res.lambda_selected.lam.tobytes() == lam.tobytes()
    assert res.basis.V.tobytes() == V.tobytes()


def test_first_step_follows_the_entropic_rule():
    # trace[1] must be the iterate lambda_1 = uniform * exp(eta * grad g(uniform)),
    # divided by its sum, recomputed here through public functions only.
    rng = np.random.default_rng(44)
    X = unit_rows(rng, 25, 5)
    k, eta = 2, 0.5
    res = ie.run_projected_ascent(X, k, ie.AscentConfig(T=1, step_size=eta))
    uniform = np.full(X.n, 1.0 / X.n)
    w = uniform * np.exp(eta * ie.dual_gradient(X, uniform, k))
    lam1 = w / w.sum()
    basis = ie.top_k_eigenpairs(ie.weighted_moment_matrix(X, lam1), k).basis
    assert res.trace[1].dual_value == ie.dual_objective(X, lam1, k)
    assert res.trace[1].primal_epsilon == ie.primal_distortion(X, basis).epsilon


def test_one_projection_product_per_evaluated_iterate(monkeypatch):
    # Every kernel is a walk of the set's blocks: a walk given V projects
    # the directions, one given no V only sums a moment. sq_proj gathers a
    # projecting walk's blocks into one vector.
    calls = []
    for cls in (ie.UnitVectorSet, ie.PairDifferenceSet):
        monkeypatch.setattr(
            cls,
            "_sq_proj_blocks",
            lambda X, V, *args, real=cls._sq_proj_blocks: (
                calls.append("moment" if V is None else "project") or real(X, V, *args)
            ),
        )
    monkeypatch.setattr(
        ie.DirectionSet,
        "sq_proj",
        lambda X, V, real=ie.DirectionSet.sq_proj: calls.append("sq_proj") or real(X, V),
    )
    rng = np.random.default_rng(45)
    T = 7
    rows = unit_rows(rng, 20, 4).X
    points = rng.standard_normal((8, 4))
    fresh_sets = (
        lambda: ie.UnitVectorSet(rows.copy()),
        lambda: ie.pairwise_unit_differences(ie.PointSet(points)),
    )
    for run in (ascent._paper_rule_ascent, ie.run_projected_ascent):
        for fresh in fresh_sets:
            X = fresh()
            calls.clear()
            run(X, 2, ie.AscentConfig(T=T))
            assert calls.count("project") == T + 2  # t = 0, T steps, the average
            if run is ascent._paper_rule_ascent:
                # The paper's rule reads each iterate's s whole and builds
                # each moment in a walk of its own.
                assert calls.count("sq_proj") == calls.count("moment") == T + 2
                continue
            # The entropic rule reads s block by block, and its walks sum
            # the steps' moments. M(uniform) is the one moment built alone,
            # and the set keeps it: a second run builds none. No replay
            # pass runs, for lambda_selected is not read.
            assert calls.count("moment") == 1 and "sq_proj" not in calls
            calls.clear()
            run(X, 2, ie.AscentConfig(T=T))
            assert calls == ["project"] * (T + 2)


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
    # rows, 16 MB. Every moment, M(uniform), each step's and the average's,
    # reads every row: entropic weights stay positive.
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
    # blocks the run peaks at 0.202x (one 2 MB block and a few length-n
    # vectors); the bound leaves room for two more length-n float vectors.
    assert peak <= 0.26 * X.X.nbytes


def _solve_peak(P, k, cfg=ie.AscentConfig(T=3)):
    """The tracemalloc peak of a solve on the pairs of P, T = 3 by default,
    in units of 8n bytes, and the run."""
    pairs = ie.pairwise_unit_differences(ie.PointSet(P))
    tracemalloc.start()
    try:
        res = ie.run_projected_ascent(pairs, k, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * pairs.n), res


# A pairwise solve holds one length-n vector, lambda, in the walk's layout,
# which pads it by 6% at 499,500 pairs. The walk's two blocks of about 2^16
# entries are 0.25 of a vector more, and its Gram factors the rest.
PAIRWISE_SOLVE_PEAK = 1.45


def test_a_pairwise_solve_holds_one_length_n_vector():
    # 1,000 points in 20 anisotropic clusters: 499,500 pairs, whose length-n
    # vector (4 MB) outweighs the kernels' 2^16-entry block buffers.
    rng = np.random.default_rng(1)
    centres = 3.0 * np.random.default_rng(7).standard_normal((20, 10))
    P = centres[rng.integers(0, 20, 1000)] + rng.standard_normal((1000, 10)) * 0.9 ** np.arange(10)
    peak, res = _solve_peak(P, 3)
    assert all(r.best_epsilon == res.trace[0].primal_epsilon for r in res.trace)  # t = 0 is best
    # The entropic loop peaks at 1.44 vectors here. The paper's rule,
    # kept as a dense reference with a full sort, peaks at 8.03.
    assert peak <= PAIRWISE_SOLVE_PEAK


def test_the_papers_rule_selects_a_spent_step_of_a_pairwise_solve():
    # 1,000 clustered points in CI's layout, 499,500 pairs: under the
    # paper's rule steps 1 and 2 each improve on the best and step 3 does
    # not, so the selected lambda is a spent step's.
    X = ie.pairwise_unit_differences(ie.PointSet(_clustered_points(1000)))
    res = ascent._paper_rule_ascent(X, 2, ie.AscentConfig(T=3))
    eps = [r.primal_epsilon for r in res.trace]
    assert eps[1] < eps[0] and eps[2] < eps[1] and eps[3] > eps[2]
    assert res.selected_iterate == "best" and res.distortion.epsilon == eps[2]


def _recorded_passes(monkeypatch):
    """The list to which each _entropic_pass appends a copy of the weights
    it stepped to and the moment it returned."""
    passes = []
    real = ascent._entropic_pass

    def recording(X, state, lam, eta, moment=True):
        it, M = real(X, state, lam, eta, moment)
        passes.append((X._from_layout(lam.copy()), M))  # packed, as lambda_selected
        return it, M

    monkeypatch.setattr(ascent, "_entropic_pass", recording)
    return passes


def test_an_entropic_solve_whose_best_is_a_spent_step_forms_its_lambda_again(monkeypatch):
    # CI's step-best layout with a step of 1: step 2 is the best of T = 3
    # and beats the average, so its lambda, spent by step 3, is formed
    # again when it is read.
    P = _clustered_points(1000)
    cfg = ie.AscentConfig(T=3, step_size=1.0)
    peak, res = _solve_peak(P, 2, cfg)
    eps = [r.primal_epsilon for r in res.trace]
    assert eps[2] < min(eps[0], eps[1], eps[3])
    assert res.selected_iterate == "best" and res.distortion.epsilon == eps[2]
    # One vector, lambda, as in a run whose best is t = 0.
    assert peak <= PAIRWISE_SOLVE_PEAK

    passes = _recorded_passes(monkeypatch)
    again = ie.run_projected_ascent(ie.pairwise_unit_differences(ie.PointSet(P)), 2, cfg)
    assert len(passes) == 3  # lambda_1..lambda_3, and no replay before the read
    lam = again.lambda_selected.lam
    # The read replays the passes that form lambda_1 and lambda_2, the
    # second without its moment, and gives back the loop's lambda_2.
    assert [M is not None for _, M in passes] == [True] * 4 + [False]
    assert lam.tobytes() == passes[1][0].tobytes() == passes[4][0].tobytes()
    assert again.lambda_selected is again.lambda_selected  # formed once
    assert res.lambda_selected.lam.tobytes() == lam.tobytes()
    assert again.basis.V.tobytes() == res.basis.V.tobytes()


def test_an_entropic_rows_solve_forms_its_spent_best_again_bit_for_bit(monkeypatch):
    # Step 2 of 4 is selected on these rows: reading lambda_selected
    # replays passes 1 and 2, the second without its moment, and must give
    # back the loop's lambda_2.
    X = clustered_rows(np.random.default_rng(40), 300, 8)
    passes = _recorded_passes(monkeypatch)
    res = ie.run_projected_ascent(X, 2, ie.AscentConfig(T=4, step_size=4.0))
    eps = [r.primal_epsilon for r in res.trace]
    assert res.selected_iterate == "best"
    assert res.distortion.epsilon == eps[2] < min(eps[:2] + eps[3:])
    assert len(passes) == 4  # the loop's passes at t = 0..3 form lambda_1..lambda_4
    lam = res.lambda_selected.lam
    assert [M is not None for _, M in passes] == [True] * 5 + [False]
    assert passes[4][0].tobytes() == passes[0][0].tobytes()
    assert lam.tobytes() == passes[1][0].tobytes() == passes[5][0].tobytes()


def test_an_entropic_solve_whose_best_is_the_last_step_forms_its_lambda_on_request(monkeypatch):
    rng = np.random.default_rng(47)
    centres = 3.0 * rng.standard_normal((4, 5))
    P = centres[rng.integers(0, 4, 60)] + 0.5 * rng.standard_normal((60, 5))
    X = ie.pairwise_unit_differences(ie.PointSet(P))
    passes = _recorded_passes(monkeypatch)
    res = ie.run_projected_ascent(X, 2, ie.AscentConfig(T=4, step_size=1.0))
    eps = [r.primal_epsilon for r in res.trace]
    assert res.selected_iterate == "best" and res.distortion.epsilon == eps[4] < min(eps[:4])
    # The loop's last pass steps to lambda_4 and forms no lambda_5.
    assert len(passes) == 4
    lam = res.lambda_selected.lam
    assert [M is not None for _, M in passes] == [True] * 7 + [False]
    assert lam.tobytes() == passes[3][0].tobytes() == passes[7][0].tobytes()


@pytest.mark.parametrize(
    "X, T",
    [
        (clustered_rows(np.random.default_rng(40), 300, 8), 30),
        (ie.pairwise_unit_differences(ie.PointSet(_clustered_points(60))), 20),
    ],
    ids=["rows", "pairs"],
)
def test_the_average_lambda_is_the_mean_of_the_replayed_steps(monkeypatch, X, T):
    passes = _recorded_passes(monkeypatch)
    res = ie.run_projected_ascent(X, 2, ie.AscentConfig(T=T))
    assert res.selected_iterate == "average" and len(passes) == T
    lam = res.lambda_selected.lam
    # The read replays all T passes, bit for bit the loop's, and averages
    # their weights.
    assert len(passes) == 2 * T
    assert all(passes[T + t][0].tobytes() == passes[t][0].tobytes() for t in range(T))
    assert lam.tobytes() == (sum(p[0] for p in passes[:T]) / T).tobytes()
    # The run's average moment, the mean of the steps' moments, is M of
    # that mean, as M is linear in lambda.
    mean = sum(M for _, M in passes[:T]) / T
    assert np.abs(X.moment(lam) - mean).max() <= 1e-12 * np.abs(mean).max()


def test_an_evaluation_only_run_forms_uniform_weights():
    X = clustered_rows(np.random.default_rng(40), 30, 4)
    res = ie.run_projected_ascent(X, 2, ie.AscentConfig(T=0, step_size=1.0))
    assert res.lambda_selected.lam.tobytes() == np.full(30, 1.0 / 30).tobytes()


_FAULTS = """
import resource, sys
import numpy as np, isoembed as ie
rng = np.random.default_rng(1)
centres = 3.0 * np.random.default_rng(7).standard_normal((20, 10))
P = centres[rng.integers(0, 20, 1000)] + rng.standard_normal((1000, 10)) * 0.9 ** np.arange(10)
pairs = ie.pairwise_unit_differences(ie.PointSet(P))
ie.uniform_moment_matrix(pairs)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
ie.run_projected_ascent(pairs, 3, ie.AscentConfig(T=int(sys.argv[1])))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's mmap threshold")
def test_a_pairwise_step_maps_no_fresh_pages():
    # Before lambda is allocated, the loop frees an untouched vector a
    # little shorter than it, which raises glibc's mmap threshold above the
    # kernels' block temporaries; without that free every step maps them
    # afresh. On 499,500 pairs, in fresh processes, ten more steps add 1
    # minor fault, and 4,060 without the free.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)

    def faults(T):
        cmd = [sys.executable, "-c", _FAULTS, str(T)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    assert faults(12) - faults(2) < 1000


@st.composite
def entropic_steps(draw):
    """A pair set or rows, a unit basis, eta, lambda and block sizes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 5))
    if draw(st.booleans()):
        P = rng.standard_normal((draw(st.integers(2, 9)), d))
        X = ie.pairwise_unit_differences(ie.PointSet(P))
    else:
        X = unit_rows(rng, draw(st.integers(1, 30)), d)
    V = ie.random_orthonormal_basis(d, draw(st.integers(1, d)), seed=0).V
    lam = random_simplex_point(rng, X.n)
    if draw(st.booleans()):  # zero weights scattered over the blocks
        keep = rng.random(X.n) < 0.5
        keep[rng.integers(X.n)] = True
        lam = np.where(keep, lam, 0.0) / lam[keep].sum()
    return X, V, draw(st.floats(1e-3, 700.0)), lam, draw(st.integers(1, 40))


@settings(max_examples=150, deadline=None)
@given(entropic_steps())
def test_the_blockwise_entropic_step_is_bitwise_the_dense_one(case):
    X, V, eta, lam, entries = case
    with pytest.MonkeyPatch.context() as mp:
        # Blocks of a few entries: several blocks, some of one row.
        mp.setattr(pairs_module, "_BLOCK_ENTRIES", entries)
        mp.setattr(pairs_module, "_PAD_SHARE", 1)
        mp.setattr(types_module, "_ROW_BLOCK_ENTRIES", entries)
        # In the walk's layout, whose pads hold 0 and stay 0.
        w = X._to_layout(lam * np.exp(-eta * np.clip(X.sq_proj(V), 0.0, 1.0)))
        want = w / w.sum()
        got, M = X._to_layout(lam), np.zeros((X.d, X.d))
        worst = ascent._blockwise_worst(X, V, got, eta, M)
        assert worst == ie.primal_distortion(X, V)
        # The walk's moment is the set's moment of the weights it stepped,
        # bit for bit, zero weights or not.
        stepped = X._from_layout(got)
        assert X._to_layout(stepped).tobytes() == got.tobytes()
        assert M.tobytes() == X.moment(stepped).tobytes()
        got /= got.sum()
        assert got.tobytes() == want.tobytes()


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


def test_run_whose_lambda_loses_support_matches_a_dense_moment(monkeypatch):
    # The same run with M(lambda) summed over every row by einsum. einsum adds
    # in another order, so the runs agree to roundoff, not bitwise; ten steps
    # keep the ascent's growth of last-bit differences far below 1e-12.
    rng = np.random.default_rng(46)
    X = clustered_rows(rng, 200, 6)
    cfg = ie.AscentConfig(T=10)
    ref = ascent._paper_rule_ascent(X, 2, cfg)

    supports = []

    def dense_moment(self, w):
        w = np.asarray(w)
        supports.append(np.count_nonzero(w) / w.size)
        return np.einsum("i,ij,ik->jk", w, self.X, self.X)

    # X keeps the M(uniform) of the first run, so only the T + 1 steps' and
    # the average iterate's moments come here.
    monkeypatch.setattr(ie.UnitVectorSet, "moment", dense_moment)
    res = ascent._paper_rule_ascent(X, 2, cfg)
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
