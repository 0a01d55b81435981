"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

import isoembed as ie
from isoembed.ascent import _paper_rule_ascent
from isoembed.cli import run_cli
from oracles import (
    clustered_rows,
    fd_dual_gradient,
    grid_search_optimum,
    kkt_simplex_projection,
    random_simplex_point,
    unit_rows,
)


def _pass(num, msg):
    print(f"[PASS] criterion {num:2d}: {msg}")


# 1 ------------------------------------------------------------------------


def _trunc_2_sig(x):
    # two-significant-figure truncation (the convention the published
    # step-size table follows; 0.00057685 -> 57, i.e. 0.00057)
    exp = math.floor(math.log10(abs(x)))
    return int(x / 10.0 ** (exp - 1) + 1e-9), exp


def test_criterion_01_step_size_table():
    table = {
        1035: 0.004,
        5050: 0.0018,
        10011: 0.00129,
        50086: 0.00057,
        100128: 0.0004,
    }
    for n, eta_published in table.items():
        eta = ie.default_step_size(n, 120)
        assert eta == pytest.approx(math.sqrt(2.0) / math.sqrt(n * 120))
        assert _trunc_2_sig(eta) == _trunc_2_sig(eta_published), (n, eta)
        assert abs(eta - eta_published) / eta_published < 0.025
    # The paper's rule runs with this formula as its auto step.
    X = unit_rows(np.random.default_rng(1035), 1035, 3)
    cfg = ie.AscentConfig(T=120)
    assert _paper_rule_ascent(X, 1, cfg).step_size == ie.default_step_size(1035, 120)
    _pass(1, "auto step size matches the published table at 2 significant figures")


# 2 ------------------------------------------------------------------------


def test_criterion_02_simplex_projection_oracle():
    rng = np.random.default_rng(1234)
    for i in range(1000):
        n = (i % 6) + 1
        y = rng.normal(0.0, 2.5, size=n)
        got = ie.project_to_simplex(y).lam
        want = kkt_simplex_projection(y)
        assert np.abs(got - want).max() <= 1e-9
        again = ie.project_to_simplex(got).lam
        assert np.abs(again - got).max() <= 1e-12
        perm = rng.permutation(n)
        assert np.abs(ie.project_to_simplex(y[perm]).lam - got[perm]).max() <= 1e-12
    _pass(2, "1000 projections match KKT enumeration, idempotent and equivariant")


# 3 ------------------------------------------------------------------------


def test_criterion_03_trace_identity():
    rng = np.random.default_rng(2345)
    for _ in range(100):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 10))
        X = unit_rows(rng, n, d)
        lam = random_simplex_point(rng, n)
        M = ie.weighted_moment_matrix(X, lam)
        raw = np.linalg.eigvalsh(M)
        assert abs(raw.sum() - 1.0) <= 1e-10
        assert raw.min() >= -1e-10
        state = ie.top_k_eigenpairs(M, d)
        assert abs(state.eigenvalues.sum() - 1.0) <= 1e-10
    _pass(3, "full spectrum of M(lambda) sums to 1 and is nonnegative (100 cases)")


# 4 ------------------------------------------------------------------------


def test_criterion_04_dual_gradient_finite_differences():
    rng = np.random.default_rng(3456)
    checked = 0
    while checked < 20:
        n = int(rng.integers(5, 31))
        d = int(rng.integers(3, 11))
        k = int(rng.integers(1, 4))
        if k >= d:
            continue
        X = unit_rows(rng, n, d)
        lam = random_simplex_point(rng, n)
        gap = ie.top_k_eigenpairs(ie.weighted_moment_matrix(X, lam), k).spectral_gap
        if gap <= 1e-3:  # instances must have a spectral gap > 1e-6
            continue
        analytic = ie.dual_gradient(X, lam, k)
        numeric = fd_dual_gradient(X, lam, k, h=1e-6)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-12)
        assert rel.max() <= 1e-4
        assert analytic.min() >= -1.0 - 1e-12 and analytic.max() <= 1e-12
        checked += 1
    _pass(4, "analytic dual gradient matches central differences on 20 instances")


# 5 & 6 ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def fifty_runs():
    runs = []
    rng = np.random.default_rng(4567)
    for _ in range(50):
        n, d = int(rng.integers(8, 40)), int(rng.integers(2, 9))
        k = int(rng.integers(1, d + 1))
        X = unit_rows(rng, n, d)
        res = ie.run_projected_ascent(X, k, ie.AscentConfig(T=100))
        eps_pca = ie.primal_distortion(X, ie.pca_basis(X, k)).epsilon
        runs.append((res, eps_pca))
    return runs


def test_criterion_05_weak_duality_sandwich(fifty_runs):
    for res, _ in fifty_runs:
        records = res.trace + [res.average_record]
        max_dual = max(r.dual_value for r in records)
        assert max_dual <= res.distortion.epsilon + 1e-8
        for rec in records:
            assert rec.dual_value <= rec.primal_epsilon + 1e-8
    _pass(5, "dual values never exceed primal distortions on 50 runs (T=100)")


def test_criterion_06_pca_dominance(fifty_runs):
    for res, eps_pca in fifty_runs:
        assert res.distortion.epsilon <= eps_pca + 1e-12
    _pass(6, "ascent result never embeds worse than PCA on the same 50 runs")


# 7 ------------------------------------------------------------------------


def test_criterion_07_desk_scale_near_optimality():
    for i in range(20):
        rng = np.random.default_rng(5000 + i)
        d = 2 + (i % 2)
        n = int(rng.integers(8, 26))
        X = clustered_rows(rng, n, d, spread=0.2)
        _, grid_eps = grid_search_optimum(X, 1, 10000)
        res = ie.run_projected_ascent(X, 1, ie.AscentConfig(T=2000))
        assert res.distortion.epsilon <= grid_eps + 0.02, (i, res.distortion.epsilon, grid_eps)
        if res.best_dual_value > 0.05:
            bound = ie.approximation_bound(X)
            ratio = res.distortion.epsilon / res.best_dual_value
            assert ratio <= bound.bound_sigma + 0.05, (i, ratio, bound.bound_sigma)
    _pass(7, "within 0.02 of the grid oracle and inside the certified ratio, 20 instances")


# 8 ------------------------------------------------------------------------


def test_criterion_08_bound_arithmetic():
    for d in (2, 5, 10, 100):
        rep = ie.approximation_bound(ie.UnitVectorSet(np.eye(d)))
        assert rep.bound_sigma == d / (d - 1.0)
    rng = np.random.default_rng(6789)
    for _ in range(100):
        n, dd = int(rng.integers(2, 60)), int(rng.integers(1, 12))
        X = unit_rows(rng, n, dd)
        sigma, _, _ = ie.singular_spectrum(X)
        assert abs(np.square(sigma).sum() - n) <= 1e-8 * n
    _pass(8, "bound is exactly d/(d-1) on orthonormal rows; spectrum mass equals n")


# 9 ------------------------------------------------------------------------


def test_criterion_09_end_to_end_determinism(tmp_path):
    rng = np.random.default_rng(7890)
    M = rng.standard_normal((500, 50))
    src = tmp_path / "input.csv"
    with open(src, "w") as fh:
        for row in M:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.json"
        trace = tmp_path / f"trace_{tag}.csv"
        rc = run_cli(
            [
                "--input", str(src),
                "--mode", "rows",
                "--k", "10",
                "--iters", "120",
                "--baselines", "pca,random",
                "--seed", "42",
                "--out", str(out),
                "--trace", str(trace),
            ]
        )
        assert rc == 0
        blobs.append((out.read_bytes(), trace.read_bytes()))
    assert blobs[0][0] == blobs[1][0], "JSON reports differ between identical runs"
    assert blobs[0][1] == blobs[1][1], "CSV traces differ between identical runs"
    _pass(9, "identical CLI invocations reproduce report and trace byte for byte")


# 10 -----------------------------------------------------------------------


def test_criterion_10_convergence_sanity():
    rng = np.random.default_rng(777)
    M = rng.standard_normal((200, 20))
    X = ie.UnitVectorSet(M / np.linalg.norm(M, axis=1, keepdims=True))
    short = _paper_rule_ascent(X, 5, ie.AscentConfig(T=100))
    # The stand-in's step is the auto step for T = 10000, spelled out, so a
    # fault in the step rule moves only the run under test.
    eta_long = math.sqrt(2.0) / math.sqrt(200.0 * 10000.0)
    long = _paper_rule_ascent(X, 5, ie.AscentConfig(T=10000, step_size=eta_long))
    g_0 = short.trace[0].dual_value
    g_short = short.average_record.dual_value
    g_long = long.average_record.dual_value
    allowance = math.sqrt(200.0) * math.sqrt(2.0) / math.sqrt(100.0)  # L*D/sqrt(T)
    # the long-run average stands in for the dual optimum
    assert g_short >= g_long - allowance, (g_short, g_long, allowance)
    assert 0.0 <= g_short <= 1.0 and 0.0 <= g_long <= 1.0
    # The allowance exceeds 1 and so cannot fail. This can: T = 100 must cover
    # half the way from the t = 0 dual to the stand-in (it covers 88%; with
    # the step divided or multiplied by 100 it covers 29% or 10%).
    assert g_short - g_0 >= 0.5 * (g_long - g_0), (g_0, g_short, g_long)
    _pass(
        10,
        f"avg-iterate dual at T=100 ({g_short:.4f}) within L*D/sqrt(T) "
        f"of the T=10000 stand-in ({g_long:.4f}), and over half the way there "
        f"from t = 0 ({g_0:.4f})",
    )


def test_criterion_10_entropic_progress():
    # Criterion 10's progress check under the default, entropic rule, on the
    # same rows: at T = 100 the average's dual must cover half the way from
    # t = 0 to a T = 10000 stand-in. It covers 91%; with the step divided or
    # multiplied by 100 it covers 20% or -24%.
    rng = np.random.default_rng(777)
    M = rng.standard_normal((200, 20))
    X = ie.UnitVectorSet(M / np.linalg.norm(M, axis=1, keepdims=True))
    short = ie.run_projected_ascent(X, 5, ie.AscentConfig(T=100))
    # The stand-in's step is the entropic auto step for T = 10000, spelled out.
    eta_long = 4.0 * math.sqrt(2.0 * math.log(200.0) / 10000.0)
    long = ie.run_projected_ascent(X, 5, ie.AscentConfig(T=10000, step_size=eta_long))
    g_0 = short.trace[0].dual_value
    g_short = short.average_record.dual_value
    g_long = long.average_record.dual_value
    assert g_short - g_0 >= 0.5 * (g_long - g_0), (g_0, g_short, g_long)
    _pass(
        10,
        f"entropic avg-iterate dual at T=100 ({g_short:.4f}) over half the way from "
        f"t = 0 ({g_0:.4f}) to the T=10000 stand-in ({g_long:.4f})",
    )
