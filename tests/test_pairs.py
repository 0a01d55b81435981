"""The implicit pair set against the dense rows it stands for."""

import tracemalloc

import numpy as np
import pytest

import isoembed as ie
from isoembed.types import row_moment, row_sq_proj


def _points(rng, kind, r, d):
    P = rng.standard_normal((r, d))
    if kind == "close":  # one pair 1e-9 apart: kappa ~ 1e9, the exact route
        P[1] = P[0] + 1e-9 * rng.standard_normal(d)
    elif kind == "offset":  # a cloud of scale 1e-3 around 1e6
        P = 1e6 + 1e-3 * P
    elif kind == "anisotropic":
        P = P * 10.0 ** rng.uniform(-6, 6, d)
    return P


KINDS = ["random", "close", "offset", "anisotropic"]


@pytest.mark.parametrize("kind", KINDS)
def test_projections_and_moment_match_the_dense_rows(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    for _ in range(40):
        r, d = int(rng.integers(3, 40)), int(rng.integers(1, 9))
        pairs = ie.pairwise_unit_differences(ie.PointSet(_points(rng, kind, r, d)))
        assert isinstance(pairs, ie.PairDifferenceSet)
        X = pairs.X
        V = np.linalg.qr(rng.standard_normal((d, int(rng.integers(1, d + 1)))))[0]
        assert np.abs(pairs.sq_proj(V) - row_sq_proj(X, V)).max() <= 1e-12
        w = rng.random(pairs.n) * (rng.random(pairs.n) < 0.3)  # mixed support
        M = pairs.moment(w)
        assert np.array_equal(M, M.T)
        assert np.abs(M - row_moment(X, w)).max() <= 1e-12 * w.sum()


@pytest.mark.parametrize("kind", KINDS)
def test_a_short_run_traces_as_on_the_dense_rows(kind):
    # The ascent amplifies last-bit differences as it goes (README,
    # "Determinism"), so the runs are compared over ten steps.
    rng = np.random.default_rng(10 + KINDS.index(kind))
    pairs = ie.pairwise_unit_differences(ie.PointSet(_points(rng, kind, 30, 6)))
    cfg = ie.AscentConfig(T=10)
    a = ie.run_projected_ascent(pairs, 2, cfg)
    b = ie.run_projected_ascent(ie.UnitVectorSet(pairs.X.copy()), 2, cfg)

    def values(res):
        rows = res.trace + [res.average_record]
        return [(x.dual_value, x.primal_epsilon, x.best_epsilon) for x in rows]

    assert np.abs(np.subtract(values(a), values(b))).max() <= 1e-12
    assert a.selected_iterate == b.selected_iterate
    assert a.fingerprint == b.fingerprint


def test_close_pairs_take_the_exact_route():
    rng = np.random.default_rng(20)
    P = rng.standard_normal((12, 3))
    P[5] = P[2] + 1e-9 * rng.standard_normal(3)
    pairs = ie.pairwise_unit_differences(ie.PointSet(P))
    row = 11 + 10 + 2  # pair (3, 6), 1-based, in row-major order
    assert pairs._labels.tolist() == [row]
    assert pairs._exact.tobytes() == pairs.X[[row]].tobytes()
    assert np.flatnonzero(np.isinf(pairs._sq)).tolist() == [row]  # no Laplacian weight


def test_the_exact_route_ignores_where_the_cloud_sits():
    # kappa is measured from the mean point, so moving the cloud far from
    # the origin sends no pair to the (slower) exact route.
    P = np.random.default_rng(23).standard_normal((30, 6))
    near = ie.pairwise_unit_differences(ie.PointSet(P))
    far = ie.pairwise_unit_differences(ie.PointSet(1e6 + P))
    assert near._labels.size == far._labels.size == 0


def test_fingerprint_and_rows_are_those_of_the_dense_build():
    rng = np.random.default_rng(21)
    P = rng.standard_normal((25, 7)) * 3.0
    pairs = ie.pairwise_unit_differences(ie.PointSet(P))
    want = np.concatenate([(P[i] - P[i + 1 :]) / np.linalg.norm(P[i] - P[i + 1 :], axis=1)[:, None]
                           for i in range(24)])
    assert pairs.fingerprint() == ie.matrix_fingerprint(want)
    assert pairs.X.tobytes() == want.tobytes() and not pairs.X.flags.writeable
    idx = np.sort(rng.choice(pairs.n, size=40, replace=False))
    assert pairs.rows(idx).tobytes() == want[idx].tobytes()


def test_errors_name_the_pair_or_row_at_fault():
    # A difference whose square underflows is a coincident pair.
    P = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 1e-170], [3.0, 0.0]])
    with pytest.raises(ie.CoincidentPairError) as exc:
        ie.pairwise_unit_differences(ie.PointSet(P))
    assert exc.value.pair == (3, 4)
    # One whose square overflows has no finite norm: its row is not unit length.
    P = np.array([[0.0, 0.0], [1.0, 1.0], [1e200, 0.0], [2.0, 5.0]])
    with np.errstate(over="ignore"), pytest.raises(ie.ContractError, match="row 2 has norm 0"):
        ie.pairwise_unit_differences(ie.PointSet(P))


def test_rows_that_need_renormalising_are_built_dense():
    # Points 1e-158 apart: the squared difference is subnormal, the norm is
    # off by more than ROW_NORM_TOL, and UnitVectorSet renormalises the rows.
    P = np.array([[0.0], [1.0], [1e-158], [5.0]])
    u = ie.pairwise_unit_differences(ie.PointSet(P))
    raw = np.concatenate([(P[i] - P[i + 1 :]) / np.linalg.norm(P[i] - P[i + 1 :], axis=1)[:, None]
                          for i in range(3)])
    assert isinstance(u, ie.UnitVectorSet)
    assert u.X.tobytes() == ie.UnitVectorSet(raw).X.tobytes()


def test_memory_per_pair():
    P = ie.PointSet(np.random.default_rng(22).standard_normal((300, 40)))
    n = 300 * 299 // 2
    tracemalloc.start()
    try:
        pairs = ie.pairwise_unit_differences(P)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        res = ie.run_projected_ascent(pairs, 4, ie.AscentConfig(T=5))
        ie.approximation_bound(pairs)
        pairs.fingerprint()
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.fingerprint == pairs.fingerprint()
    assert build_peak <= 32 * n  # the dense build needs 8 d = 320 B/pair
    assert run_peak <= 160 * n
