"""The implicit pair set against the dense rows it stands for."""

import tracemalloc
import unittest

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import isoembed as ie
from isoembed import pairs as pairs_module
from isoembed.pairs import KAPPA_LIMIT
from isoembed.types import row_moment, row_sq_proj


def _points(rng, kind, r, d):
    P = rng.standard_normal((r, d))
    if kind == "close":  # one pair 1e-9 apart: kappa ~ 1e9, the exact route
        P[1] = P[0] + 1e-9 * rng.standard_normal(d)
    elif kind == "offset":  # a cloud of scale 1e-3 around 1e6
        P = 1e6 + 1e-3 * P
    elif kind == "anisotropic":
        P = P * 10.0 ** rng.uniform(-6, 6, d)
    elif kind == "repeated":  # repeated points to drop, one of them the last
        P[r // 2] = P[1]
        P[-1] = P[0]
    return P


KINDS = ["random", "close", "offset", "anisotropic", "repeated"]


def _pairs(P, kind):
    policy = "drop" if kind == "repeated" else "error"
    return ie.pairwise_unit_differences(ie.PointSet(P), dedup_policy=policy)


@pytest.mark.parametrize("kind", KINDS)
def test_projections_and_moment_match_the_dense_rows(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    for _ in range(40):
        r, d = int(rng.integers(3, 40)), int(rng.integers(1, 9))
        pairs = _pairs(_points(rng, kind, r, d), kind)
        assert isinstance(pairs, ie.PairDifferenceSet)
        assert (pairs.n < r * (r - 1) // 2) == (kind == "repeated")
        X = pairs.X
        assert X.shape == (pairs.n, d)
        V = np.linalg.qr(rng.standard_normal((d, int(rng.integers(1, d + 1)))))[0]
        assert np.abs(pairs.sq_proj(V) - row_sq_proj(X, V)).max() <= 1e-12
        w = rng.random(pairs.n) * (rng.random(pairs.n) < 0.3)  # mixed support
        M = pairs.moment(w)
        assert np.array_equal(M, M.T)
        assert np.abs(M - row_moment(X, w)).max() <= 1e-12 * w.sum()
        # Every index, so also the first and last pair of each point.
        assert pairs.rows(np.arange(pairs.n)).tobytes() == X.tobytes()
        assert pairs.fingerprint() == ie.matrix_fingerprint(X)


@pytest.mark.parametrize("kind", KINDS)
def test_a_short_run_traces_as_on_the_dense_rows(kind):
    # The ascent amplifies last-bit differences as it goes (README,
    # "Determinism"), so the runs are compared over ten steps.
    rng = np.random.default_rng(10 + KINDS.index(kind))
    pairs = _pairs(_points(rng, kind, 30, 6), kind)
    cfg = ie.AscentConfig(T=10)
    a = ie.run_projected_ascent(pairs, 2, cfg)
    b = ie.run_projected_ascent(ie.UnitVectorSet(pairs.X.copy()), 2, cfg)

    def values(res):
        rows = res.trace + [res.average_record]
        return [(x.dual_value, x.primal_epsilon, x.best_epsilon) for x in rows]

    assert np.abs(np.subtract(values(a), values(b))).max() <= 1e-12
    assert a.selected_iterate == b.selected_iterate
    assert a.fingerprint == b.fingerprint


def test_projections_of_pairs_just_under_the_kappa_limit_match_the_dense_rows():
    # Points on the unit sphere with partners 1/31 away: the Gram form of
    # sq_proj loses about kappa^2 u, its worst case on the Laplacian route.
    rng = np.random.default_rng(24)
    for _ in range(10):
        A = rng.standard_normal((30, 5))
        A /= np.linalg.norm(A, axis=1)[:, None]
        step = rng.standard_normal((30, 5))
        step /= 31.0 * np.linalg.norm(step, axis=1)[:, None]
        P = np.concatenate([A, A + step])
        pairs = ie.pairwise_unit_differences(ie.PointSet(P))
        reach = np.linalg.norm(P - P.mean(axis=0), axis=1)
        i, j = np.triu_indices(60, 1)
        kappa = np.maximum(reach[i], reach[j]) / np.sqrt(pairs._sq)  # 0 on the exact route
        assert 25.0 < kappa.max() < KAPPA_LIMIT
        V = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        assert np.abs(pairs.sq_proj(V) - row_sq_proj(pairs.X, V)).max() <= 1e-12


def test_a_pair_orthogonal_to_the_basis_projects_to_zero_up_to_roundoff():
    # Points 4 and 8 differ only in the last coordinate, which V leaves out,
    # and the pair is long (kappa about 2), so s comes from the Gram form.
    # There it cancels to roundoff of either sign, even where Y_4 = Y_8
    # bitwise, and is clamped at 0.
    row = 19 + 18 + 17 + 3  # pair (4, 8), 1-based, in row-major order
    for seed in range(30):
        rng = np.random.default_rng(seed)
        P = rng.standard_normal((20, 4))
        P[7] = P[3]
        P[7, 3] += 1.0
        pairs = ie.pairwise_unit_differences(ie.PointSet(P))
        assert pairs._labels.size == 0
        assert pairs.rows([row]).tolist() == [[0.0, 0.0, 0.0, -1.0]]
        for k in (1, 2, 3):
            V = np.vstack([np.linalg.qr(rng.standard_normal((3, k)))[0], np.zeros(k)])
            s = pairs.sq_proj(V)
            assert 0.0 <= s[row] <= 1e-14 and s.min() >= 0.0
            assert ie.primal_distortion(pairs, V).epsilon <= 1.0


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


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=float(np.sqrt(np.finfo(float).tiny)), max_value=1.3e154))
@example(float(np.sqrt(np.finfo(float).tiny)))
@example(1.3e154)
@example(1.0 - 2.0**-53)
def test_a_stored_squared_length_gives_back_the_norm(x):
    # The fingerprint divides each difference by sqrt(D_ij), D_ij = fl(x^2)
    # for its np.linalg.norm x: every stored D_ij is normal and finite.
    assume(np.finfo(float).tiny <= x * x < np.inf)
    assert np.sqrt(np.square(x)) == x


def test_exact_route_rows_are_those_of_the_dense_build():
    # Points 4 and 13 (1-based) sit 1e-9 from points 3 and 12: their pairs
    # take the exact route, and the fingerprint takes their stored rows.
    rng = np.random.default_rng(25)
    P = rng.standard_normal((17, 4))
    P[3] = P[2] + 1e-9 * rng.standard_normal(4)
    P[12] = P[11] + 1e-9 * rng.standard_normal(4)
    pairs = ie.pairwise_unit_differences(ie.PointSet(P))
    assert pairs._labels.size == 2
    i, j = np.triu_indices(17, 1)
    want = (P[i] - P[j]) / np.linalg.norm(P[i] - P[j], axis=1)[:, None]
    assert pairs.X.tobytes() == want.tobytes()
    assert pairs.fingerprint() == ie.matrix_fingerprint(want)


def test_errors_name_the_pair_or_row_at_fault():
    # A difference whose square underflows is a coincident pair.
    P = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 1e-170], [3.0, 0.0]])
    with pytest.raises(ie.CoincidentPairError) as exc:
        ie.pairwise_unit_differences(ie.PointSet(P))
    assert exc.value.pair == (3, 4)
    # One whose square overflows is refused by its points, under either policy.
    overflows = "points {} and {} are too far apart: their squared distance overflows"
    P = np.array([[0.0, 0.0], [1.0, 1.0], [1e200, 0.0], [2.0, 5.0]])
    for policy in ("error", "drop"):
        with pytest.raises(ie.ContractError, match=overflows.format(1, 3)):
            ie.pairwise_unit_differences(ie.PointSet(P), dedup_policy=policy)
    # Points, not rows: pair (1, 4) is named so though (1, 2) is dropped.
    P = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1e200, 0.0]])
    with pytest.raises(ie.ContractError, match=overflows.format(1, 4)):
        ie.pairwise_unit_differences(ie.PointSet(P), dedup_policy="drop")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6).flatmap(lambda d: st.lists(
        st.lists(st.just(0.0) | st.floats(1e-100, 1e100) | st.floats(-1e100, -1e-100),
                 min_size=d, max_size=d),
        min_size=2, max_size=8,
    ))
)
def test_centring_is_bitwise_the_plain_mean_when_no_sum_overflows(rows):
    assume(len(set(map(tuple, rows))) > 1)  # a pair that does not coincide
    P = np.array(rows)
    pairs = ie.pairwise_unit_differences(ie.PointSet(P), dedup_policy="drop")
    # Distinct rows here are at least 1e-116 apart, so only equal rows coincide,
    # and the mean is that of the first copies.
    K = P[np.sort(np.unique(P, axis=0, return_index=True)[1])]
    assert pairs.points.points.tobytes() == K.tobytes()
    assert pairs._centred.tobytes() == (K - K.mean(axis=0)).tobytes()


def test_pairs_closer_than_the_smallest_normal_square_are_coincident():
    # Points 1e-158 apart: the squared difference, 1e-316, is subnormal.
    P = np.array([[0.0], [1.0], [1e-158], [5.0]])
    with pytest.raises(ie.CoincidentPairError) as exc:
        ie.pairwise_unit_differences(ie.PointSet(P))
    assert exc.value.pair == (1, 3)
    # Point 3, 1e-158, is dropped: the pairs are those of 0, 1 and 5.
    pairs = ie.pairwise_unit_differences(ie.PointSet(P), dedup_policy="drop")
    assert pairs.n == 3 and pairs.points.points.tolist() == [[0.0], [1.0], [5.0]]
    assert pairs.X.tolist() == [[-1.0], [-1.0], [-1.0]]
    assert pairs.rows([1, 2]).tolist() == [[-1.0], [-1.0]]
    # Point 2 coincides with points 1 and 3, which do not coincide (D_13 =
    # 4e-308): only point 2 is dropped.
    P = np.array([[0.0], [1e-154], [2e-154], [5.0]])
    pairs = ie.pairwise_unit_differences(ie.PointSet(P), dedup_policy="drop")
    assert pairs.points.points.tolist() == [[0.0], [2e-154], [5.0]]
    # 2e-154 apart, the square is 4e-308, just above the smallest normal 2.2e-308.
    P = np.array([[0.0], [1.0], [2e-154], [5.0]])
    assert ie.pairwise_unit_differences(ie.PointSet(P)).n == 6


@st.composite
def _points_with_copies(draw):
    """(P, first): points drawn from a few distinct integer points, each one
    maybe moved 1e-158 along a coordinate (a move only where that coordinate
    is 0), and the indices of the first copy of each."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(2, 5))
    bases = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                          min_size=m, max_size=m, unique_by=tuple))
    # More points than bases: at least one is a copy.
    picks = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, d)),
                          min_size=m + 1, max_size=10))
    P = np.array([bases[b] for b, _ in picks], dtype=np.float64)
    for row, (_, c) in enumerate(picks):
        if c < d:
            P[row, c] += 1e-158
    first = sorted({b: row for row, (b, _) in reversed(list(enumerate(picks)))}.values())
    return P, first


@settings(max_examples=80, deadline=None)
@given(_points_with_copies())
@example((np.array([[0.0], [1.0], [1e-158], [5.0]]), [0, 1, 3]))
def test_drop_builds_the_set_of_the_first_copies(case):
    P, first = case
    assume(len(first) >= 2)
    want = ie.pairwise_unit_differences(ie.PointSet(P[first]))
    with unittest.TestCase().assertLogs("isoembed.pairs", "WARNING") as logs:
        got = ie.pairwise_unit_differences(ie.PointSet(P), dedup_policy="drop")
    assert logs.output == [
        f"WARNING:isoembed.pairs:dropped {len(P) - len(first)} repeated point(s) of {len(P)}"
    ]
    assert got.points.points.tobytes() == P[first].tobytes()
    assert got.X.tobytes() == want.X.tobytes()
    assert got.fingerprint() == want.fingerprint()
    rng = np.random.default_rng(len(P))
    V = np.linalg.qr(rng.standard_normal((P.shape[1], 1)))[0]
    w = rng.random(got.n)
    assert got.sq_proj(V).tobytes() == want.sq_proj(V).tobytes()
    assert got.moment(w).tobytes() == want.moment(w).tobytes()


def test_drop_without_repeats_reads_the_pairs_once(monkeypatch):
    calls = []

    def spy(P):
        calls.append(P.shape[0])
        return point_blocks(P)

    point_blocks = pairs_module._point_blocks
    monkeypatch.setattr(pairs_module, "_point_blocks", spy)
    P = np.random.default_rng(27).standard_normal((30, 4))
    ie.pairwise_unit_differences(ie.PointSet(P.copy()), dedup_policy="drop")
    assert calls == [30]
    # A repeat costs one more pass, over the kept points.
    calls.clear()
    P[29] = P[3]
    ie.pairwise_unit_differences(ie.PointSet(P), dedup_policy="drop")
    assert calls == [30, 29]


@pytest.mark.parametrize("height", [1, 3])
def test_row_blocks_match_the_dense_rows(monkeypatch, height):
    # 17 points: 16 rows of pairs, in one-row blocks or in blocks of three
    # with a last block of one row.
    r = 17
    monkeypatch.setattr(pairs_module, "_BLOCK_ENTRIES", height * (r - 1))
    rng = np.random.default_rng(25)
    P = rng.standard_normal((r, 4))
    # Exact-route pairs (3, 4) and (12, 13), 1-based: in blocks 0 and 3 of
    # three rows each.
    P[3] = P[2] + 1e-9 * rng.standard_normal(4)
    P[12] = P[11] + 1e-9 * rng.standard_normal(4)
    pairs = ie.pairwise_unit_differences(ie.PointSet(P))
    assert pairs._template.shape == (height, r - 1)
    assert pairs.n == r * (r - 1) // 2 and pairs._labels.size == 2
    X = pairs.X
    for k in (1, 3):
        V = np.linalg.qr(rng.standard_normal((4, k)))[0]
        assert np.abs(pairs.sq_proj(V) - row_sq_proj(X, V)).max() <= 1e-12
    for w in (rng.random(pairs.n), np.broadcast_to(1.0 / pairs.n, pairs.n)):
        M = pairs.moment(w)
        assert np.array_equal(M, M.T)
        assert np.abs(M - row_moment(X, w)).max() <= 1e-12 * w.sum()


@pytest.mark.parametrize("dedup", [False, True])
def test_one_kernel_call_holds_no_r_by_r_array(dedup):
    # r = 1000: one r x r float matrix is 8 MB, and a length-n vector 4 MB.
    rng = np.random.default_rng(26)
    P = rng.standard_normal((1000, 8))
    if dedup:
        P[999] = P[170]  # point 1000 is dropped
    pairs = ie.pairwise_unit_differences(
        ie.PointSet(P), dedup_policy="drop" if dedup else "error"
    )
    n = pairs.n
    V = np.linalg.qr(rng.standard_normal((8, 3)))[0]
    w = rng.random(n)
    peaks = []
    for call in (lambda: pairs.sq_proj(V), lambda: pairs.moment(w)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 8 * n + 2**21  # s itself and at most 2 MB more
    assert peaks[1] <= 2**21


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
    # The run peaks at 52.4 B/pair (the pair set's 8 B/pair, the loop's two
    # length-n vectors and a block of the kernels, 11.7 B/pair at this n);
    # the bound leaves room for one more length-n float vector.
    assert run_peak <= 61 * n
