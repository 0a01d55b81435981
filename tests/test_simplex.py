import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isoembed as ie
from isoembed import ascent, simplex
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


@pytest.mark.parametrize(
    "y, support",
    [
        (np.array([0.3]), 1),
        # every entry keeps a positive weight
        (np.full(5000, 1.0 / 5000) + np.random.default_rng(10).normal(0.0, 1e-6, 5000), 5000),
        # one entry takes all the weight
        (np.concatenate([[5.0], np.random.default_rng(11).normal(0.0, 1.0, 5000)]), 1),
    ],
    ids=["n=1", "full-support", "single-entry-support"],
)
def test_matches_the_full_sort_bitwise(y, support):
    got = ie.project_to_simplex(y).lam
    assert np.count_nonzero(got) == support
    assert same_bits(got, sort_simplex_projection(y))


def test_rho_at_the_last_candidate_sorts_every_entry(monkeypatch):
    # Shifted by the largest, six entries tie at the threshold -0.6 and have
    # zero weight. Rounding keeps them among the candidates and passes the
    # prefix test at the last one, so rho cannot be told from the candidates.
    a, b = -0.1, -0.6000000000000001
    y = np.array([a, b, a, a, a, b, 0.30000000000000004, b, a, a, 0.5, b, a, b])
    u = np.sort(simplex._support_superset(y - y.max()))[::-1]
    assert u.size < y.size and u[-1] + (1.0 - np.cumsum(u)[-1]) / u.size > 0.0
    assert same_bits(ie.project_to_simplex(y).lam, sort_simplex_projection(y))
    # Ten candidates inside a support of 179: only the full sort finds rho.
    y = np.random.default_rng(13).normal(0.0, 0.01, 1000)
    monkeypatch.setattr(simplex, "_support_superset", lambda z: np.sort(z)[-10:])
    got = ie.project_to_simplex(y).lam
    assert np.count_nonzero(got) == 179
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
        lams.append(lam.copy())  # the run writes its next s over lam
        return lam

    monkeypatch.setattr(ascent, "_project_in_place", recording)
    ascent._paper_rule_ascent(units, 2, ie.AscentConfig(T=30))
    assert units.n == 19_900 and len(ys) == 30
    candidates = [simplex._support_superset(y - y.max()).size for y in ys]
    assert max(candidates) < units.n  # every step sorted fewer than n entries
    for y, lam in zip(ys, lams):
        assert same_bits(ie.project_to_simplex(y).lam, sort_simplex_projection(y))
        assert same_bits(lam, sort_simplex_projection(y))  # the in-place projection too


def test_candidate_rounds_stop_at_the_round_limit(monkeypatch):
    # Each Michelot round drops about 2% of these entries: without the limit
    # the rounds would run 136 times, past the bound below. From a start
    # below every entry, the rounds are Michelot's from the whole vector.
    n = 20_000
    y = -np.exp(np.arange(n) * 700.0 / n)
    z = y - y.max()
    copies = []  # (input size, entries kept) of each copy
    real = simplex._above

    def recording(c, t):
        out = real(c, t)
        copies.append((c.size, out.size))
        return out

    monkeypatch.setattr(simplex, "_above", recording)
    monkeypatch.setattr(simplex, "_start_threshold", lambda z: -np.inf)
    c = simplex._support_superset(z)
    monkeypatch.undo()
    assert copies[0] == (n, n)  # the start keeps every entry
    # The rounds that removed enough to be copied, then the last, which
    # returned its input.
    rounds = copies[1:] + [(c.size, np.count_nonzero(c > (c.sum() - 1.0) / c.size))]
    shrink = [1.0 - kept / size for size, kept in rounds]
    assert all(s >= simplex.MIN_ROUND_SHRINK for s in shrink[:-1])
    assert 0.0 < shrink[-1] < simplex.MIN_ROUND_SHRINK
    # rounds that each drop a share f of their input end within log n / -log(1 - f)
    assert len(rounds) <= 1 + np.log(n) / -np.log1p(-simplex.MIN_ROUND_SHRINK)
    assert same_bits(ie.project_to_simplex(y).lam, sort_simplex_projection(y))


def whole_round_superset(z):
    """_support_superset with one np.compress over each copy's input."""
    t = simplex._start_threshold(z)
    while True:
        c = np.compress(z > t, z)
        tau = (c.sum() - 1.0) / c.size
        if t <= tau:
            break
        t = tau
    cand = None
    while True:
        above = c > tau
        kept = np.count_nonzero(above)
        if kept == c.size:
            break
        if kept > (1.0 - simplex.MIN_ROUND_SHRINK) * c.size:
            return c
        cand, c = c, np.compress(above, c)
        tau = (c.sum() - 1.0) / c.size
    if cand is not None:
        return cand
    return np.compress(z >= z[z <= t].max(initial=-np.inf), z)


def check_chunked_rounds(y, chunk):
    z = y - y.max()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_CHUNK_ENTRIES", chunk)
        mp.setattr(simplex, "_PREFIX_ENTRIES", chunk)
        got = simplex._support_superset(z)
        lam = ie.project_to_simplex(y).lam
    assert same_bits(got, whole_round_superset(z))
    assert same_bits(lam, sort_simplex_projection(y))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3000), st.floats(1e-4, 10.0), st.integers(1, 7))
def test_rounds_compacted_in_chunks_keep_the_bits_of_whole_rounds(seed, n, scale, chunk):
    # Chunks of a few entries: every copy and prefix test with more entries
    # crosses chunk edges, and most end inside a chunk.
    check_chunked_rounds(np.random.default_rng(seed).normal(0.0, scale, n), chunk)


def test_many_rounds_compacted_in_chunks_keep_the_bits_of_whole_rounds():
    # Copies and prefix sums over chunks of 7 entries.
    check_chunked_rounds(np.random.default_rng(13).normal(0.0, 0.01, 20_000), 7)


@pytest.mark.parametrize("chunk", [3, 1 << 16])
def test_a_start_above_the_threshold_is_lowered(monkeypatch, chunk):
    # A start just below the largest entry copies out too few entries; their
    # lower bound tau_c is the next start, and its copy holds the support.
    y = np.random.default_rng(14).normal(0.0, 0.01, 2000)
    monkeypatch.setattr(simplex, "_CHUNK_ENTRIES", chunk)
    monkeypatch.setattr(simplex, "_start_threshold", lambda z: -1e-300)
    starts = []
    real = simplex._above
    monkeypatch.setattr(simplex, "_above", lambda c, t: starts.append(t) or real(c, t))
    assert same_bits(ie.project_to_simplex(y).lam, sort_simplex_projection(y))
    assert starts[0] == -1e-300 and starts[1] < starts[0]


@pytest.mark.parametrize("chunk", [3, 1 << 16])
def test_a_start_that_copies_the_support_adds_the_next_entry(monkeypatch, chunk):
    # A start between the support and the largest entry outside it copies
    # out the support alone, which the first round keeps whole; the next
    # entry is added with its ties, three more.
    y = np.random.default_rng(15).normal(0.0, 0.01, 2000)
    want = sort_simplex_projection(y)
    outside = np.flatnonzero(want == 0.0)
    y[outside[np.argsort(y[outside])[:3]]] = y[outside].max()
    z = y - y.max()
    monkeypatch.setattr(simplex, "_CHUNK_ENTRIES", chunk)
    monkeypatch.setattr(simplex, "_start_threshold", lambda z: z[want == 0.0].max())
    got = simplex._support_superset(z)
    assert same_bits(np.sort(got), np.sort(z[z >= z[want == 0.0].max()]))
    assert got.size == np.count_nonzero(want) + 4
    assert same_bits(ie.project_to_simplex(y).lam, want)


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
