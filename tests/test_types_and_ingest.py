import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import isoembed as ie
from oracles import unit_rows


# ---------------------------------------------------------------- types


def test_point_set_shape_echo():
    ps = ie.PointSet(np.zeros((3, 4)) + 1.0)
    assert (ps.r, ps.d) == (3, 4)


def test_point_set_rejects_nonfinite():
    with pytest.raises(ie.ContractError):
        ie.PointSet(np.array([[1.0, np.nan]]))


def test_point_set_rejects_empty():
    with pytest.raises(ie.ShapeError):
        ie.PointSet(np.zeros((0, 2)))


def test_unit_vector_set_accepts_exact_rows():
    u = ie.UnitVectorSet(np.eye(3))
    assert u.n == 3 and u.d == 3
    assert not u.X.flags.writeable


def test_unit_vector_set_renormalizes_small_deviation():
    row = np.array([[1.0 + 1e-7, 0.0]])
    u = ie.UnitVectorSet(row)
    assert abs(np.linalg.norm(u.X[0]) - 1.0) < 1e-12


def test_unit_vector_set_rejects_large_deviation():
    with pytest.raises(ie.ContractError, match="unit length"):
        ie.UnitVectorSet(np.array([[2.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_unit_vector_set_names_non_finite_row(bad):
    X = np.eye(3)
    X[1, 2] = bad
    with pytest.raises(ie.ContractError, match="row 2 contains non-finite"):
        ie.UnitVectorSet(X)


def test_unit_vector_set_overflowing_row_is_not_unit_length():
    # Every entry is finite, but 1e200 squared overflows the row's norm.
    X = np.eye(3)
    X[1, 0] = 1e200
    with pytest.raises(ie.ContractError, match="row 2 has norm inf; rows must be unit length"):
        ie.UnitVectorSet(X)


def test_unit_vector_set_check_builds_no_full_size_temporary():
    X = unit_rows(np.random.default_rng(16), 20_000, 50).X.copy()
    tracemalloc.start()
    try:
        ie.UnitVectorSet(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A few length-n vectors are 0.02x of the input each at d = 50.
    assert peak <= 0.15 * X.nbytes


def test_simplex_weights_validation():
    w = ie.SimplexWeights.uniform(4)
    assert w.n == 4
    with pytest.raises(ie.ContractError):
        ie.SimplexWeights(np.array([1.1, -0.1]))
    with pytest.raises(ie.ContractError):
        ie.SimplexWeights(np.array([0.3, 0.3]))


def test_orthonormal_basis_validation():
    ie.OrthonormalBasis(np.eye(3)[:, :2])
    with pytest.raises(ie.ContractError):
        ie.OrthonormalBasis(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ie.ShapeError):
        ie.OrthonormalBasis(np.eye(2, 3))  # more columns than rows


def test_fingerprint_tracks_content():
    a = ie.matrix_fingerprint(np.eye(2))
    b = ie.matrix_fingerprint(np.eye(2))
    c = ie.matrix_fingerprint(2 * np.eye(2))
    assert a == b != c


def test_fingerprint_pinned_digest():
    m = np.array([[0.5, -1.25, 3.0], [1e-300, 2.0**60, -0.0]])
    assert ie.matrix_fingerprint(m) == (
        "918034193f1d778859dfb9478ecb10388b056b156eab6024c055025a15a16c93"
    )


def test_fingerprint_ignores_memory_layout():
    m = np.random.default_rng(4).standard_normal((5, 3))
    assert ie.matrix_fingerprint(np.asfortranarray(m)) == ie.matrix_fingerprint(m)
    assert ie.matrix_fingerprint(m.T) == ie.matrix_fingerprint(np.ascontiguousarray(m.T))


# ---------------------------------------------------------------- load_points


def test_load_points_csv(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("1,0\n0,1\n")
    ps = ie.load_points(f)
    assert (ps.r, ps.d) == (2, 2)
    assert np.array_equal(ps.points, np.eye(2))


def test_load_points_whitespace_and_comments(tmp_path):
    f = tmp_path / "pts.txt"
    f.write_text("# a comment\n1 2 3 4\n\n5 6 7 8\n9 10 11 12\n")
    ps = ie.load_points(f)
    assert (ps.r, ps.d) == (3, 4)


def test_load_points_header_skip(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("x,y\n1,0\n0,1\n")
    ps = ie.load_points(f, skip_header=True)
    assert ps.r == 2


def test_load_points_ragged_row_names_line(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("1,0\n0,1,5\n")
    with pytest.raises(ie.LoadError) as exc:
        ie.load_points(f)
    assert exc.value.line == 2


def test_load_points_non_numeric_cell(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("1,0\n0,zebra\n")
    with pytest.raises(ie.LoadError) as exc:
        ie.load_points(f)
    assert exc.value.line == 2


@pytest.mark.parametrize("spelling", ["nan", "inf", "-inf", "1e999"])
def test_load_points_rejects_nan(tmp_path, spelling):
    f = tmp_path / "bad.csv"
    f.write_text(f"1,2\n1,{spelling}\n")
    with pytest.raises(ie.LoadError, match="non-finite") as exc:
        ie.load_points(f)
    assert exc.value.line == 2


def test_load_points_rejects_non_utf8(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_bytes(b"1,0\n0,1\n\xff\xfe,2\n")
    with pytest.raises(ie.LoadError, match="UTF-8") as exc:
        ie.load_points(f)
    assert exc.value.line == 3


def test_load_points_empty_file(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("# only a comment\n")
    with pytest.raises(ie.LoadError, match="empty"):
        ie.load_points(f)


# Files the parser must accept: each data row on its own line with a
# per-line delimiter, between comment and blank lines, after an optional
# header. Rows are written with 17 significant digits, so parsing is exact.
DELIMS = [",", ", ", " ", "\t", "  "]
FILLER = ["", "   ", "\t", "#", "# plain comment", "  # café, 1 2 3"]
BAD_CELLS = {
    "non-numeric": ["zebra", "1..2", "--1", "0x10", "1e"],
    "non-finite": ["nan", "inf", "-inf", "1e999", "NaN", "-Infinity"],
}
FILE_EXAMPLES = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def point_files(draw):
    d = draw(st.integers(1, 5))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.lists(finite, min_size=d, max_size=d), min_size=1, max_size=8))
    fillers = st.lists(st.sampled_from(FILLER), max_size=2)
    lines, data_lines = [], []
    header = draw(st.booleans())
    if header:
        lines += draw(fillers) + [",".join(f"c{i}" for i in range(d))]
    for row in rows:
        lines += draw(fillers)
        data_lines.append(len(lines))
        lines.append(draw(st.sampled_from(DELIMS)).join("%.17g" % v for v in row))
    lines += draw(fillers)
    return np.array(rows), lines, data_lines, header


@FILE_EXAMPLES
@given(point_files(), st.sampled_from(["\n", "\r\n"]))
def test_load_points_round_trips_bits(tmp_path, spec, eol):
    expected, lines, _, header = spec
    f = tmp_path / "pts.txt"
    f.write_bytes((eol.join(lines) + eol).encode())
    ps = ie.load_points(f, skip_header=header)
    assert ps.points.shape == expected.shape
    assert ps.points.tobytes() == expected.tobytes()


@FILE_EXAMPLES
@given(point_files(), st.sampled_from(["ragged", *BAD_CELLS]), st.data())
def test_load_points_names_injected_bad_line(tmp_path, spec, kind, data):
    expected, lines, data_lines, header = spec
    d = expected.shape[1]
    cells = ["%.17g" % v for v in expected[0]]
    if kind == "ragged":
        cells = cells + ["1"] if d == 1 or data.draw(st.booleans()) else cells[:-1]
        named = "ragged"
    else:
        bad = data.draw(st.sampled_from(BAD_CELLS[kind]))
        cells[data.draw(st.integers(0, d - 1))] = bad
        named = repr(bad)
    at = data.draw(st.integers(data_lines[0] + 1, len(lines)))
    lines = lines[:at] + [data.draw(st.sampled_from(DELIMS)).join(cells)] + lines[at:]
    f = tmp_path / "bad.txt"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ie.LoadError) as exc:
        ie.load_points(f, skip_header=header)
    assert exc.value.line == at + 1
    assert named in str(exc.value)


# ---------------------------------------------------------------- normalize_rows


def test_normalize_rows_hand_value():
    u = ie.normalize_rows(np.array([[3.0, 4.0]]))
    assert np.allclose(u.X, [[0.6, 0.8]], atol=1e-15)


def test_normalize_rows_unit_row_unchanged():
    u = ie.normalize_rows(np.array([[1.0, 0.0]]))
    assert np.array_equal(u.X, [[1.0, 0.0]])


def test_normalize_rows_zero_row_errors_with_index():
    with pytest.raises(ie.DegenerateVectorError) as exc:
        ie.normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert exc.value.row == 2


def test_normalize_rows_idempotent():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((40, 7)) * 5.0
    once = ie.normalize_rows(M).X
    twice = ie.normalize_rows(once).X
    assert np.abs(once - twice).max() <= 1e-12


# ---------------------------------------------------------------- pairwise


def test_pairwise_hand_example():
    P = ie.PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
    u = ie.pairwise_unit_differences(P)
    s = 1.0 / np.sqrt(2.0)
    expected = np.array([[-1.0, 0.0], [-s, -s], [0.0, -1.0]])
    assert u.n == 3
    assert np.allclose(u.X, expected, atol=1e-15)


def test_pairwise_count_and_unit_norms():
    rng = np.random.default_rng(11)
    P = ie.PointSet(rng.standard_normal((9, 4)))
    u = ie.pairwise_unit_differences(P)
    assert u.n == 9 * 8 // 2
    assert np.abs(np.linalg.norm(u.X, axis=1) - 1.0).max() <= 1e-12


def test_pairwise_scale_invariance():
    rng = np.random.default_rng(12)
    pts = rng.standard_normal((6, 3))
    a = ie.pairwise_unit_differences(ie.PointSet(pts)).X
    b = ie.pairwise_unit_differences(ie.PointSet(3.7 * pts)).X
    assert np.abs(a - b).max() <= 1e-12


def test_pairwise_coincident_error_names_pair():
    P = ie.PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ie.CoincidentPairError) as exc:
        ie.pairwise_unit_differences(P, dedup_policy="error")
    assert exc.value.pair == (1, 3)


def test_pairwise_drop_policy_drops_and_warns(caplog):
    P = ie.PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))
    with caplog.at_level("WARNING"):
        u = ie.pairwise_unit_differences(P, dedup_policy="drop")
    assert u.n == 2
    assert any("coincident" in r.message for r in caplog.records)


def test_pairwise_needs_two_points():
    with pytest.raises(ie.ShapeError):
        ie.pairwise_unit_differences(ie.PointSet(np.array([[1.0, 2.0]])))


def test_pairwise_all_pairs_coincident_fails_even_with_drop():
    P = ie.PointSet(np.array([[1.0, 2.0], [1.0, 2.0]]))
    with pytest.raises(ie.CoincidentPairError):
        ie.pairwise_unit_differences(P, dedup_policy="drop")


def test_pairwise_accepts_unit_set_invariants():
    rng = np.random.default_rng(5)
    u = unit_rows(rng, 15, 6)
    assert ie.is_on_simplex(np.full(u.n, 1.0 / u.n))


def _row_major_pairs(pts, drop=False):
    """Independent reference: (p_i - p_j) / ||p_i - p_j|| for i < j."""
    r = len(pts)
    D = np.array(
        [
            pts[i] - pts[j]
            for i in range(r)
            for j in range(i + 1, r)
            if not (drop and np.array_equal(pts[i], pts[j]))
        ]
    )
    return D / np.linalg.norm(D, axis=1)[:, None]


def test_pairwise_matches_reference_bitwise():
    pts = np.random.default_rng(13).standard_normal((25, 11)) * 3.0
    u = ie.pairwise_unit_differences(ie.PointSet(pts))
    assert u.X.tobytes() == _row_major_pairs(pts).tobytes()


def test_pairwise_drop_matches_reference_bitwise():
    pts = np.random.default_rng(14).standard_normal((12, 9))
    pts[7] = pts[2]
    pts[11] = pts[2]
    u = ie.pairwise_unit_differences(ie.PointSet(pts), dedup_policy="drop")
    assert u.n == 12 * 11 // 2 - 3
    assert u.X.tobytes() == _row_major_pairs(pts, drop=True).tobytes()


def test_pairwise_peak_memory_is_one_extra_copy():
    # The build needs the output plus one n x d temporary; the pair index
    # and norm vectors add O(n), about 0.13x of the output at d = 40.
    P = ie.PointSet(np.random.default_rng(15).standard_normal((300, 40)))
    tracemalloc.start()
    try:
        u = ie.pairwise_unit_differences(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * u.X.nbytes
