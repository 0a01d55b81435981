import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import isoembed as ie
from isoembed import ingest
from isoembed.types import as_unit_vector_set
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


def test_direction_set_interface_is_what_the_solver_and_bounds_read():
    # rows(idx) belongs to the pair set alone, which --max-pairs samples.
    assert ie.DirectionSet.__abstractmethods__ == {"n", "d", "_unit_blocks", "_sq_proj_blocks"}
    assert not hasattr(ie.UnitVectorSet, "rows")


@pytest.mark.parametrize("cls", [ie.PointSet, ie.UnitVectorSet])
def test_float64_c_contiguous_input_is_taken_over_read_only(cls):
    own = np.eye(3)
    held = getattr(cls(own), "points" if cls is ie.PointSet else "X")
    assert np.shares_memory(held, own) and not own.flags.writeable
    with pytest.raises(ValueError, match="assignment destination is read-only"):
        own[0, 0] = 2.0
    for other in (np.eye(3, dtype=np.float32), np.asfortranarray(np.eye(3))):
        held = getattr(cls(other), "points" if cls is ie.PointSet else "X")
        assert not np.shares_memory(held, other) and other.flags.writeable


# The public functions that take raw rows, each with the rest of its arguments.
TAKES_ROWS = {
    "primal_distortion": lambda X: ie.primal_distortion(X, np.eye(X.shape[1])[:, :1]),
    "dual_objective": lambda X: ie.dual_objective(X, np.full(len(X), 1 / len(X)), 1),
    "dual_gradient": lambda X: ie.dual_gradient(X, np.full(len(X), 1 / len(X)), 1),
    "uniform_moment_matrix": ie.uniform_moment_matrix,
    "pca_basis": lambda X: ie.pca_basis(X, 1),
    "singular_spectrum": ie.singular_spectrum,
    "approximation_bound": ie.approximation_bound,
    "run_projected_ascent": lambda X: ie.run_projected_ascent(X, 1, ie.AscentConfig(T=2)),
}


@pytest.mark.parametrize("fn", TAKES_ROWS.values(), ids=TAKES_ROWS.keys())
def test_raw_rows_are_checked_as_a_unit_vector_set_checks_them(fn):
    # Unchecked, row 1 (norm 2) would give a dual value of -1/3, a bound_kappa
    # of 4.5e15, a spectrum summing to 6 for n = 3 and a clipped phi of -3.
    with pytest.raises(ie.ContractError, match="row 1 has norm 2; rows must be unit length"):
        fn(np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("fn", TAKES_ROWS.values(), ids=TAKES_ROWS.keys())
def test_raw_rows_are_not_taken_over(fn):
    X = unit_rows(np.random.default_rng(17), 12, 3).X.copy()
    fn(X)
    assert X.flags.writeable
    X[0, 0] = 2.0


def test_raw_rows_are_checked_on_a_view_not_a_copy():
    X = unit_rows(np.random.default_rng(18), 12, 3).X.copy()
    units = as_unit_vector_set(X)
    assert np.shares_memory(units.X, X) and not units.X.flags.writeable
    assert X.flags.writeable
    assert as_unit_vector_set(units) is units


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
    # It peaks at 0.088x: a few length-n vectors, 0.02x of the input each
    # at d = 50, and one block's squares, 0.064x.
    assert peak <= 0.15 * X.nbytes


def test_simplex_weights_validation():
    w = ie.SimplexWeights(np.full(4, 0.25))
    assert w.lam.shape == (4,)
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


def test_load_points_names_the_first_fault_of_two(tmp_path):
    # numpy's reader reads line 2's NaN before line 3 stops it; the re-read names line 2.
    f = tmp_path / "bad.csv"
    f.write_bytes(b"1,0\nnan,1\n\xff\xfe,2\n")
    with pytest.raises(ie.LoadError, match="non-finite") as exc:
        ie.load_points(f)
    assert exc.value.line == 2


def test_load_points_empty_file(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("# only a comment\n")
    with pytest.raises(ie.LoadError, match="empty"):
        ie.load_points(f)


def test_load_points_peak_memory_is_the_output(tmp_path):
    # Parsed values go into one float64 buffer that the PointSet wraps, so
    # the peak is the output plus one line's values and the buffer's slack.
    f = tmp_path / "pts.csv"
    np.savetxt(f, np.random.default_rng(18).standard_normal((2000, 50)), fmt="%.17g", delimiter=",")
    tracemalloc.start()
    try:
        ps = ie.load_points(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ps.points.shape == (2000, 50)
    assert peak <= 1.5 * ps.points.nbytes


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


# The C reader against the reference line parse: finite doubles, subnormals,
# signed zeros and the extremes among them, in three exact spellings.
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
            -1.7976931348623157e308]
SPELLINGS = {"%.17g": lambda v: "%.17g" % v, "repr": repr, "%.18e": lambda v: "%.18e" % v}


def _refuse_line_parse(text, lineno):
    raise AssertionError(f"line {lineno} was read line by line")


@FILE_EXAMPLES
@given(
    st.integers(1, 5).flatmap(lambda d: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES),
                 min_size=d, max_size=d),
        min_size=1, max_size=8,
    )),
    st.sampled_from(sorted(SPELLINGS)),
    st.sampled_from([",", ", ", " ", "\t"]),
    st.sampled_from(["\n", "\r\n"]),
)
def test_c_reader_matches_the_line_parse_bit_for_bit(tmp_path, monkeypatch, rows, spelling, delim, eol):
    f = tmp_path / "pts.txt"
    f.write_bytes("".join(delim.join(map(SPELLINGS[spelling], row)) + eol for row in rows).encode())
    with monkeypatch.context() as m:
        m.setattr(ingest, "_parse_line", _refuse_line_parse)
        fast = ie.load_points(f).points
    with open(f, "rb") as fh:
        reference = ingest._read_lines(ingest._data_lines(fh, False))
    assert fast.shape == reference.shape == (len(rows), len(rows[0]))
    assert fast.tobytes() == reference.tobytes() == np.array(rows).tobytes()


def test_a_file_with_one_delimiter_is_not_read_line_by_line(tmp_path, monkeypatch, caplog):
    f = tmp_path / "pts.txt"
    P = np.random.default_rng(19).standard_normal((30, 5))
    np.savetxt(f, P, header="a b c d e")  # %.18e, space-delimited, a "#" header
    calls = []
    real = ingest._parse_line
    monkeypatch.setattr(ingest, "_parse_line", lambda *a: calls.append(a) or real(*a))
    with caplog.at_level("INFO", logger="isoembed.ingest"):
        ps = ie.load_points(f)
    assert calls == []
    assert ps.points.tobytes() == P.tobytes()
    assert [rec.getMessage()[:22] for rec in caplog.records] == ["read 30 x 5 points in "]


def test_a_valid_file_numpy_refuses_is_read_line_by_line(tmp_path, caplog):
    f = tmp_path / "pts.txt"
    f.write_text("1,2\n3 4\n1_000\t5\n")
    with caplog.at_level("INFO", logger="isoembed.ingest"):
        ps = ie.load_points(f)
    assert ps.points.tolist() == [[1.0, 2.0], [3.0, 4.0], [1000.0, 5.0]]
    assert "read 3 x 2 points in " in caplog.text and "line by line" in caplog.text


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


def test_normalize_rows_scales_rows_of_extreme_norm_first():
    # 1e200 squared overflows and 1e-170 squared underflows, so neither
    # row's np.linalg.norm is its length; each is divided by its largest
    # entry first. The other rows are bitwise M / np.linalg.norm(M).
    M = np.array([[1e200, 1e200], [3.0, 4.0], [1e-170, -1e-170], [0.0, 5e-324], [1.0, 1.0]])
    u = ie.normalize_rows(M)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(u.X, [[s, s], [0.6, 0.8], [s, -s], [0.0, 1.0], [s, s]], atol=1e-15)
    plain = [1, 4]
    assert np.array_equal(u.X[plain], M[plain] / np.linalg.norm(M[plain], axis=1)[:, None])
    with pytest.raises(ie.DegenerateVectorError) as exc:
        ie.normalize_rows(np.array([[1e-170, 0.0], [0.0, 0.0]]))
    assert exc.value.row == 2


@pytest.mark.parametrize(
    "M, row",
    [([[1.0, np.inf]], 1), ([[1.0, 2.0], [np.nan, 1.0]], 2), ([[-np.inf, 0.0]], 1)],
)
def test_normalize_rows_refuses_non_finite_rows_before_dividing(M, row):
    # Under the suite's warnings-as-errors, a division by the infinite
    # entry would raise its RuntimeWarning in place of the ContractError.
    with pytest.raises(ie.ContractError, match=f"row {row} contains non-finite entries"):
        ie.normalize_rows(np.array(M))


def test_normalize_rows_idempotent():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((40, 7)) * 5.0
    once = ie.normalize_rows(M).X
    twice = ie.normalize_rows(once).X
    assert twice.tobytes() == once.tobytes()


@pytest.mark.parametrize("shape", [(2, 0), (0, 3)])
def test_normalize_rows_refuses_an_empty_matrix_of_either_shape(shape):
    with pytest.raises(ie.ShapeError, match="must be non-empty"):
        ie.normalize_rows(np.empty(shape))


@st.composite
def scaled_rows(draw):
    """Rows of random directions, each scaled near unit length (by at most
    1e-7, which UnitVectorSet renormalises) or, unless ``near``, anywhere in
    [1e-3, 1e3]."""
    d = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d),
                         min_size=1, max_size=12))
    M = np.array(rows)
    norms = np.linalg.norm(M, axis=1)
    assume((norms > 1e-3).all())
    near = draw(st.booleans())
    scale = st.floats(1.0 - 1e-7, 1.0 + 1e-7) if near else st.floats(1e-3, 1e3)
    scales = np.array(draw(st.lists(scale, min_size=len(rows), max_size=len(rows))))
    return M / norms[:, None] * scales[:, None], near


# Row 1's np.linalg.norm exceeds 1 by just over ROW_NORM_TOL, and the norm
# one ulp below it, which an einsum of the squares gives, by just under: the
# check of UnitVectorSet must take the norms as the renormalising rule does.
ULP_APART = np.array([
    [0.8791598341969785, -0.2416704350227883, -0.4106986593241297],
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
])


@settings(max_examples=100, deadline=None)
@given(scaled_rows())
@example((ULP_APART, True))
def test_unit_vector_set_keeps_normalize_rows_output_bit_for_bit(spec):
    # One rule for unit rows: UnitVectorSet keeps what normalize_rows
    # returns, and renormalises the rows it accepts into the same bits.
    M, near = spec
    X = ie.normalize_rows(M).X
    assert ie.UnitVectorSet(X.copy()).X.tobytes() == X.tobytes()
    if near:
        assert ie.UnitVectorSet(M).X.tobytes() == X.tobytes()


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
    # The first coincidence in row-major order is past point 1's pairs,
    # and a later point's pairs hold another one.
    pts = np.random.default_rng(17).standard_normal((10, 3))
    pts[7] = pts[2]
    pts[5] = pts[4]
    with pytest.raises(ie.CoincidentPairError) as exc:
        ie.pairwise_unit_differences(ie.PointSet(pts), dedup_policy="error")
    assert exc.value.pair == (3, 8)


def test_pairwise_drop_policy_drops_and_warns(caplog):
    P = ie.PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))
    with caplog.at_level("WARNING"):
        u = ie.pairwise_unit_differences(P, dedup_policy="drop")
    assert u.n == 1
    assert caplog.messages == ["dropped 1 repeated point(s) of 3"]


@pytest.mark.parametrize("build", [ie.pairwise_unit_differences, ie.PairDifferenceSet])
def test_pairwise_takes_raw_points_and_copies_them(build):
    pts = np.random.default_rng(14).standard_normal((7, 3))
    want = build(ie.PointSet(pts.copy()))
    for raw in (pts, pts.tolist()):
        got = build(raw)
        assert (got.n, got.fingerprint()) == (want.n, want.fingerprint())
    assert pts.flags.writeable
    pts[0, 0] = np.nan
    with pytest.raises(ie.ContractError, match="point set contains non-finite entries"):
        build(pts)


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


def _row_major_pairs(pts):
    """Independent reference: (p_i - p_j) / ||p_i - p_j|| for i < j."""
    r = len(pts)
    D = np.array([pts[i] - pts[j] for i in range(r) for j in range(i + 1, r)])
    return D / np.linalg.norm(D, axis=1)[:, None]


def test_pairwise_matches_reference_bitwise():
    pts = np.random.default_rng(13).standard_normal((25, 11)) * 3.0
    u = ie.pairwise_unit_differences(ie.PointSet(pts))
    assert u.X.tobytes() == _row_major_pairs(pts).tobytes()


def test_pairwise_drop_matches_reference_bitwise(caplog):
    rng = np.random.default_rng(14)
    # Points 8 and 12 repeat point 3 in the first input. Point 12 repeats
    # point 11 in the second, the pair of the last block. The later copies
    # are dropped.
    repeated = rng.standard_normal((12, 9))
    repeated[7] = repeated[2]
    repeated[11] = repeated[2]
    last = rng.standard_normal((12, 9))
    last[11] = last[10]
    for pts, dropped in ((repeated, [7, 11]), (last, [11])):
        caplog.clear()
        with caplog.at_level("WARNING"):
            u = ie.pairwise_unit_differences(ie.PointSet(pts), dedup_policy="drop")
        kept = np.delete(pts, dropped, axis=0)
        assert u.n == (12 - len(dropped)) * (11 - len(dropped)) // 2
        assert u.X.tobytes() == _row_major_pairs(kept).tobytes()
        assert caplog.messages == [f"dropped {len(dropped)} repeated point(s) of 12"]


def test_pairwise_peak_memory_is_the_output():
    # The build keeps one float per pair and reads one point's differences at
    # a time. A repeated point is dropped, and the first pass's pair lengths
    # are freed before the kept points' are built: a dense build would need
    # 8 d = 320 B/pair.
    pts = np.random.default_rng(15).standard_normal((300, 40))
    pts[299] = pts[3]
    P = ie.PointSet(pts)
    tracemalloc.start()
    try:
        u = ie.pairwise_unit_differences(P, dedup_policy="drop")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.n == 299 * 298 // 2
    assert peak <= 32 * u.n
