import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import isoembed as ie
from isoembed import cli
from isoembed import types as types_module
from isoembed.cli import run_cli
from isoembed.types import ROW_NORM_TOL


def write_matrix(path, M, header=None):
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for row in np.asarray(M):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


@pytest.fixture
def small_input(tmp_path):
    rng = np.random.default_rng(70)
    path = tmp_path / "pts.csv"
    write_matrix(path, rng.standard_normal((12, 4)))
    return path


def test_happy_path_report_and_trace(tmp_path, small_input):
    out = tmp_path / "report.json"
    trace = tmp_path / "trace.csv"
    rc = run_cli(
        [
            "--input", str(small_input),
            "--k", "2",
            "--iters", "15",
            "--mode", "pairwise",
            "--baselines", "pca,random",
            "--out", str(out),
            "--trace", str(trace),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["n"] == 12 * 11 // 2
    assert report["d"] == 4 and report["k"] == 2 and report["iters"] == 15
    assert report["mode"] == "pairwise"
    assert report["epsilon_alg"] <= report["epsilon_pca"] + 1e-12
    units = ie.pairwise_unit_differences(ie.load_points(small_input))
    assert report["epsilon_pca"] == ie.primal_distortion(units, ie.pca_basis(units, 2)).epsilon
    assert 0.0 <= report["epsilon_random"] <= 1.0
    assert report["dual_best"] <= report["epsilon_alg"] + 1e-8
    assert report["runtime_seconds"] is None
    assert len(report["input_fingerprint"]) == 64
    lines = trace.read_text().splitlines()
    assert lines[0] == "t,dual_value,primal_epsilon,best_epsilon,degenerate"
    assert len(lines) - 1 == 15 + 2  # t=0, 15 iterates, average row
    assert lines[-1].startswith("avg,")


def test_usage_errors_exit_2(small_input, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--input", str(small_input), "--k", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["--input", str(small_input), "--k", "2", "--iters", "-3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["--input", str(small_input), "--k", "2", "--baselines", "tsne"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["--input", str(small_input), "--k", "99"])
    assert exc.value.code == 2
    # The remaining errors are found before the input is read.
    reads = []
    monkeypatch.setattr(cli, "load_points", lambda *a, **kw: reads.append(1))
    capsys.readouterr()
    for args in (
        ("--eta", "-1"),
        ("--eta", "nan"),
        ("--eta", "inf"),
        ("--rank-tol", "1"),
        ("--rank-tol", "-0.5"),
        ("--rank-tol", "nan"),
        ("--max-pairs", "-1"),
        ("--seed", "-1"),
        ("--mode", "rows", "--max-pairs", "5"),
        ("--mode", "rows", "--dedup"),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--input", str(small_input), "--k", "2", *args])
        assert exc.value.code == 2, args
        flag = [a for a in args if a.startswith("--")][-1]
        assert flag in capsys.readouterr().err, args
    assert reads == []


def test_k_above_d_is_refused_before_the_pair_build(small_input, capsys, monkeypatch):
    builds = []
    monkeypatch.setattr(cli, "pairwise_unit_differences", lambda *a, **kw: builds.append(1))
    with pytest.raises(SystemExit) as exc:
        run_cli(["--input", str(small_input), "--k", "5"])
    assert exc.value.code == 2
    assert "--k 5 exceeds the data dimension 4" in capsys.readouterr().err
    assert builds == []


def test_data_errors_exit_1(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    rc = run_cli(["--input", str(missing), "--k", "1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,0\n0,1,2\n")
    rc = run_cli(["--input", str(ragged), "--k", "1"])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err

    not_utf8 = tmp_path / "latin1.csv"
    not_utf8.write_bytes(b"1,0\n0,1\n\xff\xfe,2\n")
    rc = run_cli(["--input", str(not_utf8), "--k", "1"])
    assert rc == 1
    assert "line 3" in capsys.readouterr().err


def test_coincident_points_need_dedup(tmp_path, capsys):
    path = tmp_path / "dups.csv"
    write_matrix(path, [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    rc = run_cli(["--input", str(path), "--k", "1", "--iters", "2"])
    assert rc == 1
    assert "coincide" in capsys.readouterr().err
    out = tmp_path / "r.json"
    rc = run_cli(
        ["--input", str(path), "--k", "1", "--iters", "2", "--dedup", "--out", str(out)]
    )
    assert rc == 0
    assert json.loads(out.read_text())["n"] == 1  # the pair of points 1 and 2


def test_zero_iterations_collapses_to_pca(tmp_path, small_input):
    out = tmp_path / "r.json"
    rc = run_cli(
        [
            "--input", str(small_input),
            "--k", "2",
            "--iters", "0",
            "--baselines", "pca",
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["epsilon_alg"] == report["epsilon_pca"]
    assert report["eta"] == 0


def test_rank_one_bounds_serialize_as_inf(tmp_path):
    path = tmp_path / "line.csv"
    write_matrix(path, [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    out = tmp_path / "r.json"
    rc = run_cli(
        ["--input", str(path), "--mode", "rows", "--k", "1", "--iters", "2", "--out", str(out)]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["bound_sigma"] == "inf" and report["bound_kappa"] == "inf"


def test_rows_mode_renormalizes_with_warning(tmp_path, caplog, monkeypatch):
    path = tmp_path / "rows.csv"
    write_matrix(path, [[2.0, 0.0], [0.0, 0.5]])
    out = tmp_path / "r.json"
    # the loaded rows are divided in place: the solve reads the loaded buffer
    loaded, same = [], []
    real_load, real_run = cli.load_points, cli.run_projected_ascent
    monkeypatch.setattr(
        cli, "load_points",
        lambda *a, **kw: loaded.append(weakref.ref((p := real_load(*a, **kw)).points)) or p,
    )
    monkeypatch.setattr(
        cli, "run_projected_ascent", lambda *a: same.append(a[0].X is loaded[0]()) or real_run(*a)
    )
    with caplog.at_level("WARNING"):
        rc = run_cli(
            ["--input", str(path), "--mode", "rows", "--k", "1", "--iters", "3", "--out", str(out)]
        )
    assert rc == 0
    assert any("renormaliz" in rec.message for rec in caplog.records)
    assert json.loads(out.read_text())["n"] == 2
    assert same == [True]


def test_rows_mode_renormalizes_rows_of_extreme_norm(tmp_path):
    # Squared, 1e200 overflows and 1e-170 underflows to 0.
    path = tmp_path / "rows.csv"
    write_matrix(path, [[1e200, 1e200], [1e-170, 1e-170], [1.0, 2.0]])
    out = tmp_path / "r.json"
    rc = run_cli(
        ["--input", str(path), "--mode", "rows", "--k", "1", "--iters", "3", "--out", str(out)]
    )
    assert rc == 0
    assert json.loads(out.read_text())["n"] == 3


def test_rows_mode_holds_its_rows_once(tmp_path):
    # 40,000 x 50 rows of norm about 21: the rows are divided where they
    # were parsed, and the norms are taken a block of rows at a time.
    path = tmp_path / "rows.csv"
    P = 3.0 * np.random.default_rng(29).standard_normal((40_000, 50))
    np.savetxt(path, P, fmt="%.17g", delimiter=",")
    args = cli.build_parser().parse_args(["--input", str(path), "--mode", "rows", "--k", "2"])
    points = ie.load_points(path)
    tracemalloc.start()
    try:
        units = cli._build_units(args, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * units.X.nbytes
    assert np.shares_memory(units.X, points.points)
    assert np.array_equal(units.X, P / np.linalg.norm(P, axis=1)[:, None])


def test_near_unit_rows_are_normalised_alike_by_the_library_and_embed(tmp_path):
    # Unit rows written with 8 decimals are off unit length by up to about
    # 1e-8, past ROW_NORM_TOL: UnitVectorSet, normalize_rows, the library's
    # run and embed renormalise them by one rule, into the same bits.
    M = np.random.default_rng(5).standard_normal((50, 5))
    path = tmp_path / "rows.csv"
    np.savetxt(path, M / np.linalg.norm(M, axis=1)[:, None], fmt="%.8f", delimiter=",")
    P = np.loadtxt(path, delimiter=",")
    X = ie.normalize_rows(P).X
    assert ie.UnitVectorSet(P.copy()).X.tobytes() == X.tobytes()
    result = ie.run_projected_ascent(P, 2, ie.AscentConfig(T=10))
    out = tmp_path / "r.json"
    argv = ["--input", str(path), "--mode", "rows", "--k", "2", "--iters", "10", "--out", str(out)]
    assert run_cli(argv) == 0
    report = json.loads(out.read_text())
    assert report["input_fingerprint"] == result.fingerprint == ie.matrix_fingerprint(X)
    assert report["epsilon_alg"] == result.distortion.epsilon


@st.composite
def row_files(draw):
    """Rows that are not all unit length, some of extreme norm, as the text
    of a rows file. Under line_by_line the second line is split on spaces
    and the others on commas, which numpy's reader refuses."""
    d = draw(st.integers(2, 5))
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=2, max_size=10))
    scales = draw(st.lists(st.sampled_from([1e-3, 1.0, 1e3, 1e200, 1e-170]),
                           min_size=len(rows), max_size=len(rows)))
    M = np.array(rows) * np.array(scales)[:, None]
    assume(all(np.any(row != 0.0) for row in M))
    with np.errstate(over="ignore"):
        assume(np.abs(np.sqrt(np.einsum("ij,ij->i", M, M)) - 1.0).max() > ROW_NORM_TOL)
    line_by_line = draw(st.booleans())
    lines = [(" " if line_by_line and i == 1 else ",").join("%.17g" % v for v in row)
             for i, row in enumerate(M)]
    return M, "\n".join(lines) + "\n", draw(st.integers(1, 2 * d))


@settings(max_examples=80, deadline=None)
@given(row_files())
@example((np.array([[1e200, 1e200], [1e-170, -1e-170], [3.0, 4.0]]),
          "1e200,1e200\n1e-170 -1e-170\n3,4\n", 2))
def test_rows_mode_divides_in_place_bitwise_as_normalize_rows(spec):
    # Blocks of one or two rows against the whole-array norms of
    # normalize_rows at its default block, which holds every drawn row.
    M, text, block_entries = spec
    expected = ie.normalize_rows(M).X
    args = cli.build_parser().parse_args(["--input", "-", "--mode", "rows", "--k", "1"])
    patch = mock.patch.object(types_module, "_BLOCK_ENTRIES", block_entries)
    with tempfile.TemporaryDirectory() as tmp, patch:
        path = Path(tmp) / "rows.csv"
        path.write_text(text)
        X = cli._build_units(args, ie.load_points(path)).X
    assert X.tobytes() == expected.tobytes()
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(M, axis=1)
    if ((norms >= math.sqrt(np.finfo(np.float64).tiny)) & (norms < math.inf)).all():
        assert X.tobytes() == (M / norms[:, None]).tobytes()


@pytest.mark.parametrize("rows", ["0,0\n0,1\n0,2\n", "1e308,0\n1e308,1\n1e308,2\n"])
def test_exact_embeddings_report_no_dual_above_epsilon(tmp_path, rows):
    # Collinear points: every difference is (0, 1), which k = 1 embeds
    # exactly, so each iterate's epsilon is 0 and so is its dual.
    path = tmp_path / "line.csv"
    path.write_text(rows)
    out, trace = tmp_path / "r.json", tmp_path / "t.csv"
    rc = run_cli(["--input", str(path), "--k", "1", "--iters", "5", "--out", str(out),
                  "--trace", str(trace)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["dual_best"] <= report["epsilon_alg"]
    records = list(csv.DictReader(trace.read_text().splitlines()))
    assert len(records) == 7
    assert all(float(rec["dual_value"]) <= float(rec["primal_epsilon"]) for rec in records)


def test_points_whose_column_sums_overflow_embed(tmp_path, caplog):
    # Under filterwarnings = error a numpy overflow warning would fail this run.
    path = tmp_path / "far.csv"
    path.write_text("1e308,0\n1e308,1\n1e308,2\n")
    out = tmp_path / "r.json"
    with caplog.at_level("INFO"):
        rc = run_cli(["--input", str(path), "--k", "1", "--iters", "5", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["n"] == 3
    assert "read 3 x 2 points in " in caplog.text


def test_closing_line_states_time_and_peak_rss(tmp_path, small_input, caplog, monkeypatch):
    out, trace = tmp_path / "r.json", tmp_path / "t.csv"
    argv = ["--input", str(small_input), "--k", "2", "--iters", "5", "--out", str(out),
            "--trace", str(trace)]
    with caplog.at_level("INFO"):
        assert run_cli(argv) == 0
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("finished")]
    assert len(lines) == 1
    m = re.fullmatch(r"finished in (\d+\.\d{3}) s, peak RSS (\d+\.\d) MB", lines[0])
    assert m, lines[0]
    assert 1.0 <= float(m.group(2)) <= 1e5  # in MB, not KiB or bytes
    # Without the resource module the clause is left out.
    blobs = out.read_bytes(), trace.read_bytes()
    caplog.clear()
    monkeypatch.setattr(cli, "resource", None)
    with caplog.at_level("INFO"):
        assert run_cli(argv) == 0
    assert any(re.fullmatch(r"finished in \d+\.\d{3} s", r.getMessage()) for r in caplog.records)
    assert (out.read_bytes(), trace.read_bytes()) == blobs


def test_header_flag_skips_first_line(tmp_path):
    path = tmp_path / "h.csv"
    write_matrix(path, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], header="x,y")
    out = tmp_path / "r.json"
    rc = run_cli(
        ["--input", str(path), "--header", "--k", "1", "--iters", "2", "--out", str(out)]
    )
    assert rc == 0
    assert json.loads(out.read_text())["n"] == 3


def test_max_pairs_subsamples(tmp_path, small_input):
    out = tmp_path / "r.json"
    rc = run_cli(
        [
            "--input", str(small_input),
            "--k", "2",
            "--iters", "3",
            "--max-pairs", "20",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert json.loads(out.read_text())["n"] == 20


def test_max_pairs_builds_only_the_sampled_rows(tmp_path):
    # 79,800 pairs of 400 points: the full dense set would be 12.8 MB, the
    # 500 sampled rows are 80 kB, and the pair lengths 0.64 MB. In the
    # --dedup input point 400 repeats point 5, and that point is dropped.
    P = np.random.default_rng(23).standard_normal((400, 20))
    repeated = P.copy()
    repeated[399] = repeated[4]
    for pts, flags, policy, n in ((P, [], "error", 79_800),
                                  (repeated, ["--dedup"], "drop", 79_401)):
        path = tmp_path / f"pts_{policy}.csv"
        write_matrix(path, pts)
        args = cli.build_parser().parse_args(
            ["--input", str(path), "--k", "2", "--max-pairs", "500", *flags]
        )
        tracemalloc.start()
        try:
            units = cli._build_units(args, ie.load_points(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert units.n == 500 and peak <= 2 * 2**20
        keep = np.sort(np.random.default_rng(42).choice(n, size=500, replace=False))
        full = ie.pairwise_unit_differences(ie.load_points(path), dedup_policy=policy)
        assert full.n == n
        assert units.X.tobytes() == full.X[keep].tobytes()


@pytest.mark.parametrize("sample", [[], ["--max-pairs", "100"]])
def test_dedup_writes_the_bytes_of_the_input_without_its_repeats(tmp_path, sample):
    # Point 31 repeats point 6, and point 40 lies 1e-160 from point 2, both
    # 1-based: those two are dropped, and 38 points give 703 pairs.
    P = np.random.default_rng(28).standard_normal((40, 5))
    P[1, 0] = 0.0
    P[30] = P[5]
    P[39] = P[1]
    P[39, 0] = 1e-160
    files = {}
    for name, pts, flags in (("dedup", P, ["--dedup"]), ("kept", np.delete(P, [30, 39], axis=0), [])):
        path = tmp_path / f"{name}.csv"
        write_matrix(path, pts)
        out, trace = tmp_path / f"{name}.json", tmp_path / f"{name}.trace.csv"
        rc = run_cli(
            ["--input", str(path), "--k", "2", "--iters", "20", "--baselines", "pca,random",
             *flags, *sample, "--out", str(out), "--trace", str(trace)]
        )
        assert rc == 0
        files[name] = (out.read_bytes(), trace.read_bytes())
    assert json.loads(files["kept"][0])["n"] == (100 if sample else 703)
    assert files["dedup"] == files["kept"]


def test_reports_are_byte_identical(tmp_path, small_input):
    outs, traces = [], []
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.json"
        trace = tmp_path / f"trace_{tag}.csv"
        rc = run_cli(
            [
                "--input", str(small_input),
                "--k", "2",
                "--iters", "20",
                "--baselines", "pca,random",
                "--out", str(out),
                "--trace", str(trace),
            ]
        )
        assert rc == 0
        outs.append(out.read_bytes())
        traces.append(trace.read_bytes())
    assert outs[0] == outs[1]
    assert traces[0] == traces[1]


def test_report_field_order_is_fixed(tmp_path, small_input):
    out = tmp_path / "r.json"
    for baselines, epsilons in (
        ("pca", ["epsilon_pca"]),
        ("random", ["epsilon_random"]),
        ("pca,random", ["epsilon_pca", "epsilon_random"]),
    ):
        run_cli(
            [
                "--input", str(small_input),
                "--k", "1",
                "--iters", "2",
                "--baselines", baselines,
                "--out", str(out),
            ]
        )
        keys = list(json.loads(out.read_text()).keys())
        assert keys == [
            "n", "d", "k", "iters", "eta", "mode", "epsilon_alg", "selected_iterate",
            "dual_best", *epsilons, "bound_sigma", "bound_kappa", "rank", "kappa",
            "sigma_max", "degenerate_iterations", "runtime_seconds", "input_fingerprint",
        ], baselines


def test_stdout_report_when_no_out(capsys, small_input):
    rc = run_cli(["--input", str(small_input), "--k", "1", "--iters", "2"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["k"] == 1


def test_explicit_eta_is_reported(tmp_path, small_input):
    out = tmp_path / "r.json"
    rc = run_cli(
        ["--input", str(small_input), "--k", "2", "--iters", "4",
         "--eta", "0.01", "--out", str(out)]
    )
    assert rc == 0
    assert json.loads(out.read_text())["eta"] == 0.01


def test_run_hashes_and_builds_the_pca_solution_once(tmp_path, small_input, monkeypatch):
    # count every sha256 digest, whether a matrix or a stream of pair rows is hashed
    hashes = []
    real_hash = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda *a: hashes.append(1) or real_hash(*a))
    # count every moment build, whichever direction set the CLI holds
    moments = []
    for cls in (ie.UnitVectorSet, ie.PairDifferenceSet):
        monkeypatch.setattr(
            cls, "moment", lambda X, w, real=cls.moment: moments.append(1) or real(X, w)
        )
    rc = run_cli(
        ["--input", str(small_input), "--k", "2", "--iters", "6",
         "--baselines", "pca,random", "--out", str(tmp_path / "r.json")]
    )
    assert rc == 0
    assert len(hashes) == 1
    assert len(moments) == 6 + 2  # t = 0, six steps, the average iterate


def test_weak_duality_violation_exits_1_without_a_report(tmp_path, small_input, capsys, monkeypatch):
    real = cli.run_projected_ascent
    # A dual above epsilon, and a NaN dual, which no comparison lets through.
    for forged in (lambda eps: eps + 1e-3, lambda eps: math.nan):

        def violating(*args):
            res = real(*args)
            return dataclasses.replace(res, best_dual_value=forged(res.distortion.epsilon))

        monkeypatch.setattr(cli, "run_projected_ascent", violating)
        out = tmp_path / "r.json"
        rc = run_cli(["--input", str(small_input), "--k", "2", "--iters", "3", "--out", str(out)])
        assert rc == 1
        assert "weak duality violated" in capsys.readouterr().err
        assert not out.exists()


def test_report_writes_a_dual_within_rounding_of_epsilon_as_epsilon(
    tmp_path, small_input, monkeypatch
):
    real = cli.run_projected_ascent

    def rounded_up(*args):
        res = real(*args)
        return dataclasses.replace(res, best_dual_value=res.distortion.epsilon + 1e-12)

    monkeypatch.setattr(cli, "run_projected_ascent", rounded_up)
    out = tmp_path / "r.json"
    assert run_cli(["--input", str(small_input), "--k", "2", "--iters", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["dual_best"] == report["epsilon_alg"]


def test_unwritable_out_path_exits_1(tmp_path, small_input, capsys):
    rc = run_cli(
        ["--input", str(small_input), "--k", "1", "--iters", "1",
         "--out", str(tmp_path)]  # a directory, not a file
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_refused_allocation_exits_1(small_input, capsys, monkeypatch):
    from isoembed import cli

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 37.3 TiB for an array")

    monkeypatch.setattr(cli, "pairwise_unit_differences", refuse)
    rc = run_cli(["--input", str(small_input), "--k", "1"])
    assert rc == 1
    assert capsys.readouterr().err == "embed: error: Unable to allocate 37.3 TiB for an array\n"


def test_fresh_processes_write_identical_bytes(tmp_path):
    # the README's contract: same build and BLAS thread count, same bytes
    rng = np.random.default_rng(71)
    src = tmp_path / "pts.csv"
    write_matrix(src, rng.standard_normal((30, 5)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    root = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    blobs = []
    for tag in ("a", "b"):
        out, trace = tmp_path / f"r_{tag}.json", tmp_path / f"t_{tag}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "isoembed.cli", "--input", str(src), "--k", "2",
             "--iters", "25", "--baselines", "pca,random", "--seed", "3",
             "--out", str(out), "--trace", str(trace)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append((out.read_bytes(), trace.read_bytes()))
    assert blobs[0] == blobs[1]
