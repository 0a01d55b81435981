import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import isoembed as ie
from isoembed import cli
from isoembed.cli import run_cli


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
    assert json.loads(out.read_text())["n"] == 2


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
    # the loaded rows are freed once their renormalised copy exists
    loaded, alive = [], []
    real_load, real_run = cli.load_points, cli.run_projected_ascent
    monkeypatch.setattr(
        cli, "load_points",
        lambda *a, **kw: loaded.append(weakref.ref((p := real_load(*a, **kw)).points)) or p,
    )
    monkeypatch.setattr(
        cli, "run_projected_ascent", lambda *a: alive.append(loaded[0]() is not None) or real_run(*a)
    )
    with caplog.at_level("WARNING"):
        rc = run_cli(
            ["--input", str(path), "--mode", "rows", "--k", "1", "--iters", "3", "--out", str(out)]
        )
    assert rc == 0
    assert any("renormaliz" in rec.message for rec in caplog.records)
    assert json.loads(out.read_text())["n"] == 2
    assert alive == [False]


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
    # --dedup input point 400 repeats point 5, and that one pair is dropped.
    P = np.random.default_rng(23).standard_normal((400, 20))
    repeated = P.copy()
    repeated[399] = repeated[4]
    for pts, flags, policy, n in ((P, [], "error", 79_800),
                                  (repeated, ["--dedup"], "drop", 79_799)):
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
