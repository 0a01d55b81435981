"""Tests of the benchmark itself (not of isoembed).

Run from the repository root:  python3 -m pytest perfbench
The smoke runs use tiny shapes and finish in seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from checks import check_report, check_trace, iters_to_best  # noqa: E402
from workloads import WORKLOADS, workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module", params=[0, 1], ids=["end_to_end", "per_layer"])
def smoke(request):
    proc = run_bench("--workload", "all", "--smoke", "--seconds", "0.5",
                     "--trace", str(request.param))
    assert proc.returncode == 0, proc.stderr
    return request.param, proc.stdout.splitlines()


def test_smoke_runs_every_workload_correctly(smoke):
    _, lines = smoke
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    assert not [line for line in lines if line.startswith("FAILED")]


def test_smoke_prints_every_metric_with_its_unit(smoke):
    trace, lines = smoke
    spec = SPEC["per_layer" if trace else "end_to_end"]
    result = json.loads(lines[-1])
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in spec}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    table = [line.split() for line in lines[:-1] if line.startswith("  ")]
    for m in spec:
        rows = [row for row in table if row[0] == m["name"]]
        assert len(rows) == len(WORKLOADS), m["name"]
        assert all(row[2] == m["unit"] for row in rows), m["name"]
    if trace:
        assert sum(line.startswith("layer self time") for line in lines) == len(WORKLOADS)
    else:
        assert sum(row[0] == "failed_frac" and row[1] == "0" for row in table) == len(WORKLOADS)


def test_single_workload_prints_the_contract_line():
    proc = run_bench("--workload", "pairwise-solve", "--smoke", "--seconds", "0.1", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_run_py():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert SPEC["paths"] == ["perfbench"]


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rows-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---- each correctness check can fail ----

EXPECT = {"n": 10, "d": 3, "k": 2, "iters": 4, "fingerprint": "abc"}


def report(**overrides):
    values = {"n": 10, "d": 3, "k": 2, "iters": 4, "epsilon_alg": 0.5, "dual_best": 0.25,
              "epsilon_pca": 0.6, "input_fingerprint": "abc"}
    values.update(overrides)
    return json.dumps(values)


def trace(rows=6, final="0.5"):
    body = ["%d,0.2,0.5,0.5,0" % t for t in range(rows - 1)]
    return "t,dual_value,primal_epsilon,best_epsilon,degenerate\n" + "\n".join(
        body + ["avg,0.2,0.5,%s,0" % final]) + "\n"


def test_a_good_report_and_trace_pass():
    assert check_report(report(), EXPECT) == []
    assert check_trace(trace(), 4, 0.5) == []


@pytest.mark.parametrize("overrides, needle", [
    ({"dual_best": 0.5 + 2e-8}, "weak duality"),
    ({"epsilon_alg": 0.7}, "worse than PCA"),
    ({"epsilon_alg": -0.1, "dual_best": -0.2}, "outside [0, 1]"),
    ({"epsilon_alg": 1.5, "epsilon_pca": 2.0}, "outside [0, 1]"),
    ({"n": 11}, "report n"),
    ({"d": 4}, "report d"),
    ({"k": 3}, "report k"),
    ({"iters": 5}, "report iters"),
    ({"input_fingerprint": "abd"}, "input_fingerprint"),
    ({"dual_best": "inf"}, "not a number"),
])
def test_each_report_check_can_fail(overrides, needle):
    fails = check_report(report(**overrides), EXPECT)
    assert any(needle in f for f in fails), fails


def test_an_unparsable_report_fails():
    assert check_report('{"n": 10,', EXPECT)


def test_trace_checks_can_fail():
    assert "rows" in check_trace(trace(rows=5), 4, 0.5)[0]
    assert "best_epsilon" in check_trace(trace(final="0.49"), 4, 0.5)[0]


def test_iters_to_best_reads_the_first_iterate_at_the_final_best():
    text = "t,d,p,b,g\n0,0,0.9,0.9,0\n1,0,0.8,0.8,0\n2,0,0.85,0.8,0\navg,0,0.7,0.7,0\n"
    assert iters_to_best(text) == 1


def fake_child(code):
    def child(label, argv):
        out = argv[argv.index("--out") + 1]
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(report())
        with open(argv[argv.index("--trace") + 1], "w", encoding="utf-8") as fh:
            fh.write(trace())
        return bench.ChildResult(code, 0.0, 1.0, 10.0, "", "boom")
    return child


def make_bench(tmp_path):
    b = bench.Bench(workload("pairwise-solve", smoke=True), 1, True, str(tmp_path))
    b.w = type(b.w)(**{**b.w.__dict__, "iters": EXPECT["iters"]})
    b.expect = EXPECT
    return b


def test_a_nonzero_exit_fails_the_run(tmp_path):
    b = make_bench(tmp_path)
    b.child = fake_child(1)
    assert b.embed("one") is None
    assert b.failures == [("one", "exit code 1: boom")]


def test_report_bytes_must_repeat_across_runs(tmp_path):
    b = make_bench(tmp_path)
    assert b.check_outputs("a", report(), trace())
    assert b.check_outputs("b", report(), trace())
    assert not b.check_outputs("c", report(dual_best=0.2500000000000001), trace())
    assert b.failures and b.failures[0][0] == "c"
    b.child = fake_child(0)
    assert b.embed("d") is not None
