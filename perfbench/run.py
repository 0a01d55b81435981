#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `embed` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload pairwise-solve --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload, one table
    python3 perfbench/run.py --workload all --smoke         # tiny shapes, a few seconds

One parent process (this one, standard library only) runs one child at a
time in a closed loop: a child starts only after the previous one exited.
Every child gets `src` on PYTHONPATH and its BLAS thread count pinned to
BLAS_THREADS, which is recorded, because the thread count changes the
report's last bits.

--trace 0 writes the input (prepare.py), makes one discarded warm-up
`embed` run, then alternates timed `embed` runs with set-up probes
(setup_probe.py) for --seconds, and prints the end-to-end metrics.
--trace 1 makes the warm-up and one untraced `embed` run, then the traced
run (traced.py), and prints the per-layer metrics. Every `embed` run and
traced replica is checked (checks.py); a run that fails a check counts in
`failed`. The last line of stdout is one JSON object; the samples, spans
and environment go to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from checks import check_report, check_trace, iters_to_best
from workloads import WORKLOADS, workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

CHILD_TIMEOUT_S = 150
MIN_EMBEDS = 2
MIN_SETUPS = 3
SETUP_MIN_SECONDS = 3.0  # short set-ups are repeated until they add up to this
MAX_ROUNDS = 50
# The discarded warm-up run loads the libraries, compiles isoembed's
# bytecode and pages in the input; one ascent step is enough for that.
WARMUP_ITERS = 1

END_TO_END = {
    "embed_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "epsilon_alg": "1",
    "dual_best": "1",
    "certified_ratio": "1",
}
PER_LAYER = {
    "cli.import_s": "s",
    "ingest.load_points_s": "s",
    "ingest.directions_s": "s",
    "ingest.directions_peak_mb": "MB",
    "types.unitset_s": "s",
    "types.fingerprint_s": "s",
    "ascent.run_s": "s",
    "ascent.iter_ms": "ms",
    "ascent.run_peak_mb": "MB",
    "ascent.primal_distortion_ms": "ms",
    "ascent.support_frac": "1",
    "ascent.iters_to_best": "count",
    "ascent.degenerate_iterations": "count",
    "spectral.moment_uniform_ms": "ms",
    "spectral.moment_selected_ms": "ms",
    "spectral.moment_computed_gbs": "GB/s",
    "spectral.top_k_ms": "ms",
    "simplex.project_ms": "ms",
    "bounds.approximation_s": "s",
    "baselines.pca_s": "s",
    "baselines.random_s": "s",
    "cli.write_s": "s",
    "bench.trace_overhead_s": "s",
}
# One BLAS thread per child. With two on a two-CPU box the BLAS threads
# compete with the parent process and the system, and the spread of embed_s between
# runs doubled (about 3% against 7%) for about 12% less wall time.
BLAS_THREADS = 1
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env(threads):
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


@dataclass
class ChildResult:
    code: int
    started: float  # perf_counter at launch; the clock is system-wide
    seconds: float
    max_rss_mb: float
    stdout: str
    stderr: str

    def json(self):
        """The JSON object on the child's last stdout line."""
        return json.loads(self.stdout.strip().splitlines()[-1])


class Bench:
    """One benchmark run of one workload: its children, samples and failures."""

    def __init__(self, w, seed, smoke, work):
        self.w = w
        self.seed = seed
        self.smoke = smoke
        self.work = work
        self.env = child_env(BLAS_THREADS)
        self.input = os.path.join(work, "input.csv")
        self.attempted = 0
        self.failures = []  # (child label, message)
        self.reference = None  # (report bytes, trace bytes) of the first good run
        self.expect = None
        self.stamp = None

    def child(self, label, argv):
        """Run one child to completion; its own rusage gives its peak RSS."""
        out_path = os.path.join(self.work, label + ".out")
        err_path = os.path.join(self.work, label + ".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            reaped = False
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                timer.cancel()
                if not reaped:
                    proc.kill()
                    proc.wait()
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return ChildResult(proc.returncode, t0, seconds, usage.ru_maxrss / 1024.0, stdout, stderr)

    def fail(self, label, messages):
        self.failures.extend((label, m) for m in messages)
        return not messages

    def prepare(self):
        argv = [sys.executable, os.path.join(HERE, "prepare.py"), self.w.name, str(self.seed),
                self.input]
        res = self.child("prepare", argv + (["--smoke"] if self.smoke else []))
        if res.code != 0:
            raise SystemExit("perfbench: input generation failed:\n" + res.stderr)
        info = res.json()
        if os.path.realpath(info["isoembed"]) != os.path.realpath(os.path.join(SRC, "isoembed")):
            raise SystemExit(f"perfbench: children import isoembed from {info['isoembed']}, "
                             f"not {SRC}")
        self.expect = {"n": info["n"], "d": info["d"], "k": self.w.k, "iters": self.w.iters,
                       "fingerprint": info["fingerprint"]}
        if self.expect["n"] != self.w.n:
            raise SystemExit(f"perfbench: generator built {info['n']} directions, "
                             f"expected {self.w.n}")
        self.stamp = info["env"]

    def check_outputs(self, label, report, trace, iters=None):
        """Check one report + trace; True when every check passes. Runs of
        the workload's own iteration count (``iters`` None) must also
        repeat the first such run byte for byte."""
        expect = self.expect if iters is None else {**self.expect, "iters": iters}
        fails = check_report(report, expect)
        if not fails:
            fails = check_trace(trace, expect["iters"], json.loads(report)["epsilon_alg"])
        if not fails and iters is None:
            if self.reference is None:
                self.reference = (report, trace)
            elif (report, trace) != self.reference:
                fails = ["report or trace bytes differ from the first run of this commit"]
        return self.fail(label, fails)

    def embed(self, label, iters=None):
        """One `embed` run, of ``iters`` iterations instead of the
        workload's when given; returns (seconds, peak RSS MB, report) or
        None on failure."""
        self.attempted += 1
        rep = os.path.join(self.work, label + "_report.json")
        trc = os.path.join(self.work, label + "_trace.csv")
        w = self.w
        argv = [sys.executable, "-m", "isoembed.cli", "--input", self.input, "--mode", w.mode,
                "--k", str(w.k), "--iters", str(w.iters if iters is None else iters),
                "--baselines", "pca,random", "--out", rep, "--trace", trc]
        res = self.child(label, argv)
        if res.code != 0:
            self.fail(label, [f"exit code {res.code}: {res.stderr.strip()[-500:]}"])
            return None
        try:
            with open(rep, encoding="utf-8") as fh:
                report = fh.read()
            with open(trc, encoding="utf-8") as fh:
                trace = fh.read()
        except OSError as exc:
            self.fail(label, [f"cannot read the report or trace: {exc}"])
            return None
        if not self.check_outputs(label, report, trace, iters):
            return None
        return res.seconds, res.max_rss_mb, report

    def setup(self, label):
        """One set-up probe; returns its set-up seconds or None on failure."""
        self.attempted += 1
        res = self.child(label, [sys.executable, os.path.join(HERE, "setup_probe.py"),
                                 self.input, self.w.mode])
        if res.code != 0:
            self.fail(label, [f"exit code {res.code}: {res.stderr.strip()[-500:]}"])
            return None
        info = res.json()
        if (info["n"], info["d"]) != (self.expect["n"], self.expect["d"]):
            self.fail(label, [f"set-up built {info['n']} x {info['d']} directions"])
            return None
        return info["setup_s"]

    def end_to_end(self, seconds):
        """Timed `embed` runs alternating with set-up probes. Once
        MIN_EMBEDS runs have succeeded, another round starts only if it is
        expected to end within ``seconds``."""
        warmup = self.embed("warmup", WARMUP_ITERS)
        embeds, setups = [], []
        began = time.perf_counter()
        for i in range(1, MAX_ROUNDS + 1):
            got = self.embed(f"embed{i}")
            if got is not None:
                embeds.append(got)
            got = self.setup(f"setup{i}")
            if got is not None:
                setups.append(got)
            elapsed = time.perf_counter() - began
            if len(embeds) >= MIN_EMBEDS and elapsed * (i + 1) / i > seconds:
                break
            if i >= MIN_EMBEDS and not embeds:
                break
        for i in range(MAX_ROUNDS):
            if len(setups) >= MIN_SETUPS and sum(setups) >= SETUP_MIN_SECONDS:
                break
            got = self.setup(f"setup+{i}")
            if got is not None:
                setups.append(got)
        if not embeds or not setups:
            return None, {}
        rep = json.loads(embeds[0][2])
        metrics = {
            "embed_s": statistics.median(e[0] for e in embeds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(e[1] for e in embeds),
            "epsilon_alg": rep["epsilon_alg"],
            "dual_best": rep["dual_best"],
            "certified_ratio": rep["epsilon_alg"] / rep["dual_best"],
        }
        samples = {"embed_s": [e[0] for e in embeds], "peak_rss_mb": [e[1] for e in embeds],
                   "setup_s": setups, "warmup_s": warmup and warmup[0]}
        return metrics, samples

    def per_layer(self):
        self.embed("warmup", WARMUP_ITERS)
        got = self.embed("untraced")
        self.attempted += 1
        res = self.child("traced", [sys.executable, os.path.join(HERE, "traced.py"), self.input,
                                    self.w.mode, str(self.w.k), str(self.w.iters), self.work,
                                    f"{self.w.name}-s{self.seed}-{os.getpid()}"])
        if res.code != 0:
            self.fail("traced", [f"exit code {res.code}: {res.stderr.strip()[-500:]}"])
            return None, {}
        info = res.json()
        with open(os.path.join(self.work, "replica_report.json"), encoding="utf-8") as fh:
            replica_report = fh.read()
        with open(os.path.join(self.work, "replica_trace.csv"), encoding="utf-8") as fh:
            replica_trace = fh.read()
        self.check_outputs("traced", replica_report, replica_trace, self.w.iters)
        if got is None:
            return None, {}
        seconds, _, report = got
        rep = json.loads(report)
        with open(os.path.join(self.work, "spans.json"), encoding="utf-8") as fh:
            spans = json.load(fh)
        metrics = dict(info["metrics"])
        metrics["ascent.iters_to_best"] = iters_to_best(self.reference[1])
        metrics["ascent.degenerate_iterations"] = rep["degenerate_iterations"]
        # Launch of the traced child to the end of its replicated calls,
        # against launch to exit of the untraced `embed`.
        traced_s = info["replica_end"] - res.started
        metrics["bench.trace_overhead_s"] = traced_s - seconds
        extra = {
            "untraced_embed_s": seconds,
            "traced_replica_s": traced_s,
            "layer_self_s": info["self_s"],
            "moment_array_mb": info["array_mb"],
            "llc": last_level_cache(),
            "replica_report_matches_cli": replica_report == self.reference[0],
            "spans": spans,
        }
        return metrics, extra


def last_level_cache():
    """Size of the CPU's last-level cache as the kernel reports it, or None."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        levels = sorted(x for x in os.listdir(base) if x.startswith("index"))
        with open(os.path.join(base, levels[-1], "size"), encoding="ascii") as fh:
            return fh.read().strip()
    except (OSError, IndexError):
        return None


def run_workload(name, seed, seconds, trace, smoke):
    """Run one workload; returns the result line (None when no run
    succeeded), the human-readable lines and the record for results/."""
    w = workload(name, smoke)
    work = os.path.join(OUT, f"work-{os.getpid()}-{name}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(w, seed, smoke, work)
    try:
        bench.prepare()
        metrics, extra = bench.per_layer() if trace else bench.end_to_end(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    lines = [
        f"workload {name} (mode {w.mode}, n={w.n}, d={w.d}, k={w.k}, T={w.iters}) "
        f"seed {seed} trace {trace}{' smoke' if smoke else ''}",
        "env " + ", ".join(f"{k} {v}" for k, v in bench.stamp.items()),
    ]
    for label, msg in bench.failures:
        lines.append(f"FAILED {label}: {msg}")
    failed = len({label for label, _ in bench.failures})
    record = {"workload": name, "seed": seed, "trace": trace, "smoke": smoke, "env": bench.stamp,
              "attempted": bench.attempted, "failed": failed, "failures": bench.failures,
              "metrics": metrics}
    if metrics is None:
        return None, lines, record
    if trace:
        record.update(extra)
        lines.append(f"traced run: {extra['traced_replica_s']:.3f} s vs untraced embed "
                     f"{extra['untraced_embed_s']:.3f} s; report identical to the CLI's: "
                     f"{extra['replica_report_matches_cli']}")
        lines.append("layer self time (s): " + ", ".join(
            f"{k} {v:.4f}" for k, v in sorted(extra["layer_self_s"].items())))
        lines.append(f"moment array {extra['moment_array_mb']:.1f} MB (8 n d) vs LLC "
                     f"{extra['llc']}; moment_computed_gbs is computed bytes / time, "
                     "not measured traffic")
        lines.append("*_peak_mb: tracemalloc peak of allocations inside the span (traced, not RSS)")
    else:
        record["samples"] = extra
        lines.append(f"embed runs: 1 warm-up ({WARMUP_ITERS} iteration, discarded) + "
                     f"{len(extra['embed_s'])} timed; set-up probes: {len(extra['setup_s'])}; "
                     "medians reported")
    for key, unit in units.items():
        lines.append(f"  {key:32s} {metrics[key]:>16.6g} {unit}")
    if not trace:
        lines.append(f"  {'failed_frac':32s} {failed / bench.attempted:>16.6g} 1 "
                     f"({failed} of {bench.attempted} attempted)")
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    return result, lines, record


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0, help="timed span of a --trace 0 run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny shapes, for the benchmark's own tests")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "isoembed", "cli.py")):
        print(f"perfbench: no isoembed sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    for name in names:
        result, lines, record = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
        print("\n".join(lines), flush=True)
        tag = f"{name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
        with open(os.path.join(OUT, "results", tag + ".json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        if result is None:
            print(f"perfbench: {name}: no run succeeded, no metrics", file=sys.stderr)
            return 1
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
