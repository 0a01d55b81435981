"""Child process: the traced run.

Usage: traced.py INPUT MODE K ITERS WORKDIR RUN_ID

Makes the same public calls as `isoembed.cli.run_cli`, in the same order,
with a span around each, then times the hot kernels at the workload's real
shapes using the run's own lambda_selected and basis. Spans (name, start,
end, parent, run id) are kept in memory and written to WORKDIR/spans.json
at the end; the per-layer numbers are printed as one JSON object.

Spans of the replicated calls record the tracemalloc peak of allocations
made inside them ("traced_peak_mb"): allocations numpy and Python report
to tracemalloc, not RSS. `cli.import` and `ingest.load_points` are not
memory-traced, because tracemalloc's per-object hook would dominate the
time of a pure-Python import and parse.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

KERNEL_MIN_REPS = 5
KERNEL_MIN_SECONDS = 0.3
KERNEL_MAX_REPS = 200


class Tracer:
    """In-memory span recorder; spans nest through a stack."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, memory=False):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "traced_peak_mb": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        if memory:
            tracemalloc.start()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if memory:
                rec["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            self._stack.pop()

    def duration(self, name):
        """Total duration of the spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def first(self, name):
        return next(s for s in self.spans if s["name"] == name)

    def self_times(self, root):
        """Self time per layer (the part of the name before the first dot)
        over the subtree of span ``root``: each span's duration minus the
        time its child spans cover."""
        children = {}
        for s in self.spans:
            children.setdefault(s["parent"], []).append(s)
        out = {}
        todo = [root]
        while todo:
            s = todo.pop()
            kids = children.get(s["id"], [])
            own = (s["end"] - s["start"]) - sum(c["end"] - c["start"] for c in kids)
            layer = s["name"].split(".")[0]
            out[layer] = out.get(layer, 0.0) + own
            todo.extend(kids)
        return out


def build_directions(points, mode):
    """The direction set `embed` builds (without --max-pairs or --dedup)."""
    import numpy as np
    from isoembed import UnitVectorSet, normalize_rows, pairwise_unit_differences

    if mode == "pairwise":
        return pairwise_unit_differences(points, dedup_policy="error")
    norms = np.linalg.norm(points.points, axis=1)
    if np.abs(norms - 1.0).max() > 1e-9:
        return normalize_rows(points.points)
    return UnitVectorSet(points.points)


def time_kernel(tracer, name, fn):
    """Median wall time of fn() in ms, over at least KERNEL_MIN_REPS calls
    and KERNEL_MIN_SECONDS."""
    times = []
    began = time.perf_counter()
    while len(times) < KERNEL_MAX_REPS and (
        len(times) < KERNEL_MIN_REPS or time.perf_counter() - began < KERNEL_MIN_SECONDS
    ):
        with tracer.span(name) as s:
            fn()
        times.append(s["end"] - s["start"])
    return statistics.median(times) * 1e3


def main():
    path, mode, k, iters, workdir, run_id = sys.argv[1:7]
    k, iters = int(k), int(iters)
    tr = Tracer(run_id)
    with tr.span("bench.replica") as replica:
        with tr.span("cli.import"):
            import isoembed
            from isoembed import cli
        with tr.span("ingest.load_points"):
            points = isoembed.load_points(path)
        with tr.span("ingest.directions", memory=True):
            units = build_directions(points, mode)
        with tr.span("ascent.run", memory=True):
            result = isoembed.run_projected_ascent(units, k, isoembed.AscentConfig(T=iters))
        with tr.span("bounds.approximation", memory=True):
            bounds = isoembed.approximation_bound(units, rank_tol=1e-10)
        baselines = {}
        with tr.span("baselines.pca", memory=True):
            baselines["pca"] = isoembed.primal_distortion(units, isoembed.pca_basis(units, k))
        with tr.span("baselines.random", memory=True):
            baselines["random"] = isoembed.primal_distortion(
                units, isoembed.random_orthonormal_basis(units.d, k, 42)
            )
        with tr.span("cli.write", memory=True):
            cli.emit_report(
                result, bounds, baselines, os.path.join(workdir, "replica_report.json"),
                n=units.n, d=units.d, k=k, iters=iters, eta=result.step_size, mode=mode,
            )
            cli.write_trace(result, os.path.join(workdir, "replica_trace.csv"))

    import numpy as np

    X = units.X
    n, d = X.shape
    lam = result.lambda_selected.lam
    V = result.basis.V
    uniform = np.full(n, 1.0 / n)
    M_sel = isoembed.weighted_moment_matrix(X, lam)
    grad = np.clip(-np.square(X @ V).sum(axis=1), -1.0, 0.0)
    y = lam + result.step_size * grad
    kernels = {
        "spectral.moment_uniform": lambda: isoembed.weighted_moment_matrix(X, uniform),
        "spectral.moment_selected": lambda: isoembed.weighted_moment_matrix(X, lam),
        "spectral.top_k": lambda: isoembed.top_k_eigenpairs(M_sel, k),
        "simplex.project": lambda: isoembed.project_to_simplex(y),
        "ascent.primal_distortion": lambda: isoembed.primal_distortion(units, result.basis),
        "types.unitset": lambda: isoembed.UnitVectorSet(X),
        "types.fingerprint": lambda: isoembed.matrix_fingerprint(X),
    }
    with tr.span("bench.kernels"):
        ms = {name: time_kernel(tr, name, fn) for name, fn in kernels.items()}

    run_s = tr.duration("ascent.run")
    metrics = {
        "cli.import_s": tr.duration("cli.import"),
        "ingest.load_points_s": tr.duration("ingest.load_points"),
        "ingest.directions_s": tr.duration("ingest.directions"),
        "ingest.directions_peak_mb": tr.first("ingest.directions")["traced_peak_mb"],
        "types.unitset_s": ms["types.unitset"] / 1e3,
        "types.fingerprint_s": ms["types.fingerprint"] / 1e3,
        "ascent.run_s": run_s,
        "ascent.iter_ms": run_s / (iters + 2) * 1e3,
        "ascent.run_peak_mb": tr.first("ascent.run")["traced_peak_mb"],
        "ascent.primal_distortion_ms": ms["ascent.primal_distortion"],
        "ascent.support_frac": np.count_nonzero(lam) / n,
        "spectral.moment_uniform_ms": ms["spectral.moment_uniform"],
        "spectral.moment_selected_ms": ms["spectral.moment_selected"],
        "spectral.moment_computed_gbs": 8.0 * n * d / (ms["spectral.moment_uniform"] / 1e3) / 1e9,
        "spectral.top_k_ms": ms["spectral.top_k"],
        "simplex.project_ms": ms["simplex.project"],
        "bounds.approximation_s": tr.duration("bounds.approximation"),
        "baselines.pca_s": tr.duration("baselines.pca"),
        "baselines.random_s": tr.duration("baselines.random"),
        "cli.write_s": tr.duration("cli.write"),
    }
    with open(os.path.join(workdir, "spans.json"), "w") as fh:
        json.dump(tr.spans, fh)
    print(json.dumps({
        "metrics": metrics,
        "replica_end": replica["end"],
        "self_s": tr.self_times(replica),
        "array_mb": 8.0 * n * d / 2**20,
    }))


if __name__ == "__main__":
    main()
