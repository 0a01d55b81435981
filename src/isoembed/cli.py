"""Command-line front end.

Loads a point matrix, builds the unit-vector set (pairwise differences or
the rows themselves), runs the projected-ascent embedding plus any
requested baselines, and writes a deterministic JSON report and optional
CSV iteration trace. Re-running with identical flags and input bytes, on
the same numpy/BLAS build and BLAS thread count, reproduces both files byte
for byte; wall-clock timing therefore goes to stderr and the report's
runtime_seconds field is null.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

import numpy as np

from .ascent import AscentConfig, primal_distortion, run_projected_ascent
from .baselines import random_orthonormal_basis
from .bounds import DEFAULT_RANK_TOL, approximation_bound
from .errors import EmbeddingError
from .ingest import load_points, normalize_rows, pairwise_unit_differences
from .types import ROW_NORM_TOL, DirectionSet, UnitVectorSet

logger = logging.getLogger(__name__)

REPORT_FIELDS = (
    "n",
    "d",
    "k",
    "iters",
    "eta",
    "mode",
    "epsilon_alg",
    "selected_iterate",
    "dual_best",
    "epsilon_pca",
    "epsilon_random",
    "bound_sigma",
    "bound_kappa",
    "rank",
    "kappa",
    "sigma_max",
    "degenerate_iterations",
    "runtime_seconds",
    "input_fingerprint",
)


def _json_scalar(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return '"%s"' % value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if not np.isfinite(v):
        return '"inf"' if v > 0 else '"-inf"'
    return format(v, ".17g")


def emit_report(result, bounds, baselines, path, *, n, d, k, iters, eta, mode):
    """Write the run report as a single flat JSON object.

    Field order is fixed, floats carry 17 significant digits, infinities
    are serialized as the string "inf"; the output is byte-reproducible.
    ``baselines`` maps method name -> DistortionReport and contributes the
    optional epsilon_pca / epsilon_random fields.
    """
    values = {
        "n": n,
        "d": d,
        "k": k,
        "iters": iters,
        "eta": eta,
        "mode": mode,
        "epsilon_alg": result.distortion.epsilon,
        "selected_iterate": result.selected_iterate,
        "dual_best": result.best_dual_value,
        "bound_sigma": bounds.bound_sigma,
        "bound_kappa": bounds.bound_kappa,
        "rank": bounds.rank,
        "kappa": bounds.kappa,
        "sigma_max": float(bounds.singular_values[0]),
        "degenerate_iterations": result.degenerate_iterations,
        "runtime_seconds": None,
        "input_fingerprint": result.fingerprint,
    }
    if "pca" in baselines:
        values["epsilon_pca"] = baselines["pca"].epsilon
    if "random" in baselines:
        values["epsilon_random"] = baselines["random"].epsilon
    lines = [
        '  "%s": %s' % (name, _json_scalar(values[name]))
        for name in REPORT_FIELDS
        if name in values
    ]
    text = "{\n" + ",\n".join(lines) + "\n}\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def write_trace(result, path):
    """CSV trace: t = 0 record, every ascent iterate, then the average
    iterate (labelled 'avg'), one row each."""
    rows = [(str(rec.t), rec) for rec in result.trace]
    if result.average_record is not None:
        rows.append(("avg", result.average_record))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,dual_value,primal_epsilon,best_epsilon,degenerate\n")
        for label, rec in rows:
            floats = map(_json_scalar, (rec.dual_value, rec.primal_epsilon, rec.best_epsilon))
            fh.write(",".join([label, *floats, str(int(rec.degenerate))]) + "\n")


def build_parser():
    p = argparse.ArgumentParser(
        prog="embed",
        description="Near-isometric orthogonal embedding via dual projected "
        "gradient ascent, with PCA and random baselines.",
    )
    p.add_argument("--input", required=True, help="input matrix file (one point per row)")
    p.add_argument(
        "--mode",
        choices=("pairwise", "rows"),
        default="pairwise",
        help="pairwise: embed normalized pairwise differences of the points; "
        "rows: the rows are already unit directions (default: pairwise)",
    )
    p.add_argument("--k", type=int, required=True, help="embedding dimension")
    p.add_argument("--iters", type=int, default=120, help="ascent iterations (default 120)")
    p.add_argument(
        "--eta",
        default="auto",
        help="step size: positive finite float, or 'auto' for sqrt(2)/sqrt(n*T)",
    )
    p.add_argument(
        "--baselines",
        default="",
        help="comma-separated subset of {pca,random} to evaluate alongside",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=42,
        help="seed for the random baseline and --max-pairs subsampling (default 42)",
    )
    p.add_argument(
        "--dedup",
        action="store_true",
        help="drop coincident point pairs instead of failing on them",
    )
    p.add_argument("--header", action="store_true", help="skip the first input line")
    p.add_argument(
        "--max-pairs",
        type=int,
        default=0,
        metavar="N",
        help="in pairwise mode, keep a seeded uniform subsample of N pairs "
        "(0 = all pairs); bounds are computed on the subsample",
    )
    p.add_argument("--out", default=None, help="report JSON path (default: stdout)")
    p.add_argument("--trace", default=None, help="optional iteration-trace CSV path")
    p.add_argument(
        "--rank-tol",
        type=float,
        default=DEFAULT_RANK_TOL,
        help="relative rank tolerance, in [0, 1)",
    )
    return p


def _subsample_pairs(units: DirectionSet, max_pairs: int, seed: int) -> DirectionSet:
    """A seeded uniform sample of max_pairs directions, built densely from
    their indices alone; all of them when there are no more than that."""
    if max_pairs <= 0 or units.n <= max_pairs:
        return units
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(units.n, size=max_pairs, replace=False))
    logger.warning("subsampled %d of %d pairs", max_pairs, units.n)
    return UnitVectorSet(units.rows(keep))


def _build_units(args) -> DirectionSet:
    points = load_points(args.input, skip_header=args.header)
    if args.mode == "pairwise":
        policy = "drop" if args.dedup else "error"
        units = pairwise_unit_differences(points, dedup_policy=policy)
        return _subsample_pairs(units, args.max_pairs, args.seed)
    P = points.points
    if np.abs(np.sqrt(np.einsum("ij,ij->i", P, P)) - 1.0).max() > ROW_NORM_TOL:
        logger.warning("rows are not unit length; renormalizing")
        return normalize_rows(P)
    return UnitVectorSet(P)


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.k < 1:
        parser.error(f"--k must be >= 1, got {args.k}")
    try:
        cfg = AscentConfig(args.iters, args.eta if args.eta == "auto" else float(args.eta))
    except ValueError as exc:
        parser.error(f"bad --iters or --eta: {exc}")
    if args.max_pairs < 0:
        parser.error(f"--max-pairs must be >= 0, got {args.max_pairs}")
    if not 0.0 <= args.rank_tol < 1.0:
        parser.error(f"--rank-tol must be in [0, 1), got {args.rank_tol}")
    methods = [m for m in args.baselines.split(",") if m]
    for m in methods:
        if m not in ("pca", "random"):
            parser.error(f"unknown baseline {m!r} (expected pca or random)")

    t_start = time.perf_counter()
    try:
        units = _build_units(args)
        if args.k > units.d:
            parser.error(f"--k {args.k} exceeds the data dimension {units.d}")
        result = run_projected_ascent(units, args.k, cfg)
        bounds = approximation_bound(units, rank_tol=args.rank_tol)
        baselines = {}
        if "pca" in methods:
            baselines["pca"] = result.pca_distortion
        if "random" in methods:
            baselines["random"] = primal_distortion(
                units, random_orthonormal_basis(units.d, args.k, args.seed)
            )
        emit_report(
            result,
            bounds,
            baselines,
            args.out,
            n=units.n,
            d=units.d,
            k=args.k,
            iters=args.iters,
            eta=result.step_size,
            mode=args.mode,
        )
        if args.trace is not None:
            write_trace(result, args.trace)
    except (EmbeddingError, OSError, MemoryError) as exc:
        print(f"embed: error: {exc}", file=sys.stderr)
        return 1
    logger.info("finished in %.3f s", time.perf_counter() - t_start)
    return 0


def main():
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="embed: %(message)s")
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
