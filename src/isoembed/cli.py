"""Command-line front end.

Loads a point matrix, builds the unit-vector set (pairwise differences or
the rows themselves), runs the dual-ascent embedding plus any
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

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from .ascent import AscentConfig, primal_distortion, run_projected_ascent
from .baselines import random_orthonormal_basis
from .bounds import DEFAULT_RANK_TOL, approximation_bound, duality_sandwich_check
from .errors import EmbeddingError
from .ingest import load_points, pairwise_unit_differences
from .pairs import PairDifferenceSet
from .types import DirectionSet, PointSet, UnitVectorSet, _normalize_in_place

logger = logging.getLogger(__name__)


def _peak_rss_clause() -> str:
    """", peak RSS X MB" for this process (MB = 2^20 bytes), or "" where
    the resource module is missing. ru_maxrss is in KiB on Linux and in
    bytes on macOS."""
    if resource is None:
        return ""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return ", peak RSS %.1f MB" % (rss / (2**20 if sys.platform == "darwin" else 2**10))


def _json_scalar(value):
    if value is None:
        return "null"
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

    The fields are written in the order of one list of (field, value)
    pairs; floats carry 17 significant digits, infinities are serialized as
    the string "inf"; the output is byte-reproducible. ``baselines`` maps
    method name -> WorstDistortion: its "pca" and "random" entries give
    the optional epsilon_pca and epsilon_random fields, after dual_best.
    dual_best is written as at most epsilon_alg: weak duality bounds it so,
    and ``duality_sandwich_check``, run first, refuses an excess beyond
    rounding.
    """
    fields = [
        ("n", n),
        ("d", d),
        ("k", k),
        ("iters", iters),
        ("eta", eta),
        ("mode", mode),
        ("epsilon_alg", result.distortion.epsilon),
        ("selected_iterate", result.selected_iterate),
        ("dual_best", min(result.best_dual_value, result.distortion.epsilon)),
        *[("epsilon_" + m, baselines[m].epsilon) for m in ("pca", "random") if m in baselines],
        ("bound_sigma", bounds.bound_sigma),
        ("bound_kappa", bounds.bound_kappa),
        ("rank", bounds.rank),
        ("kappa", bounds.kappa),
        ("sigma_max", float(bounds.singular_values[0])),
        ("degenerate_iterations", result.degenerate_iterations),
        ("runtime_seconds", None),
        ("input_fingerprint", result.fingerprint),
    ]
    lines = ['  "%s": %s' % (name, _json_scalar(value)) for name, value in fields]
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
        description="Near-isometric orthogonal embedding via dual entropic mirror "
        "ascent, with PCA and random baselines.",
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
        help="step size: positive finite float at most 700, or 'auto' for "
        "4*sqrt(2 ln n / T)",
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
        help="non-negative seed for the random baseline and --max-pairs subsampling "
        "(default 42)",
    )
    p.add_argument(
        "--dedup",
        action="store_true",
        help="in pairwise mode, drop each point that coincides with an earlier one "
        "(closer than about 1.5e-154) instead of failing on it",
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


def _subsample_pairs(units: PairDifferenceSet, max_pairs: int, seed: int) -> DirectionSet:
    """A seeded uniform sample of max_pairs directions, built densely from
    their indices alone; all of them when there are no more than that."""
    if max_pairs <= 0 or units.n <= max_pairs:
        return units
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(units.n, size=max_pairs, replace=False))
    logger.warning("subsampled %d of %d pairs", max_pairs, units.n)
    return UnitVectorSet(units.rows(keep))


def _build_units(args, points: PointSet) -> DirectionSet:
    """The direction set of the run. In rows mode it takes over the points'
    array: rows that are not unit length are divided in place, by the rule
    of ``normalize_rows``, so the caller must not read ``points``
    afterwards."""
    if args.mode == "pairwise":
        units = pairwise_unit_differences(points, dedup_policy="drop" if args.dedup else "error")
        return _subsample_pairs(units, args.max_pairs, args.seed)
    P = points.points
    # load_points' array owns its data or views a writeable buffer.
    P.flags.writeable = True
    if _normalize_in_place(P):
        logger.warning("rows are not unit length; renormalizing")
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
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if args.max_pairs < 0:
        parser.error(f"--max-pairs must be >= 0, got {args.max_pairs}")
    if args.mode == "rows" and args.max_pairs > 0:
        parser.error("--max-pairs applies to pairwise mode only")
    if args.mode == "rows" and args.dedup:
        parser.error("--dedup applies to pairwise mode only")
    if not 0.0 <= args.rank_tol < 1.0:
        parser.error(f"--rank-tol must be in [0, 1), got {args.rank_tol}")
    methods = [m for m in args.baselines.split(",") if m]
    for m in methods:
        if m not in ("pca", "random"):
            parser.error(f"unknown baseline {m!r} (expected pca or random)")

    t_start = time.perf_counter()
    try:
        points = load_points(args.input, skip_header=args.header)
        if args.k > points.d:
            parser.error(f"--k {args.k} exceeds the data dimension {points.d}")
        units = _build_units(args, points)
        del points  # in rows mode units holds their array
        result = run_projected_ascent(units, args.k, cfg)
        bounds = approximation_bound(units, rank_tol=args.rank_tol)
        baselines = {}
        if "pca" in methods:
            baselines["pca"] = result.pca_distortion
        if "random" in methods:
            baselines["random"] = primal_distortion(
                units, random_orthonormal_basis(units.d, args.k, args.seed)
            )
        duality_sandwich_check(result)
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
    logger.info("finished in %.3f s%s", time.perf_counter() - t_start, _peak_rss_clause())
    return 0


def main():
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="embed: %(message)s")
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
