"""Per-run correctness checks on an `embed` report and trace.

Each check returns a list of failure messages; an empty list means the run
passed. The checks read only the files, so they run in the parent process without
numpy.
"""

from __future__ import annotations

import json

WEAK_DUALITY_TOL = 1e-8


def check_report(text, expect):
    """Check a report against the expected shape and the solver's guarantees.

    ``expect`` holds n, d, k, iters and the fingerprint of the directions
    the benchmark built itself.
    """
    try:
        rep = json.loads(text)
    except ValueError as exc:
        return [f"report does not parse: {exc}"]
    if not isinstance(rep, dict):
        return ["report is not a JSON object"]
    fails = []
    for key in ("n", "d", "k", "iters"):
        if rep.get(key) != expect[key]:
            fails.append(f"report {key} = {rep.get(key)!r}, expected {expect[key]!r}")
    values = {}
    for key in ("epsilon_alg", "dual_best", "epsilon_pca"):
        v = rep.get(key)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            fails.append(f"report {key} = {v!r} is not a number")
        else:
            values[key] = float(v)
    eps, dual, pca = (values.get(k) for k in ("epsilon_alg", "dual_best", "epsilon_pca"))
    for key in ("epsilon_alg", "dual_best"):
        if key in values and not 0.0 <= values[key] <= 1.0:
            fails.append(f"{key} = {values[key]!r} is outside [0, 1]")
    if eps is not None and dual is not None and dual > eps + WEAK_DUALITY_TOL:
        fails.append(f"weak duality violated: dual_best {dual!r} > epsilon_alg {eps!r}")
    if eps is not None and pca is not None and eps > pca:
        fails.append(f"worse than PCA: epsilon_alg {eps!r} > epsilon_pca {pca!r}")
    if rep.get("input_fingerprint") != expect["fingerprint"]:
        fails.append("input_fingerprint differs from the benchmark's own directions")
    return fails


def check_trace(text, iters, epsilon_alg):
    """The trace has T + 2 rows (t = 0, T iterates, avg) and its final
    best_epsilon equals the report's epsilon_alg."""
    rows = text.splitlines()[1:]
    if len(rows) != iters + 2:
        return [f"trace has {len(rows)} rows, expected {iters + 2}"]
    try:
        final = float(rows[-1].split(",")[3])
    except (IndexError, ValueError):
        return [f"trace row {rows[-1]!r} has no best_epsilon"]
    if final != epsilon_alg:
        return [f"trace final best_epsilon {final!r} != epsilon_alg {epsilon_alg!r}"]
    return []


def iters_to_best(text):
    """First iterate t whose best_epsilon equals the last iterate's."""
    rows = [r.split(",") for r in text.splitlines()[1:] if not r.startswith("avg")]
    final = rows[-1][3]
    return next(int(r[0]) for r in rows if r[3] == final)
