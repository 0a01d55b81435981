"""Child process: write a workload's input file and the values to check
`embed` against.

Usage: prepare.py WORKLOAD SEED OUT_CSV [--smoke]

Writes the generated points to OUT_CSV with 17 significant digits (so the
parse is exact), builds the unit directions with the benchmark's own numpy
code, and prints one JSON object: the expected n and d, the
`matrix_fingerprint` of those directions, and the numeric environment.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import numpy as np

from workloads import make_points, workload

PAIR_BLOCK = 1 << 16  # pairs per block, to bound peak memory


def own_directions(P, mode):
    """Unit directions built independently of isoembed: normalized
    differences p_i - p_j for i < j in row-major order, or the rows."""
    if mode == "rows":
        return P / np.linalg.norm(P, axis=1)[:, None]
    ii, jj = np.triu_indices(P.shape[0], k=1)
    out = np.empty((ii.size, P.shape[1]))
    for lo in range(0, ii.size, PAIR_BLOCK):
        diffs = P[ii[lo:lo + PAIR_BLOCK]] - P[jj[lo:lo + PAIR_BLOCK]]
        out[lo:lo + PAIR_BLOCK] = diffs / np.linalg.norm(diffs, axis=1)[:, None]
    return out


def environment(threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main():
    name, seed, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    w = workload(name, smoke="--smoke" in sys.argv[4:])
    import isoembed
    from isoembed.types import matrix_fingerprint

    P = make_points(w, seed)
    np.savetxt(out, P, fmt="%.17g", delimiter=",")
    X = own_directions(P, w.mode)
    print(json.dumps({
        "n": X.shape[0],
        "d": X.shape[1],
        "fingerprint": matrix_fingerprint(X),
        "isoembed": os.path.dirname(isoembed.__file__),
        "env": environment(os.environ.get("OPENBLAS_NUM_THREADS")),
    }))


if __name__ == "__main__":
    main()
