"""Workload definitions and the seeded input generator.

Each workload is one `embed` invocation on a generated point file. The
points are drawn from a mixture of anisotropic Gaussian clusters (scale
decay**j in dimension j) around isotropic cluster centres. The centres are
fixed by the workload (the layout is part of the workload's definition) and
``--seed`` draws the cluster memberships and the points. With the layout
fixed, the solution-quality metrics vary by 1-2% from seed to seed
(interquartile range over median); with seeded centres they varied by 5-9%,
more than any useful bound on them.

This module imports numpy only inside the generator, so the benchmark's
parent process can read the definitions without loading it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str  # "pairwise" or "rows", passed to `embed --mode`
    r: int  # points in the input file
    d: int
    k: int
    iters: int
    clusters: int
    decay: float  # per-dimension scale of the clusters is decay**j
    spread: float  # scale of the centres, in every dimension
    layout_seed: int  # fixes the cluster centres; --seed draws the points

    @property
    def n(self) -> int:
        """Number of directions `embed` works on."""
        return self.r * (self.r - 1) // 2 if self.mode == "pairwise" else self.r


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pairwise-solve",
            "180k pair directions, T=120: the ascent hot loop (moment, X@V, simplex sort) is over "
            "90% of the run; lean-loop and mirror-ascent gains must show here",
            "pairwise", r=600, d=40, k=8, iters=120,
            clusters=60, decay=0.9, spread=3.0, layout_seed=7,
        ),
        Workload(
            "rows-wide",
            "8000 x 300 rows, k=30, T=40: the text parse is over half the run, no pairs are built "
            "and lambda has full support; pair and support tricks should not move it",
            "rows", r=8000, d=300, k=30, iters=40,
            clusters=40, decay=0.99, spread=6.0, layout_seed=7,
        ),
        Workload(
            "pairwise-build",
            "719k pair directions (288 MB), T=5: pair build, validation, hashing, bounds and PCA "
            "around the solver are ~40% of the run; CLI dedup and memory gains show here",
            "pairwise", r=1200, d=50, k=10, iters=5,
            clusters=120, decay=0.9, spread=3.0, layout_seed=7,
        ),
    )
}

# Tiny shapes with the same names and modes, for the benchmark's own tests.
SMOKE = {
    "pairwise-solve": dict(r=40, d=6, k=2, iters=12, clusters=4),
    "rows-wide": dict(r=300, d=24, k=4, iters=6, clusters=8),
    "pairwise-build": dict(r=60, d=8, k=3, iters=2, clusters=6),
}


def workload(name: str, smoke: bool = False) -> Workload:
    w = WORKLOADS[name]
    if smoke:
        w = Workload(**{**w.__dict__, **SMOKE[name]})
    return w


def make_points(w: Workload, seed: int):
    """The r x d point matrix of workload ``w`` for ``seed``."""
    import numpy as np

    centres = w.spread * np.random.default_rng(w.layout_seed).standard_normal((w.clusters, w.d))
    rng = np.random.default_rng(seed)
    labels = np.arange(w.r) % w.clusters
    rng.shuffle(labels)
    return centres[labels] + rng.standard_normal((w.r, w.d)) * w.decay ** np.arange(w.d)
