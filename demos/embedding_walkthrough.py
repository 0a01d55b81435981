#!/usr/bin/env python3
"""End-to-end tour of the library.

Part 1 turns raw points into the unit difference directions the embedding
actually operates on. Part 2 embeds a direction set with a small group of
outlier directions: PCA minimizes the average distortion and happily
crushes the outliers, while the dual-ascent embedding covers them and
certifies how close to optimal it is.
"""
import numpy as np

import isoembed as ie

rng = np.random.default_rng(0)

print("Part 1: points -> directions")
pts = ie.PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [3.0, 2.0]]))
units = ie.pairwise_unit_differences(pts)
print(f"  {pts.r} points give C({pts.r},2) = {units.n} unit directions")
print(f"  (scaling all points leaves the directions unchanged: "
      f"{np.allclose(units.X, ie.pairwise_unit_differences(ie.PointSet(5 * pts.points)).X)})")

print("\nPart 2: directions with outliers, d = 6")
main = rng.standard_normal((140, 6)) * np.array([1, 1, 0.05, 0.05, 0.05, 0.05])
outliers = rng.standard_normal((10, 6)) * np.array([0.05, 0.05, 1, 0.02, 0.02, 0.02])
directions = ie.normalize_rows(np.vstack([main, outliers]))
print(f"  {directions.n} directions: 140 near a 2-plane, 10 outliers along a third axis")

for k in (2, 3):
    result = ie.run_projected_ascent(directions, k, ie.AscentConfig(T=300))
    eps_pca = ie.primal_distortion(directions, ie.pca_basis(directions, k)).epsilon
    eps_rnd = ie.primal_distortion(
        directions, ie.random_orthonormal_basis(directions.d, k, seed=42)
    ).epsilon
    print(f"\n  k = {k}:")
    print(f"    max distortion, dual ascent : {result.distortion.epsilon:.4f}"
          f"  ({result.selected_iterate} iterate)")
    print(f"    max distortion, PCA         : {eps_pca:.4f}")
    print(f"    max distortion, random      : {eps_rnd:.4f}")
    print(f"    dual lower bound on optimum : {result.best_dual_value:.4f}")
    if k == 2:
        print("    (PCA keeps the dominant plane and crushes the outlier "
              "directions almost completely; the ascent trades a little "
              "in-plane accuracy to cover them)")

report = ie.approximation_bound(directions)
ratio = ie.duality_sandwich_check(result)
print(f"\n  spectrum: rank {report.rank}, kappa {report.kappa:.2f}, "
      f"a-priori ratio bound {report.bound_sigma:.3f}")
if ratio is not None:
    print(f"  certified (k = 3): achieved distortion <= {ratio:.3f} x optimal")
