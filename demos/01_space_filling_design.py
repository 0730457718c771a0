"""Space-filling designs: Latin hypercube plans and the maximin pick.

Every dimension of a Latin hypercube plan is stratified into n equal slices
with exactly one point per slice, so the one-dimensional projections never
collapse.  Generating several candidate plans and keeping the one with the
largest minimum pairwise distance ("maximin") spreads the points out in the
full space as well.
"""

import numpy as np

from tollopt import Bounds, build_initial_plan, lhs, maximin_lhs


def min_pair_distance(points):
    """Smallest Euclidean distance between two rows of ``points``."""
    i, j = np.triu_indices(len(points), k=1)
    return np.min(np.linalg.norm(points[i] - points[j], axis=1))


rng = np.random.default_rng(0)

plan = lhs(8, 2, rng)
print("plain Latin hypercube, 8 points in [0,1]^2:")
print(np.round(plan, 3))
print("column strata occupied:",
      sorted(np.floor(plan[:, 0] * 8).astype(int)),
      sorted(np.floor(plan[:, 1] * 8).astype(int)))
print(f"min pairwise distance: {min_pair_distance(plan):.3f}")

best = maximin_lhs(8, 2, 100, rng)
print(f"\nbest of 100 candidates by the maximin criterion: "
      f"min distance {min_pair_distance(best):.3f}")

# a full initial plan for a 4-interval toll problem: 2(2m+1) = 18 space-filling
# points plus the lower corner, upper corner, and midpoint of the toll box
bounds = Bounds.uniform(4, v_max=1.0, w_max=15.0)
plan = build_initial_plan(4, bounds, np.random.default_rng(1))
print(f"\ninitial toll plan: {len(plan)} points, first has distance rates "
      f"{np.round(plan[0, :4], 3)} and delay rates "
      f"{np.round(plan[0, 4:], 2)}")
print("anchor points at the end:")
for p in plan[-3:]:
    print(" ", np.round(p, 3))
