"""Capping congestion heterogeneity: the constrained toll problem.

Pushing the zone hard toward its target density induces a heterogeneous
recovery (a large deviation from the spread envelope).  Capping the mean
deviation turns the problem into constrained infill: expected improvement
times the probability of staying below the limit.  The constrained optimum
trades objective quality for homogeneity, in the expected direction.
Takes about five seconds.
"""

import numpy as np

from tollopt import desk_preset, optimize
from tollopt.tlp import ProblemSpec
from tollopt.toll import Bounds

config = desk_preset()
base = dict(config=config, bounds=Bounds.uniform(config.m, 1.0, 15.0),
            alpha=1.0 / 3.0, beta=5.0, replications=2, budget=40)

free = optimize(ProblemSpec(**base), method="rk", seed=11)
zero = next(i for i, row in enumerate(free.samples.x) if np.allclose(row, 0.0))


def best(run):
    """The incumbent's objective, constraint and toll row."""
    b = run.best_index
    return run.samples.objective[b], run.samples.constraint[b], run.samples.x[b]


free_obj, free_con, _ = best(free)
# bracketing rule: the limit belongs between the zero-toll deviation and the
# deviation of the unconstrained optimum
delta_max = 0.5 * (free.samples.constraint[zero] + free_con)
print(f"zero-toll deviation {free.samples.constraint[zero]:.2f}, unconstrained optimum "
      f"deviation {free_con:.2f} -> limit {delta_max:.2f}\n")

capped = optimize(ProblemSpec(**base, delta_max=delta_max), method="rk", seed=12)
capped_obj, capped_con, capped_x = best(capped)

print(f"{'':>14} {'objective':>10} {'deviation':>10}")
print(f"{'unconstrained':>14} {free_obj:>10.2f} {free_con:>10.2f}")
print(f"{'constrained':>14} {capped_obj:>10.2f} {capped_con:>10.2f}")
print(f"\nconstraint satisfied: {capped_con <= delta_max}")
print("the constrained solution gives up objective value for a more even "
      "congestion distribution")

v = np.round(capped_x[:config.m], 3)
w = np.round(capped_x[config.m:], 2)
print(f"\nconstrained toll pattern: distance {v}, delay {w}")
