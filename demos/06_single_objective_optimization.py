"""End-to-end toll optimization: hold the zone at its target density.

The driver evaluates a space-filling initial plan (with the corner and
midpoint anchors), then alternates between refitting the kriging surrogate
and evaluating the expected-improvement maximizer, under common random
numbers across design points.  Takes a few seconds.
"""

import numpy as np

from tollopt import TollVector, convergence_history, desk_preset, optimize, simulate
from tollopt.tlp import ProblemSpec
from tollopt.toll import Bounds

config = desk_preset()
spec = ProblemSpec(config=config,
                   bounds=Bounds.uniform(config.m, 1.0, 15.0),
                   alpha=1.0 / 3.0, beta=5.0,
                   replications=2, budget=40)

run = optimize(spec, method="rk", seed=11)
objective, x = run.samples.objective, run.samples.x
zero = next(i for i, row in enumerate(x) if np.allclose(row, 0.0))
best = run.best_index

print(f"evaluations: {run.evaluations} ({spec.initial_plan_size} initial + "
      f"{len(run.acquisition_history)} infill)")
print(f"zero-toll objective {objective[zero]:.2f} -> optimized {objective[best]:.2f} vpkmpl\n")

print(f"{'interval':>8} {'distance rate':>14} {'delay rate':>11}")
for h in range(spec.m):
    print(f"{h + 1:>8} {x[best, h]:>14.3f} {x[best, spec.m + h]:>11.2f}")

result = simulate(config, TollVector.from_array(x[best]), run.rep_seeds[0])
print(f"\ninterval densities under the optimum: "
      f"{np.round(result.interval_density[0], 1)} (target {config.k_cr})")

raw, averaged = convergence_history(run)
print("\nacquisition history (windowed average of 4):", np.round(averaged, 3))
print("this short run is still exploring; at the full budget of 60 the "
      "trailing averages sink toward zero and the search can stop with confidence")
