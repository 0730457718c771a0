"""Expected-improvement infill on a toy objective.

Starting from a handful of samples of an unknown function, each round fits a
kriging model, finds the point with the largest (reinterpolation) expected
improvement, and evaluates it.  The search balances exploiting the predicted
minimum against exploring regions where the model is still uncertain.
"""

import numpy as np

from tollopt import (AcquisitionContext, Bounds, GAParams, expected_improvement,
                     fit, predict, propose_infill)

rng = np.random.default_rng(4)
bounds = Bounds.uniform(1, v_max=1.0, w_max=1.0)   # a unit box in 2-D


def objective(x):
    # a shallow bowl with a deep Gaussian basin hiding near (0.15, 0.7)
    bowl = (x[..., 0] - 0.15) ** 2 + 0.6 * (x[..., 1] - 0.7) ** 2
    dip = np.exp(-((x[..., 0] - 0.15) ** 2 + (x[..., 1] - 0.7) ** 2) / 0.02)
    return bowl - 0.25 * dip


X = rng.uniform(0.3, 1.0, size=(6, 2))             # start away from the optimum
y = [float(objective(x)) for x in X]

print(f"{'round':>5} {'proposal':>18} {'value':>8} {'EI':>9} {'best so far':>12}")
for round_idx in range(10):
    model = fit(X, y, bounds, ga_params=GAParams(population_size=30, generations=25), rng=rng)
    ctx = AcquisitionContext(obj_model=model, bounds=bounds, y_min=min(y),
                             smoothing=(1.0, 1.0))
    x_new, acq = propose_infill(ctx, ga_params=GAParams(population_size=30, generations=25),
                                rng=rng)
    y_new = float(objective(x_new))
    X = np.vstack([X, x_new])
    y.append(y_new)
    print(f"{round_idx:>5} {np.round(x_new, 3)!s:>18} {y_new:>8.4f} "
          f"{acq:>9.2e} {min(y):>12.4f}")

best = X[int(np.argmin(y))]
print(f"\nincumbent {np.round(best, 3)} with value {min(y):.4f} "
      f"(true optimum near [0.15, 0.7])")

# expected improvement itself is a one-liner over the predictive distribution
pred = predict(model, np.array([[0.15, 0.7]]))
print(f"EI at the true basin under the final model: "
      f"{expected_improvement(pred.mean, pred.ri_variance, min(y))[0]:.2e}")
