"""Regressing kriging in a nutshell: fit, predict, validate.

An ordinary kriging model interpolates its training data exactly.  Adding a
regularization constant lambda to the correlation-matrix diagonal lets the
model regress noisy responses instead of chasing them, at the price of a
nonzero prediction error at the sampled points themselves.
"""

import numpy as np

from tollopt import Bounds, fit, loo_cv, predict
from tollopt.doe import lhs

rng = np.random.default_rng(3)
unit = Bounds(np.zeros(2), np.ones(2))


def response(x):
    return np.sin(4.0 * x[..., 0]) + 0.7 * x[..., 1] ** 2


pts = lhs(25, 2, rng)
noise = rng.normal(0.0, 0.08, size=25)
ys = [float(response(pts[i]) + noise[i]) for i in range(25)]

model = fit(pts, ys, unit, rng=rng)
print(f"fitted hyperparameters: theta = {np.round(model.theta, 3)}, "
      f"lambda = {model.lam:.2e}")
print(f"process mean {model.mu_hat:.3f}, variance {model.sigma2_hat:.3f}")

grid = lhs(5, 2, np.random.default_rng(9))
pred = predict(model, grid)
for i in range(5):
    truth = float(response(grid[i]))
    print(f"  x={np.round(grid[i], 2)}  predicted {pred.mean[i]:+.3f} "
          f"+/- {np.sqrt(pred.variance[i]):.3f}   truth {truth:+.3f}")

# at a training point the regression error stays positive, but the
# reinterpolation error vanishes - that is what keeps the infill search
# from proposing the same point twice
at_sample = predict(model, pts[:1])
print(f"\nat a training point: variance {at_sample.variance[0]:.2e}, "
      f"reinterpolation variance {at_sample.ri_variance[0]:.2e}")

records = loo_cv(model)
inside = sum(1 for r in records if not r.degenerate and abs(r.standardized_residual) <= 3)
print(f"leave-one-out: {inside}/{len(records)} standardized residuals within [-3, 3]")
