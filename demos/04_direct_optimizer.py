"""DIRECT: deterministic global minimization by dividing rectangles.

The box is normalized to the unit cube and the center sampled first.  Each
iteration selects the potentially optimal rectangles (the lower convex hull
of the value-vs-size cloud), trisects them along their longest sides, and
samples the new centers, so evaluations arrive in iteration-sized bursts:
the objective gets each iteration's points as one (n, d) array.
Constraints enter through a quadratic penalty.
"""

import numpy as np

from tollopt import direct_minimize, quadratic_penalty


def branin_scaled(u):
    x = -5.0 + 15.0 * u[:, 0]
    y = 15.0 * u[:, 1]
    return ((y - 5.1 / (4 * np.pi ** 2) * x ** 2 + 5 / np.pi * x - 6) ** 2
            + 10 * (1 - 1 / (8 * np.pi)) * np.cos(x) + 10)


point, value, history = direct_minimize(branin_scaled, (np.zeros(2), np.ones(2)),
                                        max_evals=200)
print("evaluation bursts (evals, incumbent):")
for evals, best in history:
    print(f"  {evals:>4d}  {best:10.5f}")
print(f"best point {np.round(point, 4)} -> {value:.5f}  (global optimum 0.39789)")

# rerunning reproduces the exact same sequence: the method has no randomness
again = direct_minimize(branin_scaled, (np.zeros(2), np.ones(2)), max_evals=200)
assert again[1] == value
print("second run identical, as expected for a deterministic method")

# constrained use: keep the two coordinates within 0.2 of each other
def g(u):
    return quadratic_penalty(branin_scaled(u), [np.abs(u[:, 0] - u[:, 1]) - 0.2], rho=1e3)


pt, val, _ = direct_minimize(g, (np.zeros(2), np.ones(2)), max_evals=200)
print(f"\npenalized run: point {np.round(pt, 4)}, coordinate gap "
      f"{abs(pt[0] - pt[1]):.3f} (limit 0.2)")
