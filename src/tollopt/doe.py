"""Space-filling design of experiments: Latin hypercube sampling with maximin selection."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .toll import Bounds

MAXIMIN_CANDIDATES = 100   # Latin hypercube plans compared per initial plan
ANCHORS = 3                # lower corner, upper corner and midpoint close every plan


def lhs(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one Latin hypercube plan of ``n`` points in ``[0, 1]^d``.

    Every dimension is stratified into ``n`` equal intervals; each interval
    receives exactly one point, uniformly placed within it, and the pairing of
    strata across dimensions is an independent uniform permutation per
    dimension.

    Returns an ``(n, d)`` array.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    plan = np.empty((n, d))
    for j in range(d):
        strata = rng.permutation(n)
        offsets = rng.uniform(size=n)
        plan[:, j] = (strata + offsets) / n
    return plan


def maximin_lhs(n: int, d: int, n_candidates: int, rng: np.random.Generator) -> np.ndarray:
    """Best of ``n_candidates`` Latin hypercube plans by the maximin criterion.

    Generates candidates with :func:`lhs` (consuming the generator in that
    order, which tests rely on) and keeps the plan whose minimum pairwise
    Euclidean distance is largest; ties go to the first candidate seen.
    """
    if n_candidates < 1:
        raise ValueError(f"need n_candidates >= 1, got {n_candidates}")
    rows, cols = np.triu_indices(n, k=1)
    best_plan = None
    best_dist = -np.inf
    for _ in range(n_candidates):
        plan = lhs(n, d, rng)
        # squared pair distances summed coordinate by coordinate, as scipy's
        # pdist sums them; sqrt is monotone, so one sqrt gives the minimum
        diff = plan.T[:, rows] - plan.T[:, cols]
        min_dist = math.sqrt(np.min(sum(coord * coord for coord in diff), initial=np.inf))
        if min_dist > best_dist:
            best_dist = min_dist
            best_plan = plan
    return best_plan


def initial_plan_size(m: int) -> int:
    """Points in the initial plan for ``m`` tolling intervals: ``2(2m + 1) + 3``."""
    return 2 * (2 * m + 1) + ANCHORS


def build_initial_plan(m: int, bounds: Bounds, rng: np.random.Generator) -> np.ndarray:
    """Initial sample plan for a toll problem with ``m`` tolling intervals.

    ``2(2m + 1)`` maximin-LHS points are scaled from the unit cube into the
    toll box, then the ``ANCHORS`` are appended: the lower corner, the upper
    corner, and the box midpoint.  Returns :func:`initial_plan_size` rows of
    an ``(n, 2m)`` array.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    d = 2 * m
    if bounds.d != d:
        raise ValueError(f"bounds have dimension {bounds.d}, expected {d}")
    if np.all(bounds.span == 0.0):
        warnings.warn("degenerate bounds: all plan points collapse to a single toll vector")
    unit = maximin_lhs(initial_plan_size(m) - ANCHORS, d, MAXIMIN_CANDIDATES, rng)
    return np.vstack([bounds.scale_from_unit(unit), bounds.lower, bounds.upper, bounds.midpoint()])
