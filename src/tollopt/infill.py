"""Expected-improvement acquisition and the infill proposal search.

All acquisition evaluations use the reinterpolation variance, never the raw
regression variance, so the search cannot stall on already-sampled points.
The constrained variant multiplies expected improvement by the Gaussian
probability that the constraint surrogate stays below its limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ga import GAParams, ga_maximize
from .surrogate import RKModel, predict
from .toll import Bounds

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_erfc = np.frompyfunc(math.erfc, 1, 1)

# acquisition values at or below this count as the flat all-zero plateau
ACQUISITION_TIE_EPS = 1e-16


def norm_cdf(u):
    """Standard normal CDF ``0.5 erfc(-u / sqrt 2)``, elementwise, from the C
    library's ``erfc``: within 1e-12 relative of ``scipy.special.ndtr``."""
    return 0.5 * np.asarray(_erfc(np.asarray(u, dtype=float) * -_SQRT_HALF), dtype=float)


def _standardized_gap(mean, variance, limit):
    """``(limit - mean) / sqrt(variance)`` (0 where the variance is 0), the gap
    ``limit - mean`` and ``sqrt(variance)``, elementwise."""
    gap = limit - np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    if np.any(variance < 0):
        raise ValueError("variance must be nonnegative")
    s = np.sqrt(variance)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s > 0, gap / np.where(s > 0, s, 1.0), 0.0), gap, s


def expected_improvement(mean, variance, y_min):
    """Closed-form E[max(y_min - Y, 0)] for Y ~ N(mean, variance), elementwise.

    Zero variance gives exactly zero improvement.
    """
    u, gap, s = _standardized_gap(mean, variance, y_min)
    pdf = np.exp(-0.5 * u * u) / _SQRT_2PI
    return np.where(s > 0, np.maximum(gap * norm_cdf(u) + s * pdf, 0.0), 0.0)


def prob_feasible(mean, variance, delta_max):
    """Gaussian probability that the constraint stays at or below ``delta_max``, elementwise."""
    z, gap, s = _standardized_gap(mean, variance, delta_max)
    return np.where(s > 0, norm_cdf(z), (gap >= 0).astype(float))


def constrained_ei(ei, p_feasible):
    """Product acquisition: improvement only counts where feasibility is likely."""
    return np.asarray(ei, dtype=float) * np.asarray(p_feasible, dtype=float)


@dataclass
class AcquisitionContext:
    """Everything the infill search needs: surrogates, incumbent, and feasible set."""

    obj_model: RKModel
    bounds: Bounds
    y_min: float
    smoothing: tuple[float, float]          # (alpha, beta) adjacent-interval limits
    con_model: Optional[RKModel] = None
    delta_max: Optional[float] = None

    def __post_init__(self):
        if (self.con_model is None) != (self.delta_max is None):
            raise ValueError("con_model and delta_max must be given together")


def repair_smoothing(x: np.ndarray, alpha: float, beta: float, bounds: Bounds) -> np.ndarray:
    """Clip flat toll vectors onto the smoothing-feasible part of the box.

    ``x`` is one vector or a ``(n, d)`` batch of rows.  Scans each rate chain
    left to right and clips every rate into the band reachable from its
    predecessor intersected with the box.  With identical per-interval bounds
    the intersection is never empty, so the result always satisfies both the
    box and the adjacent-interval limits.
    """
    out = np.array(x, dtype=float)
    m = bounds.m
    for start, limit in ((0, alpha), (m, beta)):
        lo = bounds.lower[start:start + m]
        hi = bounds.upper[start:start + m]
        seg = out[..., start:start + m]
        seg[..., 0] = np.minimum(np.maximum(seg[..., 0], lo[0]), hi[0])
        for h in range(1, m):
            delta = np.minimum(np.maximum(seg[..., h] - seg[..., h - 1], -limit), limit)
            seg[..., h] = np.minimum(np.maximum(seg[..., h - 1] + delta, lo[h]), hi[h])
    return out


def acquisition_value(ctx: AcquisitionContext, x_unit: np.ndarray) -> np.ndarray:
    """Reinterpolation EI (times feasibility probability when constrained) at the rows of
    ``x_unit``, a stack of points in the unit cube of the box's free dimensions."""
    pred = predict(ctx.obj_model, x_unit)
    ei = expected_improvement(pred.mean, pred.ri_variance, ctx.y_min)
    if ctx.con_model is None:
        return ei
    cpred = predict(ctx.con_model, x_unit)
    p = prob_feasible(cpred.mean, cpred.ri_variance, ctx.delta_max)
    return constrained_ei(ei, p)


def propose_infill(
    ctx: AcquisitionContext,
    ga_params: Optional[GAParams] = None,
    *,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """GA-maximize the acquisition over the smoothing-feasible toll box.

    The GA searches the toll box's free dimensions: each generation is put
    back into toll rows by ``bounds.rows``, repaired by sequential clipping
    (:func:`repair_smoothing`) and then scored by one
    :func:`acquisition_value` call on its unit-cube image, so the returned
    ``(2m,)`` toll row satisfies the box and smoothing limits exactly.  If the
    acquisition surface has collapsed to a flat zero plateau, the tie is
    broken by maximizing the unit-cube distance to the nearest existing
    sample, which keeps late iterations space-filling.
    """
    bounds = ctx.bounds
    free, rows = bounds.free, bounds.rows
    box = (bounds.lower[free], bounds.upper[free])

    def repair(z: np.ndarray) -> np.ndarray:
        return repair_smoothing(rows(z), *ctx.smoothing, bounds)[:, free]

    best_z, best_val = ga_maximize(lambda z: acquisition_value(ctx, bounds.to_unit(rows(z))), box,
                                   params=ga_params, rng=rng, repair=repair)

    if best_val <= ACQUISITION_TIE_EPS:
        design = ctx.obj_model.design

        def spread(z: np.ndarray) -> np.ndarray:
            x_unit = bounds.to_unit(rows(z))
            return np.min(np.linalg.norm(design - x_unit[:, None, :], axis=2), axis=1)

        best_z, _ = ga_maximize(spread, box, params=ga_params, rng=rng, repair=repair)
        best_val = acquisition_value(ctx, bounds.to_unit(rows(best_z[None])))[0]

    return rows(best_z[None])[0], float(best_val)
