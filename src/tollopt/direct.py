"""Deterministic DIRECT (DIviding RECTangles) global minimization.

Serves as the derivative-free comparison baseline.  The search box is
normalized to the unit cube, the center is sampled first, and every iteration
trisects the potentially optimal hyperrectangles identified by the
lower-convex-hull conditions of Jones, Perttunen and Stuckman.  The objective
is vectorized: it gets all of one iteration's points in one call, so the
caller can simulate them as one batch.  Constraints are handled by the caller
through ``quadratic_penalty``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

EPSILON = 1e-4   # Jones et al.'s minimum relative improvement


@dataclass
class HyperRect:
    """One cell of the partition; ``levels[i]`` counts trisections along dimension i."""

    center: np.ndarray
    levels: np.ndarray          # int per dimension; side_i = 3**(-levels[i])
    f_center: float
    index: int

    @property
    def side_lengths(self) -> np.ndarray:
        return 3.0 ** (-self.levels.astype(float))

    @property
    def diameter(self) -> float:
        # half the Euclidean norm of the sides; sorted so equal level multisets
        # produce bit-identical diameters and group exactly
        sides = np.sort(self.side_lengths)
        return 0.5 * float(np.linalg.norm(sides))


def potentially_optimal(rects: Sequence[HyperRect], f_min: float,
                        epsilon: float) -> list[HyperRect]:
    """Rectangles for which some K > 0 satisfies both Jones conditions.

    A rectangle j qualifies when ``f_j - K d_j <= f_i - K d_i`` for every
    rectangle i and ``f_j - K d_j <= f_min - epsilon |f_min|``.
    """
    diams = np.array([r.diameter for r in rects])
    fvals = np.array([r.f_center for r in rects])
    chosen = []
    for j, rect in enumerate(rects):
        dj, fj = diams[j], fvals[j]
        if not np.isfinite(fj):
            continue
        same = (diams == dj)
        if np.any(fvals[same] < fj):
            continue
        k_lo = (fj - f_min + epsilon * abs(f_min)) / dj
        smaller = diams < dj
        if np.any(smaller):
            k_lo = max(k_lo, float(np.max((fj - fvals[smaller]) / (dj - diams[smaller]))))
        larger = diams > dj
        k_hi = float(np.min((fvals[larger] - fj) / (diams[larger] - dj))) if np.any(larger) else math.inf
        if k_hi > 0.0 and k_lo <= k_hi:
            chosen.append(rect)
    return chosen


def _trisection(rect: HyperRect) -> tuple[np.ndarray, list[np.ndarray]]:
    """The dimensions a rectangle splits along (its longest sides, ascending) and
    the new centers, per dimension ``+`` then ``-`` a third of that side."""
    lmin = int(np.min(rect.levels))
    split_dims = np.flatnonzero(rect.levels == lmin)
    delta = 3.0 ** (-(lmin + 1))
    points = []
    for dim in split_dims:
        for sign in (+1, -1):
            pt = rect.center.copy()
            pt[dim] += sign * delta
            points.append(pt)
    return split_dims, points


def direct_minimize(
    f: Callable[[np.ndarray], np.ndarray],
    box,
    max_evals: int,
) -> tuple[np.ndarray, float, list[tuple[int, float]]]:
    """Minimize ``f`` over a box by iterative trisection of potentially optimal rectangles.

    ``f`` maps an ``(n, d)`` array of points (original coordinates) to ``n``
    values.  It is called once per iteration with every point that iteration
    samples: the selected rectangles by index, each one's split dimensions
    ascending, ``+`` before ``-``.  The whole box is always divided first, so
    when ``max_evals > 1`` the first call holds the center followed by the
    root's trisection (and a non-finite center does not end the search).
    Runs whole iterations until the evaluation count reaches ``max_evals``,
    so the final count may overshoot by one iteration's worth of samples.
    Non-finite objective values are treated as +inf.  Returns the incumbent
    point (original coordinates), its value, and a per-iteration history of
    ``(evaluations_used, best_value)`` whose first entry is the center's.
    """
    if max_evals < 1:
        raise ValueError("max_evals must be at least 1")
    lower = np.atleast_1d(np.asarray(box[0], dtype=float))
    upper = np.atleast_1d(np.asarray(box[1], dtype=float))
    if lower.shape != upper.shape or np.any(lower >= upper):
        raise ValueError("invalid box")
    d = lower.size
    span = upper - lower

    evals = 0

    def sample(us: list[np.ndarray]) -> list[float]:
        nonlocal evals
        evals += len(us)
        vals = np.asarray(f(lower + np.array(us) * span), dtype=float)
        if vals.shape != (len(us),):
            raise ValueError(f"f returned shape {vals.shape} for {len(us)} points")
        return [float(v) if np.isfinite(v) else math.inf for v in vals]

    center = np.full(d, 0.5)
    root = HyperRect(center, np.zeros(d, dtype=int), math.inf, 0)
    rects = [root]
    next_index = 1
    best_u, best_f = center, math.inf
    history: list[tuple[int, float]] = []
    selected = [root] if max_evals > 1 else []

    while True:
        splits = [_trisection(rect) for rect in selected]
        points = [pt for _, pts in splits for pt in pts]
        values = sample(points if history else [center, *points])
        if not history:
            root.f_center = best_f = values.pop(0)
            history.append((1, best_f))
            if not selected:        # max_evals == 1: the center alone
                break
        selected_ids = {r.index for r in selected}
        survivors = [r for r in rects if r.index not in selected_ids]
        pos = 0
        for rect, (split_dims, pts) in zip(selected, splits):
            vals = values[pos:pos + len(pts)]
            pos += len(pts)
            for pt, val in zip(pts, vals):
                if val < best_f:
                    best_f, best_u = val, pt
            w = np.minimum(vals[0::2], vals[1::2])
            # best dimension first: it gets the largest child rectangles;
            # stable sort breaks w ties by increasing dimension index
            parent_levels = rect.levels.copy()
            for k in np.argsort(w, kind="stable"):
                parent_levels[split_dims[k]] += 1
                for j in (2 * k, 2 * k + 1):
                    survivors.append(HyperRect(pts[j], parent_levels.copy(), vals[j], next_index))
                    next_index += 1
            survivors.append(HyperRect(rect.center, parent_levels, rect.f_center, next_index))
            next_index += 1
        rects = survivors
        history.append((evals, best_f))
        if evals >= max_evals:
            break
        selected = sorted(potentially_optimal(rects, best_f, EPSILON), key=lambda r: r.index)
        if not selected:
            break

    return lower + best_u * span, best_f, history


def quadratic_penalty(values, excess, rho: float) -> np.ndarray:
    """Quadratic penalty turning a constrained problem into a box-only one.

    ``values`` holds the objective at n points and each row of ``excess`` one
    constraint's signed excess at those points (feasible at or below zero).
    Returns ``values + rho * max(0, excess)^2``, adding the constraints one
    at a time in row order.
    """
    if rho <= 0:
        raise ValueError("penalty weight rho must be positive")
    total = np.array(values, dtype=float)
    for row in excess:
        # float_power is libm pow, as Python's ** on floats; numpy's ** 2
        # squares and can differ from it in the last bit
        total = total + rho * np.float_power(np.maximum(row, 0.0), 2.0)
    return total
