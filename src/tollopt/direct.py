"""Deterministic DIRECT (DIviding RECTangles) global minimization over the unit cube.

Serves as the derivative-free comparison baseline.  As Jones, Perttunen and
Stuckman define it, the search runs over ``[0, 1]^d`` and the caller scales its
points into the box it searches.  The center is sampled first, and every
iteration trisects the potentially optimal hyperrectangles identified by their
lower-convex-hull conditions.  The objective is vectorized: it gets all of one
iteration's points in one call, so the caller can simulate them as one batch.
Constraints are handled by the caller through ``quadratic_penalty``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

EPSILON = 1e-4   # Jones et al.'s minimum relative improvement


def potentially_optimal(levels: np.ndarray, fvals: np.ndarray, f_min: float,
                        epsilon: float) -> list[int]:
    """Positions, ascending, of the rectangles for which some K > 0 satisfies
    both Jones conditions.

    Row i of ``levels`` counts rectangle i's trisections per dimension (its
    sides are ``3**-levels[i]``) and ``fvals[i]`` is its center's value.
    A rectangle j qualifies when ``f_j - K d_j <= f_i - K d_i`` for every
    rectangle i and ``f_j - K d_j <= f_min - epsilon |f_min|``.
    """
    # half the Euclidean norm of the sides; sorted so equal level multisets
    # produce bit-identical diameters and group exactly
    diams = np.array([0.5 * float(np.linalg.norm(np.sort(3.0 ** -row))) for row in levels])
    chosen = []
    for j, (dj, fj) in enumerate(zip(diams, fvals)):
        if not np.isfinite(fj):
            continue
        if np.any(fvals[diams == dj] < fj):
            continue
        k_lo = (fj - f_min + epsilon * abs(f_min)) / dj
        smaller = diams < dj
        if np.any(smaller):
            k_lo = max(k_lo, float(np.max((fj - fvals[smaller]) / (dj - diams[smaller]))))
        larger = diams > dj
        k_hi = float(np.min((fvals[larger] - fj) / (diams[larger] - dj))) if np.any(larger) else math.inf
        if k_hi > 0.0 and k_lo <= k_hi:
            chosen.append(j)
    return chosen


def _trisection(center: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dimensions a rectangle splits along (its longest sides, ascending) and
    the new centers, per dimension ``+`` then ``-`` a third of that side."""
    lmin = int(np.min(levels))
    split_dims = np.flatnonzero(levels == lmin)
    delta = 3.0 ** (-(lmin + 1))
    points = np.tile(center, (2 * split_dims.size, 1))
    pair = 2 * np.arange(split_dims.size)
    points[pair, split_dims] += delta
    points[pair + 1, split_dims] -= delta
    return split_dims, points


def direct_minimize(
    f: Callable[[np.ndarray], np.ndarray],
    d: int,
    max_evals: int,
) -> tuple[np.ndarray, float, list[tuple[int, float]]]:
    """Minimize ``f`` over the unit cube ``[0, 1]^d`` by iterative trisection of
    potentially optimal rectangles.

    ``f`` maps an ``(n, d)`` array of unit-cube points to ``n`` values.  It is
    called once per iteration with every point that iteration samples: the
    selected rectangles in creation order, each one's split dimensions
    ascending, ``+`` before ``-``.  The whole cube is always divided first, so
    when ``max_evals > 1`` and ``d > 0`` the first call holds the center
    followed by the root's trisection (and a non-finite center does not end
    the search); with ``d = 0`` the cube is one point, the center alone.
    Runs whole iterations until the evaluation count reaches ``max_evals``,
    so the final count may overshoot by one iteration's worth of samples.
    Non-finite objective values are treated as +inf.  Returns the incumbent
    unit-cube point, its value, and a per-iteration history of
    ``(evaluations_used, best_value)`` whose first entry is the center's.
    """
    if max_evals < 1:
        raise ValueError("max_evals must be at least 1")

    # the partition, one row per rectangle in creation order: a divided
    # rectangle is removed and re-appended, shrunk, after its children
    centers = np.full((1, d), 0.5)
    levels = np.zeros((1, d), dtype=int)     # side_i = 3**(-levels[i])
    fvals = np.full(1, math.inf)
    best_u, best_f = centers[0], math.inf
    evals, history = 0, []
    selected = [0] if max_evals > 1 and d else []

    while True:
        splits = [_trisection(centers[i], levels[i]) for i in selected]
        batch = [pts for _, pts in splits]
        if not history:
            batch.insert(0, centers)
        points = np.concatenate(batch)
        values = np.asarray(f(points), dtype=float)
        if values.shape != (len(points),):
            raise ValueError(f"f returned shape {values.shape} for {len(points)} points")
        values = np.where(np.isfinite(values), values, math.inf)
        evals += len(points)
        j = int(np.argmin(values))
        if values[j] < best_f:
            best_f, best_u = float(values[j]), points[j]
        if not history:
            fvals[0], values = values[0], values[1:]
            history.append((1, float(fvals[0])))
            if not selected:        # max_evals == 1 or d == 0: the center alone
                break
        keep = np.ones(len(fvals), dtype=bool)
        keep[selected] = False
        parts = [(centers[keep], levels[keep], fvals[keep])]
        pos = 0
        for i, (split_dims, pts) in zip(selected, splits):
            vals = values[pos:pos + len(pts)]
            pos += len(pts)
            # best dimension first: it gets the largest child rectangles;
            # stable sort breaks w ties by increasing dimension index
            shrunk = levels[i].copy()
            for k in np.argsort(np.minimum(vals[0::2], vals[1::2]), kind="stable"):
                shrunk[split_dims[k]] += 1
                parts.append((pts[2 * k:2 * k + 2], np.tile(shrunk, (2, 1)), vals[2 * k:2 * k + 2]))
            parts.append((centers[i:i + 1], shrunk[None], fvals[i:i + 1]))
        centers, levels, fvals = (np.concatenate(col) for col in zip(*parts))
        history.append((evals, best_f))
        if evals >= max_evals:
            break
        selected = potentially_optimal(levels, fvals, best_f, EPSILON)
        if not selected:
            break

    return best_u, best_f, history


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
