"""Real-coded genetic algorithm for bound-constrained maximization.

Used as the inner solver for likelihood and acquisition maximization, where
one call must stay far cheaper than a single traffic simulation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

CROSSOVER_RATE = 0.9
MUTATION_SCALE = 0.1      # fraction of box width; each gene mutates with rate 1/d
ELITISM = 2               # best individuals carried over unscored
TOURNAMENT_SIZE = 3
BLEND_ALPHA = 0.5         # BLX-alpha crossover expansion


@dataclass
class GAParams:
    population_size: int = 50
    generations: int = 40

    def validate(self) -> None:
        if self.population_size <= ELITISM:
            raise ValueError(f"population_size must exceed the {ELITISM} elites")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")


def _as_box(box) -> tuple[np.ndarray, np.ndarray]:
    lower, upper = box
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if lower.shape != upper.shape:
        raise ValueError("box lower/upper must have the same shape")
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("box must be finite")
    if np.any(lower > upper):
        raise ValueError("box lower bound exceeds upper bound")
    return lower, upper


def ga_maximize(
    f: Callable[[np.ndarray], np.ndarray],
    box,
    params: Optional[GAParams] = None,
    rng: Optional[np.random.Generator] = None,
    repair: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> tuple[np.ndarray, float]:
    """Maximize ``f`` over a box with tournament selection, blend crossover,
    Gaussian mutation, and elitism.

    ``f`` scores a whole generation: it maps a ``(P, d)`` array of points to
    ``(P,)`` values and is called exactly ``params.generations`` times, first
    on the initial population, then on each generation's children (the
    ``ELITISM`` best are carried over without re-scoring).  ``repair`` (if
    given) maps ``(P, d)`` box points onto the feasible set and is applied
    before every call of ``f``, so only feasible points are ever scored or
    returned.  Non-finite values are discarded with a warning; if every
    candidate is non-finite the search fails.  Deterministic under a fixed
    generator state.
    """
    params = params or GAParams()
    params.validate()
    rng = rng or np.random.default_rng()
    lower, upper = _as_box(box)
    d = lower.size
    width = upper - lower
    pop_size = params.population_size

    def prepare(x: np.ndarray) -> np.ndarray:
        x = np.clip(x, lower, upper)
        if repair is not None:
            x = np.clip(np.asarray(repair(x), dtype=float), lower, upper)
        return x

    saw_nonfinite = False

    def evaluate(x: np.ndarray) -> np.ndarray:
        nonlocal saw_nonfinite
        vals = np.asarray(f(x), dtype=float)
        if vals.shape != (len(x),):
            raise ValueError(f"f returned shape {vals.shape} for {len(x)} points")
        finite = np.isfinite(vals)
        if not finite.all():
            saw_nonfinite = True
            vals = np.where(finite, vals, -np.inf)
        return vals

    pop = prepare(lower + rng.uniform(size=(pop_size, d)) * width)
    fitness = evaluate(pop)

    best_idx = int(np.argmax(fitness))
    best_x = pop[best_idx].copy()
    best_f = fitness[best_idx]

    def tournament() -> int:
        contenders = rng.integers(0, pop_size, size=TOURNAMENT_SIZE)
        return int(contenders[np.argmax(fitness[contenders])])

    for _ in range(params.generations - 1):
        # children select from the current generation only, so all are bred
        # before any is scored
        children = np.empty((pop_size - ELITISM, d))
        for child in children:
            pa = pop[tournament()]
            pb = pop[tournament()]
            if rng.uniform() < CROSSOVER_RATE:
                lo = np.minimum(pa, pb)
                hi = np.maximum(pa, pb)
                spread = BLEND_ALPHA * (hi - lo)
                child[:] = rng.uniform(lo - spread, hi + spread)
            else:
                child[:] = pa
            mask = rng.uniform(size=d) < 1.0 / d
            if np.any(mask):
                child[mask] += rng.normal(size=int(mask.sum())) * MUTATION_SCALE * width[mask]
        children = prepare(children)
        elite = np.argsort(-fitness, kind="stable")[:ELITISM]
        pop = np.concatenate([pop[elite], children])
        fitness = np.concatenate([fitness[elite], evaluate(children)])
        gen_best = int(np.argmax(fitness))
        if fitness[gen_best] > best_f:
            best_f = fitness[gen_best]
            best_x = pop[gen_best].copy()

    if not np.isfinite(best_f):
        raise RuntimeError("GA failed: every evaluated candidate was non-finite")
    if saw_nonfinite:
        warnings.warn("GA discarded candidates with non-finite objective values")
    return best_x, float(best_f)
