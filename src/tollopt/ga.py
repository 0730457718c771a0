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
    *,
    rng: np.random.Generator,
    repair: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> tuple[np.ndarray, float]:
    """Maximize ``f`` over a box with tournament selection, blend crossover,
    Gaussian mutation, and elitism.

    ``f`` scores a whole generation: it maps a ``(P, d)`` array of points to
    ``(P,)`` values and is called exactly ``params.generations`` times, first
    on the initial population, then on each generation's ``P - ELITISM``
    children (the ``ELITISM`` best are carried over without re-scoring).
    ``repair`` (if given) maps ``(P, d)`` box points onto the feasible set
    and is applied before every call of ``f``, so only feasible points are
    ever scored or returned.  Non-finite values are discarded with a
    warning; if every candidate is non-finite the search fails.

    Deterministic under a fixed generator state, which is drawn once for the
    initial population, a ``(P, d)`` uniform, and then once per operator for
    each generation's ``C = P - ELITISM`` children, in this order: the
    tournaments, ``integers`` of shape ``(2, C, TOURNAMENT_SIZE)`` (the two
    parents of every child); the crossover tests, a ``(C,)`` uniform; the
    BLX-alpha blends, a ``(C, d)`` uniform; the mutation mask, a ``(C, d)``
    uniform at rate ``1/d``; the mutation steps, a ``(C, d)`` normal.  The
    returned point is the final generation's best, which the stably sorted
    elites make the first-found best of the whole search.
    """
    params = params or GAParams()
    params.validate()
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

    n_children = pop_size - ELITISM
    for _ in range(params.generations - 1):
        # children select from the current generation only: breed them all,
        # drawing each operator once for the whole generation
        picks = rng.integers(0, pop_size, size=(2, n_children, TOURNAMENT_SIZE))
        won = np.take_along_axis(picks, np.argmax(fitness[picks], axis=-1)[..., None], axis=-1)
        pa, pb = pop[won[..., 0]]
        cross = rng.uniform(size=n_children) < CROSSOVER_RATE
        lo, hi = np.minimum(pa, pb), np.maximum(pa, pb)
        spread = BLEND_ALPHA * (hi - lo)
        children = np.where(cross[:, None], rng.uniform(lo - spread, hi + spread), pa)
        mutate = rng.uniform(size=(n_children, d)) < 1.0 / d
        step = rng.normal(size=(n_children, d)) * MUTATION_SCALE * width
        children = prepare(np.where(mutate, children + step, children))
        elite = np.argsort(-fitness, kind="stable")[:ELITISM]
        pop = np.concatenate([pop[elite], children])
        fitness = np.concatenate([fitness[elite], evaluate(children)])

    # the stable elite sort keeps the first-found best at index 0, so the
    # final generation's argmax is the best point ever scored
    best = int(np.argmax(fitness))
    if not np.isfinite(fitness[best]):
        raise RuntimeError("GA failed: every evaluated candidate was non-finite")
    if saw_nonfinite:
        warnings.warn("GA discarded candidates with non-finite objective values")
    return pop[best], float(fitness[best])
