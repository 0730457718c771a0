"""The two toll level problems: evaluation, feasibility, and the optimization drivers.

The single-objective problem drives the zone's per-interval density toward
the critical density; the constrained variant additionally caps the mean
deviation from spread.  Both are solved either by regressing kriging with
expected-improvement infill or by DIRECT with a quadratic penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from . import direct as direct_mod
from .doe import build_initial_plan, initial_plan_size
from .ga import GAParams
from .infill import AcquisitionContext, propose_infill, repair_smoothing
# simulate is unused here but kept as tlp.simulate, the lookup point that
# outside tracers wrap (perfbench/spans.py)
from .simnet import (BatchResult, NetworkConfig, shared_prefixes, simulate,  # noqa: F401
                     simulate_batch)
from .surrogate import fit
from .toll import Bounds

SMOOTHING_TOL = 1e-9  # absorbs affine-rescaling roundoff in feasibility checks


@dataclass
class ProblemSpec:
    """One toll level problem instance: scenario, box, limits, and budget."""

    config: NetworkConfig
    bounds: Bounds
    alpha: float                    # max adjacent-interval distance-rate change
    beta: float                     # max adjacent-interval delay-rate change
    replications: int
    budget: int
    delta_max: Optional[float] = None   # heterogeneity cap; None = single objective
    ga: GAParams = field(default_factory=GAParams)   # likelihood and infill searches

    def __post_init__(self):
        # each message starts with the field it rejects
        for name in ("alpha", "beta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name}: smoothing limits must be positive")
        if self.delta_max is not None and math.isnan(self.delta_max):
            raise ValueError("delta_max: the heterogeneity cap must be a number, got nan")
        if self.replications < 1:
            raise ValueError("replications: need at least one replication per evaluation")
        if self.bounds.d != 2 * self.config.m:
            raise ValueError(f"bounds: dimension {self.bounds.d} != 2m = {2 * self.config.m}")
        if self.budget <= self.initial_plan_size:
            raise ValueError(
                f"budget: {self.budget} must exceed the initial plan size {self.initial_plan_size}")

    @property
    def m(self) -> int:
        return self.config.m

    @property
    def k_cr(self) -> float:
        return self.config.k_cr

    @property
    def initial_plan_size(self) -> int:
        return initial_plan_size(self.m)


def _gap_per_rep(interval_density: np.ndarray, k_cr: float) -> np.ndarray:
    """Mean absolute gap of interval densities from the target, per replication (last axis)."""
    return np.mean(np.abs(interval_density - k_cr), axis=-1)


def _deviation_per_rep(interval_deviation: np.ndarray) -> np.ndarray:
    """Mean per-interval deviation from spread, per replication (last axis)."""
    return np.mean(interval_deviation, axis=-1)


def objective_value(results: Sequence[BatchResult], k_cr: float) -> float:
    """Replication average of the mean absolute gap between interval density and target."""
    return float(np.mean(_gap_per_rep(np.concatenate([r.interval_density for r in results]), k_cr)))


def constraint_value(results: Sequence[BatchResult]) -> float:
    """Replication average of the mean per-interval deviation from spread."""
    return float(np.mean(_deviation_per_rep(np.concatenate([r.interval_deviation for r in results]))))


def check_smoothing(x: np.ndarray, alpha: float, beta: float,
                    tol: float = SMOOTHING_TOL) -> np.ndarray:
    """Per row of the ``(n, 2m)`` toll stack ``x``, whether every adjacent-interval
    rate change stays within alpha (distance) and beta (delay): ``(n,)`` bools."""
    m = x.shape[1] // 2
    return ~(np.any(np.abs(np.diff(x[:, :m], axis=1)) > alpha + tol, axis=1)
             | np.any(np.abs(np.diff(x[:, m:], axis=1)) > beta + tol, axis=1))


@dataclass
class Samples:
    """A run's evaluated points in evaluation order, one row per point."""

    x: np.ndarray                        # (n, 2m) toll rows
    objective_reps: np.ndarray           # (n, R)
    constraint_reps: np.ndarray          # (n, R)
    origin: np.ndarray                   # (n,) "initial" | "infill" | "direct"
    interval_density_reps: np.ndarray    # (n, R, m)
    interval_deviation_reps: np.ndarray  # (n, R, m)

    def __len__(self) -> int:
        return len(self.x)

    @classmethod
    def concat(cls, parts: Sequence["Samples"]) -> "Samples":
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))

    @property
    def objective(self) -> np.ndarray:   # (n,) replication averages
        return np.mean(self.objective_reps, axis=1)

    @property
    def constraint(self) -> np.ndarray:  # (n,) replication averages
        return np.mean(self.constraint_reps, axis=1)


@dataclass
class OptimizationRun:
    """One optimization's state: samples, acquisition history and the generator that
    :func:`rk_step` draws from (a DIRECT run holds one and draws nothing from it)."""

    spec: ProblemSpec
    method: str
    master_seed: int
    rep_seeds: list[int]
    samples: Samples
    acquisition_history: list[float]
    rng: np.random.Generator

    @property
    def evaluations(self) -> int:
        return len(self.samples)

    @property
    def best_index(self) -> int:
        """The best feasible sample's index (the best one while none is feasible), first on ties."""
        feasible = is_feasible(self.samples, self.spec)
        pool = np.flatnonzero(feasible) if feasible.any() else np.arange(len(self.samples))
        return int(pool[np.argmin(self.samples.objective[pool])])

    def best_so_far(self) -> np.ndarray:
        """Incumbent feasible objective after each evaluation (inf until one exists)."""
        feasible = is_feasible(self.samples, self.spec)
        # fmin passes over a nan objective, so it never becomes the incumbent
        return np.fmin.accumulate(np.where(feasible, self.samples.objective, math.inf))


def is_feasible(samples: Samples, spec: ProblemSpec) -> np.ndarray:
    """Per sample: smoothing-feasible, inside the box and, when capped, under delta_max."""
    ok = (check_smoothing(samples.x, spec.alpha, spec.beta)
          & spec.bounds.contains(samples.x, atol=SMOOTHING_TOL))
    if spec.delta_max is not None:
        ok &= ~(samples.constraint > spec.delta_max)   # not <=: a nan is not over the cap
    return ok


def replication_seeds(master_seed: int, replications: int) -> list[int]:
    """Common random numbers: every design point reuses this same seed list."""
    return [int(master_seed) * 1000 + r for r in range(replications)]


def evaluate_toll(spec: ProblemSpec, x: np.ndarray, rep_seeds: Sequence[int],
                  origin: str = "initial") -> Samples:
    """Evaluate one ``(2m,)`` toll row."""
    return evaluate_tolls(spec, x[None], rep_seeds, origin)


def evaluate_tolls(spec: ProblemSpec, x: np.ndarray, rep_seeds: Sequence[int],
                   origin: str = "initial") -> Samples:
    """Evaluate the ``(n, 2m)`` toll rows ``x`` with every replication of every
    row in one simulate_batch call (lanes row-major, seeds in ``rep_seeds`` order)."""
    x = np.array(x, dtype=float)
    n, reps = len(x), len(rep_seeds)
    batch = simulate_batch(spec.config, np.repeat(x, reps, axis=0), list(rep_seeds) * n)
    return Samples(
        x=x,
        objective_reps=_gap_per_rep(batch.interval_density, spec.k_cr).reshape(n, reps),
        constraint_reps=_deviation_per_rep(batch.interval_deviation).reshape(n, reps),
        origin=np.full(n, origin),
        interval_density_reps=batch.interval_density.reshape(n, reps, -1),
        interval_deviation_reps=batch.interval_deviation.reshape(n, reps, -1),
    )


def optimize(spec: ProblemSpec, method: str = "rk", seed: int = 0) -> OptimizationRun:
    """Run one full optimization and return the run.

    ``method="rk"``: maximin-LHS initial plan (pre-repaired onto the
    smoothing-feasible set), then one :func:`rk_step` (expected-improvement
    infill) at a time until the evaluation budget is spent.
    ``method="direct"``: DIRECT over the toll box with smoothing (and
    heterogeneity, when set) constraints folded into a quadratic penalty;
    each DIRECT iteration's points are simulated in one batch, in DIRECT's
    sampling order, and the final iteration may overshoot the budget.

    The run shares each replication seed's untolled prefix (the steps before
    the tolling window) across all its simulator calls and drops the prefixes
    on return, so the next call simulates its own (:func:`simnet.shared_prefixes`).
    """
    if method not in ("rk", "direct"):
        raise ValueError(f"unknown method {method!r}")
    rng = np.random.default_rng(seed)
    rep_seeds = replication_seeds(seed, spec.replications)
    with shared_prefixes(spec.config):
        if method == "rk":
            samples = evaluate_tolls(spec, repaired_initial_plan(spec, rng), rep_seeds)
        else:
            samples = _optimize_direct(spec, rep_seeds)
        run = OptimizationRun(spec, method, int(seed), rep_seeds, samples, [], rng)
        while method == "rk" and run.evaluations < spec.budget:
            rk_step(run)
    return run


def repaired_initial_plan(spec: ProblemSpec, rng: np.random.Generator) -> np.ndarray:
    """The initial plan's ``(n, 2m)`` rows, each repaired onto the smoothing-feasible set."""
    return repair_smoothing(build_initial_plan(spec.m, spec.bounds, rng),
                            spec.alpha, spec.beta, spec.bounds)


def rk_step(run: OptimizationRun) -> None:
    """One RK iteration: fit the surrogates to ``run``'s samples, propose an
    expected-improvement infill point, evaluate it and append it to the run."""
    spec, samples, rng = run.spec, run.samples, run.rng
    objective = samples.objective
    obj_model = fit(samples.x, objective, spec.bounds, ga_params=spec.ga, rng=rng)
    con_model = None
    if spec.delta_max is not None:
        con_model = fit(samples.x, samples.constraint, spec.bounds, ga_params=spec.ga, rng=rng)
    ctx = AcquisitionContext(obj_model=obj_model, bounds=spec.bounds,
                             y_min=float(objective[run.best_index]), con_model=con_model,
                             smoothing=(spec.alpha, spec.beta), delta_max=spec.delta_max)
    x, acq = propose_infill(ctx, ga_params=spec.ga, rng=rng)
    run.acquisition_history.append(acq)
    run.samples = Samples.concat([samples, evaluate_toll(spec, x, run.rep_seeds, origin="infill")])


def _optimize_direct(spec: ProblemSpec, rep_seeds: list[int]) -> Samples:
    """DIRECT over the unit cube of the toll box's free dimensions; ``from_unit``
    makes each of its points a toll row."""
    batches: list[Samples] = []
    m, bounds = spec.m, spec.bounds
    rho = None

    def penalized(U: np.ndarray) -> np.ndarray:
        """One DIRECT iteration's points, simulated as one batch and penalized."""
        nonlocal rho
        X = bounds.from_unit(U)
        batch = evaluate_tolls(spec, X, rep_seeds, origin="direct")
        batches.append(batch)
        objective = batch.objective
        if rho is None:
            # penalty weight scaled to the objective magnitude over the first
            # ten points DIRECT samples: the center and the box's trisection
            rho = 1e3 * max(float(np.mean(np.abs(objective[:10]))), 1e-12)
        distance = np.abs(np.diff(X[:, :m], axis=1)) - spec.alpha
        delay = np.abs(np.diff(X[:, m:], axis=1)) - spec.beta
        excess = [row for h in range(m - 1) for row in (distance[:, h], delay[:, h])]
        if spec.delta_max is not None:
            excess.append(batch.constraint - spec.delta_max)
        return direct_mod.quadratic_penalty(objective, excess, rho)

    direct_mod.direct_minimize(penalized, int(np.count_nonzero(bounds.free)),
                               max_evals=spec.budget)

    return Samples.concat(batches)


def convergence_history(run: OptimizationRun, window: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Raw per-iteration acquisition values plus their non-overlapping window means.

    A partial final window (or a series shorter than one window) is averaged
    as-is, so the smoothed series always covers every iteration.
    """
    raw = np.asarray(run.acquisition_history, dtype=float)
    if raw.size == 0:
        raise ValueError("run has no infill iterations")
    averaged = np.array([np.mean(raw[i:i + window]) for i in range(0, raw.size, window)])
    return raw, averaged
