"""The two toll level problems: evaluation, feasibility, and the optimization drivers.

The single-objective problem drives the zone's per-interval density toward
the critical density; the constrained variant additionally caps the mean
deviation from spread.  Both are solved either by regressing kriging with
expected-improvement infill or by DIRECT with a quadratic penalty.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import direct as direct_mod
from .doe import build_initial_plan, initial_plan_size
from .ga import GAParams
from .infill import AcquisitionContext, propose_infill, repair_smoothing
# simulate is unused here but kept as tlp.simulate, the lookup point that
# outside tracers wrap (perfbench/spans.py)
from .simnet import (NetworkConfig, SimulationResult, shared_prefixes, simulate,  # noqa: F401
                     simulate_batch)
from .surrogate import fit
from .toll import Bounds, TollVector

SMOOTHING_TOL = 1e-9  # absorbs affine-rescaling roundoff in feasibility checks


@dataclass
class ProblemSpec:
    """One toll level problem instance: scenario, box, limits, and budget."""

    config: NetworkConfig
    bounds: Bounds
    alpha: float                    # max adjacent-interval distance-rate change
    beta: float                     # max adjacent-interval delay-rate change
    delta_max: Optional[float] = None   # heterogeneity cap; None = single objective
    replications: int = 2
    budget: int = 60
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


def _replication_rows(results: Sequence[SimulationResult], name: str) -> np.ndarray:
    """The ``name`` interval means of every replication as one ``(reps, m)`` array."""
    if not results:
        raise ValueError("need at least one replication result")
    m = results[0].m
    if any(r.m != m for r in results):
        raise ValueError("replications disagree on the number of tolling intervals")
    return np.array([getattr(r, name) for r in results], dtype=float)


def objective_value(results: Sequence[SimulationResult], k_cr: float) -> float:
    """Replication average of the mean absolute gap between interval density and target."""
    return float(np.mean(_gap_per_rep(_replication_rows(results, "interval_density"), k_cr)))


def constraint_value(results: Sequence[SimulationResult]) -> float:
    """Replication average of the mean per-interval deviation from spread."""
    return float(np.mean(_deviation_per_rep(_replication_rows(results, "interval_deviation"))))


def check_smoothing(toll: TollVector, alpha: float, beta: float,
                    tol: float = SMOOTHING_TOL) -> bool:
    """Adjacent-interval rate changes must stay within alpha (distance) and beta (delay)."""
    return not (np.any(np.abs(np.diff(toll.distance_rates)) > alpha + tol)
                or np.any(np.abs(np.diff(toll.delay_rates)) > beta + tol))


@dataclass
class SampleRecord:
    """One evaluated design point with its replicated observations."""

    toll: TollVector
    objective_reps: np.ndarray
    constraint_reps: np.ndarray
    objective: float
    constraint: float
    origin: str = "initial"        # "initial" | "infill" | "direct"
    interval_density_reps: Optional[np.ndarray] = None    # (reps, m)
    interval_deviation_reps: Optional[np.ndarray] = None  # (reps, m)


@dataclass
class OptimizationRun:
    """Everything produced by one optimization: samples, incumbent, and history."""

    spec: ProblemSpec
    method: str
    master_seed: int
    rep_seeds: list[int]
    samples: list[SampleRecord]
    acquisition_history: list[float]
    best_index: int

    @property
    def evaluations(self) -> int:
        return len(self.samples)

    @property
    def best(self) -> SampleRecord:
        return self.samples[self.best_index]

    def best_so_far(self) -> np.ndarray:
        """Incumbent feasible objective after each evaluation (inf until one exists)."""
        best = math.inf
        out = np.empty(len(self.samples))
        for i, rec in enumerate(self.samples):
            if _is_feasible(rec, self.spec) and rec.objective < best:
                best = rec.objective
            out[i] = best
        return out


def _is_feasible(rec: SampleRecord, spec: ProblemSpec) -> bool:
    if not check_smoothing(rec.toll, spec.alpha, spec.beta):
        return False
    if not spec.bounds.contains(rec.toll.as_array(), atol=SMOOTHING_TOL):
        return False
    if spec.delta_max is not None and rec.constraint > spec.delta_max:
        return False
    return True


def _best_index(samples: Sequence[SampleRecord], spec: ProblemSpec) -> int:
    """Index of the best feasible sample, or of the best one while none is feasible."""
    feasible = [i for i, rec in enumerate(samples) if _is_feasible(rec, spec)]
    pool = feasible if feasible else range(len(samples))
    return min(pool, key=lambda i: samples[i].objective)


def replication_seeds(master_seed: int, replications: int) -> list[int]:
    """Common random numbers: every design point reuses this same seed list."""
    return [int(master_seed) * 1000 + r for r in range(replications)]


def evaluate_toll(spec: ProblemSpec, toll: TollVector, rep_seeds: Sequence[int],
                  origin: str = "initial") -> SampleRecord:
    return evaluate_tolls(spec, [toll], rep_seeds, origin)[0]


def evaluate_tolls(spec: ProblemSpec, tolls: Sequence[TollVector], rep_seeds: Sequence[int],
                   origin: str = "initial") -> list[SampleRecord]:
    """Evaluate design points with every replication of every point in one
    simulate_batch call (lanes point-major, seeds in ``rep_seeds`` order)."""
    n, reps = len(tolls), len(rep_seeds)
    batch = simulate_batch(spec.config, [toll for toll in tolls for _ in rep_seeds],
                           list(rep_seeds) * n)
    obj_reps = _gap_per_rep(batch.interval_density, spec.k_cr).reshape(n, reps)
    con_reps = _deviation_per_rep(batch.interval_deviation).reshape(n, reps)
    density = batch.interval_density.reshape(n, reps, -1)
    deviation = batch.interval_deviation.reshape(n, reps, -1)
    return [SampleRecord(
        toll=toll,
        objective_reps=obj_reps[i],
        constraint_reps=con_reps[i],
        objective=float(np.mean(obj_reps[i])),
        constraint=float(np.mean(con_reps[i])),
        origin=origin,
        interval_density_reps=density[i],
        interval_deviation_reps=deviation[i],
    ) for i, toll in enumerate(tolls)]


def optimize(spec: ProblemSpec, method: str = "rk", seed: int = 0) -> OptimizationRun:
    """Run one full optimization and return its evaluated history.

    ``method="rk"``: maximin-LHS initial plan (pre-repaired onto the
    smoothing-feasible set), then expected-improvement infill until the
    evaluation budget is spent.  ``method="direct"``: DIRECT over the toll
    box with smoothing (and heterogeneity, when set) constraints folded into
    a quadratic penalty; each DIRECT iteration's points are simulated in one
    batch, in DIRECT's sampling order, and the final iteration may overshoot
    the budget.

    The run shares each replication seed's untolled prefix, the steps
    before the tolling window, across all its simulator calls
    (:func:`simnet.shared_prefixes`); the prefixes are dropped when the
    call returns, so the next call simulates its own.
    """
    if method not in ("rk", "direct"):
        raise ValueError(f"unknown method {method!r}")
    rep_seeds = replication_seeds(seed, spec.replications)
    with shared_prefixes(spec.config):
        if method == "rk":
            samples, acquisition_history = _optimize_rk(spec, seed, rep_seeds)
        else:
            samples, acquisition_history = _optimize_direct(spec, rep_seeds), []
    return OptimizationRun(
        spec=spec, method=method, master_seed=int(seed), rep_seeds=rep_seeds,
        samples=samples, acquisition_history=acquisition_history,
        best_index=_best_index(samples, spec),
    )


def repaired_initial_plan(spec: ProblemSpec, rng: np.random.Generator) -> list[TollVector]:
    """The initial plan with every point repaired onto the smoothing-feasible set."""
    plan = np.array([toll.as_array() for toll in build_initial_plan(spec.m, spec.bounds, rng)])
    return [TollVector.from_array(x)
            for x in repair_smoothing(plan, spec.alpha, spec.beta, spec.bounds)]


def _optimize_rk(spec: ProblemSpec, seed: int,
                 rep_seeds: list[int]) -> tuple[list[SampleRecord], list[float]]:
    rng = np.random.default_rng(seed)
    samples = evaluate_tolls(spec, repaired_initial_plan(spec, rng), rep_seeds, origin="initial")

    acquisition_history: list[float] = []
    while len(samples) < spec.budget:
        pairs = [(rec.toll.as_array(), rec.objective) for rec in samples]
        obj_model = fit(pairs, spec.bounds, ga_params=spec.ga, rng=rng)
        con_model = None
        if spec.delta_max is not None:
            con_pairs = [(rec.toll.as_array(), rec.constraint) for rec in samples]
            con_model = fit(con_pairs, spec.bounds, ga_params=spec.ga, rng=rng)
        ctx = AcquisitionContext(
            obj_model=obj_model,
            bounds=spec.bounds,
            y_min=samples[_best_index(samples, spec)].objective,
            smoothing=(spec.alpha, spec.beta),
            con_model=con_model,
            delta_max=spec.delta_max,
        )
        toll, acq = propose_infill(ctx, ga_params=spec.ga, rng=rng)
        acquisition_history.append(acq)
        samples.append(evaluate_toll(spec, toll, rep_seeds, origin="infill"))

    return samples, acquisition_history


def _optimize_direct(spec: ProblemSpec, rep_seeds: list[int]) -> list[SampleRecord]:
    samples: list[SampleRecord] = []
    m = spec.m
    rho = None

    def penalized(X: np.ndarray) -> np.ndarray:
        """One DIRECT iteration's points, simulated as one batch and penalized."""
        nonlocal rho
        records = evaluate_tolls(spec, [TollVector.from_array(x) for x in X], rep_seeds,
                                 origin="direct")
        samples.extend(records)
        objective = np.array([rec.objective for rec in records])
        if rho is None:
            # penalty weight scaled to the objective magnitude over the first
            # ten points DIRECT samples: the center and the box's trisection
            rho = 1e3 * max(float(np.mean(np.abs(objective[:10]))), 1e-12)
        distance = np.abs(np.diff(X[:, :m], axis=1)) - spec.alpha
        delay = np.abs(np.diff(X[:, m:], axis=1)) - spec.beta
        excess = [row for h in range(m - 1) for row in (distance[:, h], delay[:, h])]
        if spec.delta_max is not None:
            excess.append(np.array([rec.constraint for rec in records]) - spec.delta_max)
        return direct_mod.quadratic_penalty(objective, excess, rho)

    direct_mod.direct_minimize(
        penalized, (spec.bounds.lower, spec.bounds.upper), max_evals=spec.budget)

    return samples


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


# ---------------------------------------------------------------------------
# run artifacts

def write_run_dir(run: OptimizationRun, outdir) -> None:
    """Write the run artifact files: samples, convergence, best point, and the
    per-evaluation interval tables.  Everything except timestamps is a pure
    function of (config, flags, master seed).  Files an earlier run left in
    ``outdir`` under these names are removed first, so a reused directory
    holds this run only."""
    evals_dir = os.path.join(outdir, "evals")
    os.makedirs(evals_dir, exist_ok=True)
    owned = [os.path.join(evals_dir, name) for name in os.listdir(evals_dir)
             if name.startswith("eval_") and name.endswith(".csv")]
    for stale in [*owned, os.path.join(outdir, "convergence.csv")]:
        if os.path.exists(stale):
            os.remove(stale)
    spec = run.spec
    m = spec.m
    reps = spec.replications

    header = (["index", "origin"]
              + [f"v_{h + 1}_per_km" for h in range(m)]
              + [f"w_{h + 1}_per_h" for h in range(m)]
              + [f"objective_rep{r}_vpkmpl" for r in range(reps)]
              + ["objective_mean_vpkmpl"]
              + [f"constraint_rep{r}_vpkmpl" for r in range(reps)]
              + ["constraint_mean_vpkmpl", "smoothing_feasible"])
    with open(os.path.join(outdir, "samples.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, rec in enumerate(run.samples):
            row = ([i, rec.origin]
                   + [repr(float(v)) for v in rec.toll.as_array()]
                   + [repr(float(v)) for v in rec.objective_reps]
                   + [repr(rec.objective)]
                   + [repr(float(v)) for v in rec.constraint_reps]
                   + [repr(rec.constraint),
                      int(bool(check_smoothing(rec.toll, spec.alpha, spec.beta)))])
            writer.writerow(row)

    if run.acquisition_history:
        best = run.best_so_far()
        n0 = len(run.samples) - len(run.acquisition_history)
        with open(os.path.join(outdir, "convergence.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "acquisition", "best_objective_vpkmpl"])
            for it, acq in enumerate(run.acquisition_history):
                writer.writerow([it, repr(acq), repr(float(best[n0 + it]))])

    for i, rec in enumerate(run.samples):
        with open(os.path.join(evals_dir, f"eval_{i:04d}.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rep", "interval", "K_vpkmpl", "Delta_vpkmpl"])
            if rec.interval_density_reps is None:
                continue
            for r in range(rec.interval_density_reps.shape[0]):
                for h in range(m):
                    writer.writerow([r, h,
                                     repr(float(rec.interval_density_reps[r, h])),
                                     repr(float(rec.interval_deviation_reps[r, h]))])

    best = run.best
    best_doc = {
        "index": run.best_index,
        "distance_rates": [repr(float(v)) for v in best.toll.distance_rates],
        "delay_rates": [repr(float(v)) for v in best.toll.delay_rates],
        "objective": repr(best.objective),
        "constraint": repr(best.constraint),
        "feasible": _is_feasible(best, spec),
        "method": run.method,
        "evaluations": run.evaluations,
    }
    with open(os.path.join(outdir, "best.json"), "w") as fh:
        json.dump(best_doc, fh, indent=2)


def load_samples_csv(path) -> list[SampleRecord]:
    """Rebuild sample records from a run's samples.csv (interval tables not reloaded)."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        m = sum(1 for c in header if c.startswith("v_"))
        reps = sum(1 for c in header if c.startswith("objective_rep"))
        for row in reader:
            toll = TollVector.from_array([float(x) for x in row[2:2 + 2 * m]])
            pos = 2 + 2 * m
            obj_reps = np.array([float(x) for x in row[pos:pos + reps]])
            obj_mean = float(row[pos + reps])
            pos += reps + 1
            con_reps = np.array([float(x) for x in row[pos:pos + reps]])
            con_mean = float(row[pos + reps])
            records.append(SampleRecord(
                toll=toll, objective_reps=obj_reps, constraint_reps=con_reps,
                objective=obj_mean, constraint=con_mean, origin=row[1]))
    return records
