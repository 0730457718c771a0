"""Command-line front end: simulate, optimize, validate, compare, envelope, doe.

Every command is reproducible from (config, flags, seed); run directories are
byte-identical across reruns except for the timestamp recorded in run.json.
Exit codes: 0 success, 1 runtime or numerical failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time

import numpy as np
import yaml

from . import __version__
from .doe import ANCHORS
from .simnet import (ConfigError, NetworkConfig, PRESETS, config_from_dict, config_to_dict,
                     fit_lower_envelope, keyed_error, simulate, simulate_batch)
from .surrogate import fit, loo_cv
from .tlp import (SMOOTHING_TOL, OptimizationRun, ProblemSpec, check_smoothing, is_feasible,
                  optimize, repaired_initial_plan)
from .toll import Bounds, TollVector

def _rate_pair(value) -> tuple[float, float]:
    pair = np.array(value, dtype=float)
    if pair.shape != (2,):
        raise ValueError("need [distance, delay]")
    return float(pair[0]), float(pair[1])


def _count(value) -> int:
    """A whole number as an int; a bool, a fraction or an infinity is refused, not truncated."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError("need a whole number")
    return int(value)


# problem key -> (default, conversion to the type the toll level problem takes)
_PROBLEM = {
    "tau_min": ([0.0, 0.0], _rate_pair),     # [distance currency/km, delay currency/h]
    "tau_max": ([1.0, 15.0], _rate_pair),
    "alpha": ((1.0 - 0.0) / 3.0, float),
    "beta": ((15.0 - 0.0) / 3.0, float),
    "replications": (2, _count),
    "budget": (60, _count),
    "delta_max": (None, lambda v: None if v is None else float(v)),
}
DEFAULT_PROBLEM = {key: default for key, (default, _) in _PROBLEM.items()}


class UsageError(Exception):
    pass


def load_scenario(config_arg: str) -> tuple[NetworkConfig, dict]:
    """Resolve a preset name or YAML path into (network config, problem params)."""
    problem = dict(DEFAULT_PROBLEM)
    if config_arg in PRESETS:
        return PRESETS[config_arg](), problem
    if not os.path.exists(config_arg):
        raise UsageError(f"config file not found: {config_arg}")
    with open(config_arg) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{config_arg}: not valid YAML ({exc})") from exc
    config = config_from_dict(doc)
    for key in doc:
        if key not in ("network", "problem"):
            raise ConfigError(f"{key}: unknown section")
    section = {} if doc.get("problem") is None else doc["problem"]
    if not isinstance(section, dict):
        raise ConfigError("problem: must be a mapping")
    for key, val in section.items():
        if key not in problem:
            raise ConfigError(f"problem.{key}: unknown key")
        problem[key] = val
    return config, problem


def resolve_problem(problem: dict, args) -> dict:
    """The problem that runs: the scenario's values with the ``args`` flag overrides
    applied.  Run records and ``--print-config`` are written from this dict."""
    resolved = dict(problem)
    for key in ("budget", "replications", "delta_max"):
        if getattr(args, key, None) is not None:
            resolved[key] = getattr(args, key)
    if getattr(args, "smoothing", None):
        try:
            resolved["alpha"], resolved["beta"] = (float(v) for v in args.smoothing.split(","))
        except ValueError as exc:
            raise UsageError(f"--smoothing takes 'alpha,beta' as two numbers, "
                             f"got {args.smoothing!r}") from exc
    return resolved


def convert_problem(problem: dict) -> dict:
    """Each problem value converted to the type the toll level problem takes;
    a value that is not usable is a ConfigError that names its key."""
    p = {}
    for key, (_, convert) in _PROBLEM.items():
        try:
            p[key] = convert(problem[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"problem.{key}: {problem[key]!r} is not usable ({exc})") from exc
    return p


def build_spec(config: NetworkConfig, problem: dict, args=None) -> ProblemSpec:
    """The toll level problem of a scenario, with the ``args`` flag overrides applied;
    a bad problem value is a ConfigError that names its key."""
    p = convert_problem(resolve_problem(problem, args))
    (v_min, w_min), (v_max, w_max) = p["tau_min"], p["tau_max"]
    try:
        bounds = Bounds.uniform(config.m, v_max, w_max, v_min, w_min)
        return ProblemSpec(config=config, bounds=bounds, alpha=p["alpha"], beta=p["beta"],
                           delta_max=p["delta_max"], replications=p["replications"],
                           budget=p["budget"])
    except ValueError as exc:
        # the box's lower and upper bounds are the tau_min and tau_max keys
        keys = {**{key: f"problem.{key}" for key in _PROBLEM},
                "lower": "problem.tau_min", "upper": "problem.tau_max"}
        raise keyed_error(exc, keys) from exc


def check_method(spec: ProblemSpec, method: str) -> None:
    """RK fits a kriging model, which needs two distinct points; a toll box with
    no free dimension has one, so it is refused before any simulation."""
    if method == "rk" and not np.any(spec.bounds.span > 0):
        raise ConfigError("problem.tau_max: equals problem.tau_min, so the toll box is one "
                          "point and RK has no model to fit; --method direct evaluates it")


def scenario_doc(config: NetworkConfig, problem: dict) -> dict:
    return {**config_to_dict(config), "problem": dict(problem)}


def config_digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def out_dir(args, default_name: str) -> str:
    """Create and return the command's output directory: ``--out``, or
    ``default_name`` under ``$TOLLOPT_OUT``.  Commands call it before they
    simulate, so an unusable ``--out`` fails before any work is done."""
    path = args.out or os.path.join(os.environ.get("TOLLOPT_OUT", "runs"), default_name)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {path}: cannot create the output directory ({exc})") from exc
    return path


def check_seeds(args) -> None:
    """Seeds seed numpy generators, which take no negative value, and a repeated
    ``--seeds`` entry would only rerun a comparison under the same label."""
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    seeds = getattr(args, "seeds", [])
    if any(seed < 0 for seed in seeds):
        raise UsageError(f"--seeds must be nonnegative, got {min(seeds)}")
    if len(set(seeds)) < len(seeds):
        raise UsageError(f"--seeds must not repeat a seed, got {' '.join(map(str, seeds))}")


def parse_toll(arg: str, m: int) -> TollVector:
    try:
        values = [float(x) for x in arg.split(",")]
    except ValueError as exc:
        raise UsageError(f"--toll takes comma-separated numbers ({exc})") from exc
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"--toll values must be finite, got {arg}")
    if len(values) != 2 * m:
        raise UsageError(f"--toll needs {2 * m} comma-separated values, got {len(values)}")
    return TollVector.from_array(values)


# ---------------------------------------------------------------------------
# run artifacts: every CSV and JSON file is written, and read back, here

def _num(value) -> str:
    """A float as an artifact writes it: its repr, which reads back bit for bit."""
    return repr(float(value))


def _write_csv(path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


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
    spec, samples, m, reps = run.spec, run.samples, run.spec.m, run.spec.replications
    x, objective, constraint = samples.x, samples.objective, samples.constraint

    header = (["index", "origin"]
              + [f"v_{h + 1}_per_km" for h in range(m)]
              + [f"w_{h + 1}_per_h" for h in range(m)]
              + [f"objective_rep{r}_vpkmpl" for r in range(reps)]
              + ["objective_mean_vpkmpl"]
              + [f"constraint_rep{r}_vpkmpl" for r in range(reps)]
              + ["constraint_mean_vpkmpl", "smoothing_feasible"])
    smooth = check_smoothing(x, spec.alpha, spec.beta)
    _write_csv(os.path.join(outdir, "samples.csv"), header,
               ([i, samples.origin[i], *map(_num, x[i]), *map(_num, samples.objective_reps[i]),
                 _num(objective[i]), *map(_num, samples.constraint_reps[i]),
                 _num(constraint[i]), int(smooth[i])] for i in range(len(samples))))

    if run.acquisition_history:
        best = run.best_so_far()
        n0 = len(samples) - len(run.acquisition_history)
        _write_csv(os.path.join(outdir, "convergence.csv"),
                   ["iteration", "acquisition", "best_objective_vpkmpl"],
                   ([it, _num(acq), _num(best[n0 + it])]
                    for it, acq in enumerate(run.acquisition_history)))

    for i in range(len(samples)):
        density, deviation = samples.interval_density_reps[i], samples.interval_deviation_reps[i]
        _write_csv(os.path.join(evals_dir, f"eval_{i:04d}.csv"),
                   ["rep", "interval", "K_vpkmpl", "Delta_vpkmpl"],
                   ([r, h, _num(density[r, h]), _num(deviation[r, h])]
                    for r, h in np.ndindex(density.shape)))

    b = run.best_index
    _write_json(os.path.join(outdir, "best.json"), {
        "index": b,
        "distance_rates": [_num(v) for v in x[b, :m]],
        "delay_rates": [_num(v) for v in x[b, m:]],
        "objective": _num(objective[b]),
        "constraint": _num(constraint[b]),
        "feasible": bool(is_feasible(samples, spec)[b]),
        "method": run.method,
        "evaluations": run.evaluations,
    })


def load_samples_csv(path, bounds: Bounds) -> tuple[np.ndarray, np.ndarray]:
    """What ``validate`` fits from a run's samples.csv, the ``(n, d)`` toll rows and the ``(n,)``
    objective_mean_vpkmpl column; damage or a row outside ``bounds`` is a UsageError naming the
    row (the header is row 1)."""
    d = bounds.d
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh)) or [[]]
    cols = [i for i, name in enumerate(header) if name.startswith(("v_", "w_"))]
    if len(cols) != d or "objective_mean_vpkmpl" not in header:
        raise UsageError(f"samples.csv: row 1: need {d} toll columns and objective_mean_vpkmpl")
    cols.append(header.index("objective_mean_vpkmpl"))
    table = np.empty((len(rows), d + 1))
    for n, row in enumerate(rows):
        if len(row) != len(header):
            raise UsageError(f"samples.csv: row {n + 2}: {len(row)} of {len(header)} values")
        try:
            table[n] = [float(row[c]) for c in cols]
        except ValueError as exc:
            raise UsageError(f"samples.csv: row {n + 2}: {exc}") from exc
        if not np.isfinite(table[n]).all():
            raise UsageError(f"samples.csv: row {n + 2}: a toll or the objective is not finite")
        if not bounds.contains(table[n, :d], atol=SMOOTHING_TOL):
            raise UsageError(f"samples.csv: row {n + 2}: a toll lies outside config.yaml's box")
    return table[:, :d], table[:, d]


def save_plan_csv(plan: np.ndarray, path) -> None:
    """Write the ``(n, 2m)`` plan, one design point per row, with header ``v_1..v_m,w_1..w_m``."""
    m = plan.shape[1] // 2
    _write_csv(path, [f"v_{h + 1}" for h in range(m)] + [f"w_{h + 1}" for h in range(m)],
               ([_num(v) for v in row] for row in plan))


def write_manifest(path: str, doc_cfg: dict, args_dict: dict, method: str, seed: int,
                   extra: dict | None = None) -> None:
    _write_json(path, {
        "tool_version": __version__,
        "config_digest": config_digest(doc_cfg),
        "master_seed": seed,
        "method": method,
        "flags": args_dict,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        **(extra or {}),
    })


# ---------------------------------------------------------------------------
# commands: main hands a scenario command its resolved scenario, spec None if it solves none

def cmd_simulate(args, config: NetworkConfig, problem: dict, spec: None) -> int:
    m = config.m
    toll = TollVector.zero(m) if args.toll is None else parse_toll(args.toll, m)
    outdir = out_dir(args, f"simulate-seed{args.seed}")
    result = simulate(config, toll, args.seed)

    table = np.column_stack([result.t, result.network_density, result.gamma, result.deviation,
                             result.flow, result.speed, result.queue, result.k_cells])
    _write_csv(os.path.join(outdir, "timeseries.csv"),
               ["t_s", "K_vpkmpl", "gamma_vpkmpl", "Delta_vpkmpl", "flow_vph_per_lane",
                "speed_kmh", "queue_veh"] + [f"k_{i + 1}_vpkmpl" for i in range(config.n_cells)],
               ([_num(v) for v in row] for row in table))
    _write_json(os.path.join(outdir, "summary.json"), {
        "interval_density_vpkmpl": [_num(v) for v in result.interval_density],
        "interval_deviation_vpkmpl": [_num(v) for v in result.interval_deviation],
        "pz_avg_travel_time_min_per_km": _num(result.pz_avg_travel_time),
        "net_avg_travel_time_min_per_km": _num(result.net_avg_travel_time),
        "toll_revenue": _num(result.toll_revenue),
        "seed": result.seed,
    })
    write_manifest(os.path.join(outdir, "run.json"), scenario_doc(config, problem),
                   {"toll": args.toll, "seed": args.seed}, "simulate", args.seed)

    print(f"{'interval':>8} {'K_mean_vpkmpl':>14} {'Delta_mean_vpkmpl':>18}")
    for h in range(m):
        print(f"{h + 1:>8} {result.interval_density[h]:>14.3f} {result.interval_deviation[h]:>18.3f}")
    print(f"zone travel time: {result.pz_avg_travel_time:.3f} min/km | "
          f"network: {result.net_avg_travel_time:.3f} min/km | "
          f"revenue: {result.toll_revenue:.1f}")
    print(f"artifacts: {outdir}")
    return 0


def cmd_optimize(args, config: NetworkConfig, problem: dict, spec: ProblemSpec) -> int:
    outdir = out_dir(args, f"optimize-{args.method}-seed{args.seed}")
    run = optimize(spec, method=args.method, seed=args.seed)
    write_run_dir(run, outdir)
    doc = scenario_doc(config, problem)
    with open(os.path.join(outdir, "config.yaml"), "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
    write_manifest(os.path.join(outdir, "run.json"), doc,
                   {"method": args.method, "budget": problem["budget"],
                    "delta_max": problem["delta_max"], "replications": problem["replications"],
                    "smoothing": [problem["alpha"], problem["beta"]]},
                   args.method, args.seed,
                   extra={"mode": "constrained" if spec.delta_max is not None else "single-objective",
                          "evaluations": run.evaluations,
                          "rep_seeds": run.rep_seeds})

    x, objective, constraint = run.samples.x, run.samples.objective, run.samples.constraint
    b, m = run.best_index, spec.m
    plan = f" (initial plan {spec.initial_plan_size})" if run.method == "rk" else ""
    print(f"method={run.method} evaluations={run.evaluations}{plan}")
    print(f"best objective: {objective[b]:.4f} vpkmpl | constraint: {constraint[b]:.4f} vpkmpl")
    print(f"{'interval':>8} {'distance_rate_per_km':>21} {'delay_rate_per_h':>17}")
    for h in range(m):
        print(f"{h + 1:>8} {x[b, h]:>21.4f} {x[b, m + h]:>17.4f}")
    if spec.delta_max is None:
        lowest = np.flatnonzero(np.all(np.isclose(x, spec.bounds.lower), axis=1))
        if lowest.size:
            # bracketing guidance for a follow-up constrained run: pick the
            # heterogeneity limit between these two observed values
            print(f"heterogeneity guidance: lowest-toll (tau_min) constraint "
                  f"{constraint[lowest[0]]:.3f}, optimum constraint {constraint[b]:.3f}; "
                  f"choose --delta-max between them")
    print(f"artifacts: {outdir}")
    return 0


def cmd_validate(args) -> int:
    samples_path = os.path.join(args.run_dir, "samples.csv")
    config_path = os.path.join(args.run_dir, "config.yaml")
    if not os.path.exists(samples_path) or not os.path.exists(config_path):
        raise UsageError(f"not a run directory (missing samples.csv/config.yaml): {args.run_dir}")
    spec = build_spec(*load_scenario(config_path))
    x, objective = load_samples_csv(samples_path, spec.bounds)
    if len(x) < 3:
        raise UsageError("samples.csv: insufficient samples: cross-validation needs at least 3")
    model = fit(x, objective, spec.bounds, rng=np.random.default_rng(args.seed))
    cv = loo_cv(model)
    usable = [r for r in cv if not r.degenerate]
    inside = [r for r in usable if abs(r.standardized_residual) <= 3.0]
    outliers = [r for r in usable if abs(r.standardized_residual) > 3.0]
    print(f"cross-validation: {len(inside)}/{len(usable)} standardized residuals within [-3, 3]"
          + (f" ({len(cv) - len(usable)} degenerate folds)" if len(usable) < len(cv) else ""))
    if outliers:
        print("outliers:")
        for r in sorted(outliers, key=lambda r: -abs(r.standardized_residual)):
            print(f"  sample {r.index}: residual {r.standardized_residual:+.2f} "
                  f"toll [{', '.join(f'{v:.3f}' for v in x[r.index])}]")
    else:
        print("outliers: none")
    return 0


def cmd_compare(args, config: NetworkConfig, problem: dict, spec: ProblemSpec) -> int:
    outdir = out_dir(args, "compare")
    curves: list[tuple[str, OptimizationRun]] = []
    # DIRECT's rectangles do not depend on the seed, but each seed has its
    # own common-random-number replications
    for method in ("rk", "direct"):
        for seed in args.seeds:
            curves.append((f"{method}-seed{seed}", optimize(spec, method=method, seed=seed)))

    _write_csv(os.path.join(outdir, "comparison.csv"),
               ["method", "run", "evals", "best_objective_vpkmpl"],
               ([run.method, label, i + 1, _num(val)] for label, run in curves
                for i, val in enumerate(run.best_so_far()) if np.isfinite(val)))
    write_manifest(os.path.join(outdir, "run.json"), scenario_doc(config, problem),
                   {"budget": problem["budget"], "replications": problem["replications"],
                    "seeds": list(args.seeds)},
                   "compare", args.seeds[0])
    for label, run in curves:
        best = run.samples.objective[run.best_index]
        print(f"{label:>16}: best {best:.4f} after {run.evaluations} evaluations")
    print(f"artifacts: {outdir}")
    return 0


def cmd_envelope(args, config: NetworkConfig, problem: dict, spec: None) -> int:
    if args.runs < 1:
        raise UsageError(f"--runs must be at least 1, got {args.runs}")
    outdir = out_dir(args, "envelope")
    batch = simulate_batch(config, np.zeros((args.runs, 2 * config.m)),
                           [args.seed + i for i in range(args.runs)])
    pairs = [pair for k, gamma in zip(batch.network_density, batch.gamma)
             for pair in zip(k, gamma)]
    a, b, c = fit_lower_envelope(pairs)
    fragment = {"network": {"control": {"envelope_abc": [a, b, c]}}}
    with open(os.path.join(outdir, "envelope.yaml"), "w") as fh:
        yaml.safe_dump(fragment, fh, sort_keys=False)
    print(f"fitted lower envelope over {args.runs} zero-toll runs "
          f"({len(pairs)} (K, gamma) samples):")
    print(f"  a = {a!r}\n  b = {b!r}\n  c = {c!r}")
    print(f"fragment written to {os.path.join(outdir, 'envelope.yaml')}")
    return 0


def cmd_doe(args, config: NetworkConfig, problem: dict, spec: ProblemSpec) -> int:
    plan = repaired_initial_plan(spec, np.random.default_rng(args.seed))
    path = args.out or "plan.csv"
    try:
        save_plan_csv(plan, path)
    except OSError as exc:
        raise UsageError(f"--out {path}: cannot write the plan CSV ({exc})") from exc
    print(f"{len(plan)} design points ({len(plan) - ANCHORS} space-filling + {ANCHORS} anchors)"
          f" -> {path}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tollopt",
        description="Surrogate-based toll optimization on a synthetic reservoir simulator.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # main resolves a scenario command's scenario by its defaults: ``solves`` builds
    # the ProblemSpec, and check_method checks the toll box for ``method``

    def add_common(p, out_help="output directory (default $TOLLOPT_OUT/<name>)"):
        p.add_argument("config", help="scenario YAML path or preset name (desk, paper)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help=out_help)
        p.add_argument("--print-config", action="store_true",
                       help="dump the scenario YAML the command would run and exit")

    p = sub.add_parser("simulate", help="run one seeded simulation")
    add_common(p)
    p.add_argument("--toll", help="comma list v_1..v_m,w_1..w_m (default: zero toll)")
    p.set_defaults(func=cmd_simulate, solves=False)

    p = sub.add_parser("optimize", help="solve a toll level problem")
    add_common(p)
    p.add_argument("--method", choices=["rk", "direct"], default="rk")
    p.add_argument("--budget", type=int)
    p.add_argument("--delta-max", type=float, dest="delta_max")
    p.add_argument("--replications", type=int)
    p.add_argument("--smoothing",
                   help="override the adjacent-interval limits as 'alpha,beta' "
                        "(sensitivity scenarios: 0.2,3  0.3333,5  0.5,7.5)")
    p.set_defaults(func=cmd_optimize, solves=True)

    p = sub.add_parser("validate", help="cross-validate the surrogate on a finished run")
    p.add_argument("run_dir")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compare", help="incumbent-vs-evaluations curves for both methods")
    add_common(p)
    p.add_argument("--budget", type=int)
    p.add_argument("--replications", type=int)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p.set_defaults(func=cmd_compare, solves=True, method="rk")

    p = sub.add_parser("envelope", help="fit the spread-accumulation lower envelope")
    add_common(p)
    p.add_argument("--runs", type=int, default=10)
    p.set_defaults(func=cmd_envelope, solves=False)

    p = sub.add_parser("doe", help="export an initial design plan as CSV")
    add_common(p, out_help="output CSV file (default ./plan.csv)")
    p.set_defaults(func=cmd_doe, solves=True, method=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_seeds(args)
        if "solves" not in args:   # validate reads the scenario of its run directory
            return args.func(args)
        # the one resolution of a scenario command, before any output or simulation
        config, problem = load_scenario(args.config)
        problem = resolve_problem(problem, args)
        spec = None
        if args.solves:
            spec = build_spec(config, problem)
            check_method(spec, args.method)
        else:   # every problem value is checked, though only a solver needs the spec
            convert_problem(problem)
        if args.print_config:
            yaml.safe_dump(scenario_doc(config, problem), sys.stdout, sort_keys=False)
            sys.stdout.flush()
            return 0
        return args.func(args, config, problem, spec)
    except BrokenPipeError:
        # the reader stopped early (as in ``--print-config | head``): point stdout
        # at devnull so the interpreter's flush at exit cannot fail on the pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (UsageError, ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
