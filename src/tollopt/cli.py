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
import os
import sys
import time

import numpy as np
import yaml

from . import __version__
from .doe import save_plan_csv
from .simnet import (ConfigError, NetworkConfig, PRESETS, config_from_dict,
                     config_to_dict, fit_lower_envelope, simulate, simulate_batch)
from .surrogate import fit, loo_cv
from .tlp import (OptimizationRun, ProblemSpec, load_samples_csv, optimize,
                  repaired_initial_plan, write_run_dir)
from .toll import Bounds, TollVector

DEFAULT_PROBLEM = {
    "tau_min": [0.0, 0.0],       # [distance currency/km, delay currency/h]
    "tau_max": [1.0, 15.0],
    "alpha": (1.0 - 0.0) / 3.0,
    "beta": (15.0 - 0.0) / 3.0,
    "replications": 2,
    "budget": 60,
    "delta_max": None,
}


def _rate_pair(value) -> tuple[float, float]:
    distance, delay = (float(v) for v in value)
    return distance, delay


# problem key -> conversion to the type the toll level problem takes
_PROBLEM_TYPES = {
    "tau_min": _rate_pair,
    "tau_max": _rate_pair,
    "alpha": float,
    "beta": float,
    "replications": int,
    "budget": int,
    "delta_max": lambda v: None if v is None else float(v),
}


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
        doc = yaml.safe_load(fh)
    config = config_from_dict(doc)
    for key, val in (doc.get("problem") or {}).items():
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
        parts = args.smoothing.split(",")
        if len(parts) != 2:
            raise UsageError("--smoothing takes 'alpha,beta'")
        resolved["alpha"], resolved["beta"] = float(parts[0]), float(parts[1])
    return resolved


def resolve_scenario(args) -> tuple[NetworkConfig, dict]:
    """Scenario argument and flags -> network config and resolved problem dict."""
    config, problem = load_scenario(args.config)
    return config, resolve_problem(problem, args)


def build_spec(config: NetworkConfig, problem: dict, args=None) -> ProblemSpec:
    """The toll level problem of a scenario, with the ``args`` flag overrides applied.

    The one place problem values are converted; a bad one is a ConfigError
    that names its key."""
    resolved = resolve_problem(problem, args)
    p = {}
    for key, convert in _PROBLEM_TYPES.items():
        try:
            p[key] = convert(resolved[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"problem.{key}: {resolved[key]!r} is not usable ({exc})") from exc
    (v_min, w_min), (v_max, w_max) = p["tau_min"], p["tau_max"]
    bounds = Bounds.uniform(config.m, v_max, w_max, v_min, w_min)
    return ProblemSpec(config=config, bounds=bounds, alpha=p["alpha"], beta=p["beta"],
                       delta_max=p["delta_max"], replications=p["replications"],
                       budget=p["budget"])


def scenario_doc(config: NetworkConfig, problem: dict) -> dict:
    doc = config_to_dict(config)
    doc["problem"] = {k: v for k, v in problem.items()}
    return doc


def config_digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def out_dir(args, default_name: str) -> str:
    if getattr(args, "out", None):
        return args.out
    root = os.environ.get("TOLLOPT_OUT", "runs")
    return os.path.join(root, default_name)


def maybe_print_config(args, config: NetworkConfig, problem: dict) -> bool:
    if getattr(args, "print_config", False):
        yaml.safe_dump(scenario_doc(config, problem), sys.stdout, sort_keys=False)
        return True
    return False


def parse_toll(arg: str, m: int) -> TollVector:
    values = [float(x) for x in arg.split(",")]
    if len(values) != 2 * m:
        raise UsageError(f"--toll needs {2 * m} comma-separated values, got {len(values)}")
    return TollVector.from_array(values)


def write_manifest(path: str, doc_cfg: dict, args_dict: dict, method: str, seed: int,
                   extra: dict | None = None) -> None:
    manifest = {
        "tool_version": __version__,
        "config_digest": config_digest(doc_cfg),
        "master_seed": seed,
        "method": method,
        "flags": args_dict,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if extra:
        manifest.update(extra)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(args) -> int:
    config, problem = resolve_scenario(args)
    if maybe_print_config(args, config, problem):
        return 0
    m = config.m
    toll = TollVector.zero(m) if args.toll is None else parse_toll(args.toll, m)
    result = simulate(config, toll, args.seed)
    outdir = out_dir(args, f"simulate-seed{args.seed}")
    os.makedirs(outdir, exist_ok=True)

    with open(os.path.join(outdir, "timeseries.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "K_vpkmpl", "gamma_vpkmpl", "Delta_vpkmpl",
                         "flow_vph_per_lane", "speed_kmh", "queue_veh"]
                        + [f"k_{i + 1}_vpkmpl" for i in range(config.n_cells)])
        for i in range(result.t.size):
            writer.writerow([repr(float(result.t[i])), repr(float(result.network_density[i])),
                             repr(float(result.gamma[i])), repr(float(result.deviation[i])),
                             repr(float(result.flow[i])), repr(float(result.speed[i])),
                             repr(float(result.queue[i]))]
                            + [repr(float(v)) for v in result.k_cells[i]])
    summary = {
        "interval_density_vpkmpl": [repr(float(v)) for v in result.interval_density],
        "interval_deviation_vpkmpl": [repr(float(v)) for v in result.interval_deviation],
        "pz_avg_travel_time_min_per_km": repr(result.pz_avg_travel_time),
        "net_avg_travel_time_min_per_km": repr(result.net_avg_travel_time),
        "toll_revenue": repr(result.toll_revenue),
        "seed": result.seed,
    }
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
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


def cmd_optimize(args) -> int:
    config, problem = resolve_scenario(args)
    if maybe_print_config(args, config, problem):
        return 0
    spec = build_spec(config, problem)
    run = optimize(spec, method=args.method, seed=args.seed)
    outdir = out_dir(args, f"optimize-{args.method}-seed{args.seed}")
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

    best = run.best
    print(f"method={run.method} evaluations={run.evaluations} "
          f"(initial plan {spec.initial_plan_size})")
    print(f"best objective: {best.objective:.4f} vpkmpl | constraint: {best.constraint:.4f} vpkmpl")
    print(f"{'interval':>8} {'distance_rate_per_km':>21} {'delay_rate_per_h':>17}")
    for h in range(spec.m):
        v, w = best.toll.rates_for_interval(h)
        print(f"{h + 1:>8} {v:>21.4f} {w:>17.4f}")
    if spec.delta_max is None:
        zero = [r for r in run.samples if np.allclose(r.toll.as_array(), spec.bounds.lower)]
        if zero:
            # bracketing guidance for a follow-up constrained run: pick the
            # heterogeneity limit between these two observed values
            print(f"heterogeneity guidance: zero-toll constraint {zero[0].constraint:.3f}, "
                  f"optimum constraint {best.constraint:.3f}; "
                  f"choose --delta-max between them")
    print(f"artifacts: {outdir}")
    return 0


def cmd_validate(args) -> int:
    samples_path = os.path.join(args.run_dir, "samples.csv")
    config_path = os.path.join(args.run_dir, "config.yaml")
    if not os.path.exists(samples_path) or not os.path.exists(config_path):
        raise UsageError(f"not a run directory (missing samples.csv/config.yaml): {args.run_dir}")
    spec = build_spec(*load_scenario(config_path))
    records = load_samples_csv(samples_path)
    if len(records) < 3:
        raise UsageError("insufficient samples: cross-validation needs at least 3")
    pairs = [(rec.toll, rec.objective) for rec in records]
    model = fit(pairs, spec.bounds, rng=np.random.default_rng(args.seed))
    cv = loo_cv(model)
    usable = [r for r in cv if not r.degenerate]
    inside = [r for r in usable if abs(r.standardized_residual) <= 3.0]
    outliers = [r for r in usable if abs(r.standardized_residual) > 3.0]
    print(f"cross-validation: {len(inside)}/{len(usable)} standardized residuals within [-3, 3]"
          + (f" ({len(cv) - len(usable)} degenerate folds)" if len(usable) < len(cv) else ""))
    if outliers:
        print("outliers:")
        for r in sorted(outliers, key=lambda r: -abs(r.standardized_residual)):
            toll = records[r.index].toll.as_array()
            print(f"  sample {r.index}: residual {r.standardized_residual:+.2f} "
                  f"toll [{', '.join(f'{v:.3f}' for v in toll)}]")
    else:
        print("outliers: none")
    return 0


def cmd_compare(args) -> int:
    config, problem = resolve_scenario(args)
    if maybe_print_config(args, config, problem):
        return 0
    spec = build_spec(config, problem)
    outdir = out_dir(args, "compare")
    os.makedirs(outdir, exist_ok=True)
    curves: list[tuple[str, OptimizationRun]] = []
    for seed in args.seeds:
        curves.append((f"rk-seed{seed}", optimize(spec, method="rk", seed=seed)))
    curves.append((f"direct-seed{args.seeds[0]}", optimize(spec, method="direct", seed=args.seeds[0])))

    with open(os.path.join(outdir, "comparison.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "run", "evals", "best_objective_vpkmpl"])
        for label, run in curves:
            method = label.split("-")[0]
            for i, val in enumerate(run.best_so_far()):
                if np.isfinite(val):
                    writer.writerow([method, label, i + 1, repr(float(val))])
    write_manifest(os.path.join(outdir, "run.json"), scenario_doc(config, problem),
                   {"budget": problem["budget"], "replications": problem["replications"],
                    "seeds": list(args.seeds)},
                   "compare", args.seeds[0])
    for label, run in curves:
        print(f"{label:>16}: best {run.best.objective:.4f} after {run.evaluations} evaluations")
    print(f"artifacts: {outdir}")
    return 0


def cmd_envelope(args) -> int:
    config, problem = resolve_scenario(args)
    if maybe_print_config(args, config, problem):
        return 0
    batch = simulate_batch(config, [TollVector.zero(config.m)] * args.runs,
                           [args.seed + i for i in range(args.runs)])
    pairs = [pair for k, gamma in zip(batch.network_density, batch.gamma)
             for pair in zip(k, gamma)]
    a, b, c = fit_lower_envelope(pairs)
    outdir = out_dir(args, "envelope")
    os.makedirs(outdir, exist_ok=True)
    fragment = {"network": {"control": {"envelope_abc": [a, b, c]}}}
    with open(os.path.join(outdir, "envelope.yaml"), "w") as fh:
        yaml.safe_dump(fragment, fh, sort_keys=False)
    print(f"fitted lower envelope over {args.runs} zero-toll runs "
          f"({len(pairs)} (K, gamma) samples):")
    print(f"  a = {a!r}\n  b = {b!r}\n  c = {c!r}")
    print(f"fragment written to {os.path.join(outdir, 'envelope.yaml')}")
    return 0


def cmd_doe(args) -> int:
    config, problem = resolve_scenario(args)
    if maybe_print_config(args, config, problem):
        return 0
    spec = build_spec(config, problem)
    plan = repaired_initial_plan(spec, np.random.default_rng(args.seed))
    path = args.out or "plan.csv"
    save_plan_csv(plan, path)
    print(f"{len(plan)} design points ({len(plan) - 3} space-filling + 3 anchors) -> {path}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tollopt",
        description="Surrogate-based toll optimization on a synthetic reservoir simulator.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="scenario YAML path or preset name (desk, paper)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output directory (default $TOLLOPT_OUT/<name>)")
        p.add_argument("--print-config", action="store_true",
                       help="dump the resolved scenario YAML and exit")

    p = sub.add_parser("simulate", help="run one seeded simulation")
    add_common(p)
    p.add_argument("--toll", help="comma list v_1..v_m,w_1..w_m (default: zero toll)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="solve a toll level problem")
    add_common(p)
    p.add_argument("--method", choices=["rk", "direct"], default="rk")
    p.add_argument("--budget", type=int)
    p.add_argument("--delta-max", type=float, dest="delta_max")
    p.add_argument("--replications", type=int)
    p.add_argument("--smoothing",
                   help="override the adjacent-interval limits as 'alpha,beta' "
                        "(sensitivity scenarios: 0.2,3  0.3333,5  0.5,7.5)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("validate", help="cross-validate the surrogate on a finished run")
    p.add_argument("run_dir")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compare", help="incumbent-vs-evaluations curves for both methods")
    add_common(p)
    p.add_argument("--budget", type=int)
    p.add_argument("--replications", type=int)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("envelope", help="fit the spread-accumulation lower envelope")
    add_common(p)
    p.add_argument("--runs", type=int, default=10)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("doe", help="export an initial design plan as CSV")
    add_common(p)
    p.set_defaults(func=cmd_doe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
