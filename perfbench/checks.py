"""Output check of one finished ``tollopt optimize`` run directory.

:func:`check_run_dir` returns a list of problems; an empty list means the
run's artifacts are what the method promises.  The re-simulation of the
best toll happens here, outside any timed region.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
import yaml

SMOOTHING_TOL = 1e-9


def _read_samples(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_run_dir(run_dir: str, method: str, budget: int,
                  delta_max: float | None = None) -> list[str]:
    """Check finiteness, evaluation count, feasibility and reproducibility."""
    from tollopt.simnet import config_from_dict, simulate
    from tollopt.tlp import constraint_value, objective_value
    from tollopt.toll import TollVector

    problems = []
    header, rows = _read_samples(os.path.join(run_dir, "samples.csv"))
    with open(os.path.join(run_dir, "best.json")) as fh:
        best = json.load(fh)
    with open(os.path.join(run_dir, "run.json")) as fh:
        manifest = json.load(fh)
    with open(os.path.join(run_dir, "config.yaml")) as fh:
        doc = yaml.safe_load(fh)

    numeric = [row[2:-1] for row in rows]   # all but index, origin, feasibility flag
    bad = [(i, v) for i, row in enumerate(numeric) for v in row
           if not math.isfinite(float(v))]
    if bad:
        problems.append(f"samples.csv has {len(bad)} non-finite values, first in row {bad[0][0]}")

    evals = len(rows)
    if method == "rk" and evals != budget:
        problems.append(f"rk run evaluated {evals} points, budget is {budget}")
    if best["evaluations"] != evals or manifest["evaluations"] != evals:
        problems.append(f"evaluation counts disagree: samples.csv {evals}, "
                        f"best.json {best['evaluations']}, run.json {manifest['evaluations']}")

    m = sum(1 for c in header if c.startswith("v_"))
    alpha, beta = float(doc["problem"]["alpha"]), float(doc["problem"]["beta"])
    if method == "rk":
        for i, row in enumerate(rows):
            toll = np.array([float(v) for v in row[2:2 + 2 * m]])
            steps_ok = (np.all(np.abs(np.diff(toll[:m])) <= alpha + SMOOTHING_TOL)
                        and np.all(np.abs(np.diff(toll[m:])) <= beta + SMOOTHING_TOL))
            if row[-1] != "1" or not steps_ok:
                problems.append(f"rk sample {i} is not smoothing-feasible")
                break

    if best["feasible"] is not True:
        problems.append("best.json is not feasible")
    if delta_max is not None and not float(best["constraint"]) <= delta_max:
        problems.append(f"best constraint {best['constraint']} exceeds delta_max {delta_max}")

    config = config_from_dict(doc)
    toll = TollVector.from_array([float(v) for v in best["distance_rates"] + best["delay_rates"]])
    results = [simulate(config, toll, seed) for seed in manifest["rep_seeds"]]
    objective = float(np.mean([objective_value([r], config.k_cr) for r in results]))
    constraint = float(np.mean([constraint_value([r]) for r in results]))
    if repr(objective) != best["objective"] or repr(constraint) != best["constraint"]:
        problems.append(f"re-simulated best gives objective {objective!r}, constraint "
                        f"{constraint!r}; best.json records {best['objective']}, "
                        f"{best['constraint']}")
    return problems
