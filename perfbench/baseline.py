#!/usr/bin/env python3
"""Measure the spread of every metric over several seeds and record a baseline.

    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        --commit <sha> --out perfbench/baseline.json

For each workload this runs ``run.py --trace 0`` once per seed, one after
another, then ``run.py --trace 1`` on the first seed.  It prints, for each
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median,
flags a spread above a third of the metric's bound in BENCHMARK.json, and
writes every value with the machine description to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(next(ln for ln in lines if ln.startswith("machine: "))[9:])
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} not correct:\n{proc.stderr}")
    return machine, result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--commit", default="unknown")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"commit": args.commit, "seeds": args.seeds, "run_seconds": bench["run_seconds"],
           "machine": None, "workloads": {}}
    for workload in args.workloads or [w["name"] for w in bench["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            machine, result = run_once(workload, seed, bench["run_seconds"], 0)
            doc["machine"] = doc["machine"] or machine
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        _, traced = run_once(workload, args.seeds[0], bench["run_seconds"], 1)
        end_to_end = {name: summarize(v) for name, v in values.items()}
        doc["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()}}
        for name, s in end_to_end.items():
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else "  WIDE"
            print(f"{workload:<22} {name:<16} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}", flush=True)
    doc["machine"]["loadavg_end"] = list(os.getloadavg())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
