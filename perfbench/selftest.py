#!/usr/bin/env python3
"""Self-test of the benchmark harness in quick mode (about two minutes).

    python3 perfbench/selftest.py

1. ``run.py --workload all --quick --seconds 1`` must succeed and print
   every metric that BENCHMARK.json names, for every workload, with its
   unit.
2. The output check must pass a real run directory and reject one whose
   best.json objective was altered or whose samples.csv holds a non-finite
   cell.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

failures: list[str] = []


def expect(cond: bool, message: str) -> None:
    if not cond:
        failures.append(message)
        print(f"FAIL: {message}")


def check_metrics_printed() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
                           "--quick", "--seconds", "1"],
                          capture_output=True, text=True, timeout=900, cwd=ROOT)
    expect(proc.returncode == 0, f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    if proc.returncode != 0:
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(result["correct"] is True and result["failed"] == 0,
           f"quick run not correct: {proc.stderr[-2000:]}")
    printed = {}
    for line in lines[:-1]:
        match = re.match(r"\s+(\S+)\s+\S+\s+(\S+)$", line)
        if match:
            printed[match.group(1)] = match.group(2)
    import run
    for wl in run.WORKLOADS:
        for metric in bench["end_to_end"] + bench["per_layer"]:
            key = f"{wl}.{metric['name']}"
            expect(printed.get(key) == metric["unit"],
                   f"{key} printed with unit {printed.get(key)!r}, want {metric['unit']!r}")


def check_output_check() -> None:
    import run
    sys.path.insert(0, run.SRC)
    import checks

    wl = run.WORKLOADS["rk-desk"]
    tmp = tempfile.mkdtemp(prefix=".perfbench_selftest-", dir=ROOT)
    try:
        good = os.path.join(tmp, "good")
        res = run.optimize_call(wl, 11, good, quick=True)
        expect(res.problems == [], f"untouched run rejected: {res.problems}")

        def tampered(name: str, edit) -> list[str]:
            bad = os.path.join(tmp, name)
            shutil.copytree(good, bad)
            edit(bad)
            return checks.check_run_dir(bad, wl.method, wl.quick_budget, wl.delta_max)

        def bump_objective(path: str) -> None:
            best_path = os.path.join(path, "best.json")
            with open(best_path) as fh:
                best = json.load(fh)
            best["objective"] = repr(float(best["objective"]) * (1.0 + 1e-12))
            with open(best_path, "w") as fh:
                json.dump(best, fh)

        def nan_cell(path: str) -> None:
            samples = os.path.join(path, "samples.csv")
            with open(samples) as fh:
                lines = fh.read().splitlines()
            cells = lines[3].split(",")
            cells[-2] = "nan"
            lines[3] = ",".join(cells)
            with open(samples, "w") as fh:
                fh.write("\n".join(lines) + "\n")

        expect(any("re-simulated best" in p for p in tampered("objective", bump_objective)),
               "a tampered best.json objective passed the output check")
        expect(any("non-finite" in p for p in tampered("nan", nan_cell)),
               "a non-finite samples.csv cell passed the output check")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, HERE)
    check_output_check()
    check_metrics_printed()
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
