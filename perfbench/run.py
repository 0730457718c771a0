#!/usr/bin/env python3
"""tollopt benchmark: one `tollopt optimize` call, end to end and layer by layer.

    python3 perfbench/run.py --workload rk-paper-constrained --seed 11 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --quick     # every workload, both modes

Workloads (closed loop, one optimize call at a time, in this process):

* ``rk-paper-constrained``  optimize paper --method rk --delta-max 7.0  (m=8, d=16)
* ``direct-desk``           optimize desk --method direct           (control: no surrogate)
* ``rk-desk``               optimize desk --method rk               (m=4, d=8)

BENCHMARK.json lists the first two; ``rk-desk`` runs by name or with ``all``.

``--seed`` is passed on as the optimizer's ``--seed``; the program sees only
scenario and flags.  With ``--trace 0`` the harness repeats the same call
while another one fits in ``--seconds`` and reports the end-to-end metrics
(medians over the calls; set-up time is the median of several fresh
interpreters).  With ``--trace 1`` it makes one untraced and one traced
call and reports the per-layer metrics of the traced one, the tracing
overhead, and checks that both calls wrote the same ``samples.csv``.
Every call's artifacts pass :func:`checks.check_run_dir`, or the call
counts as failed.  The last line of stdout is the JSON result.

The harness runs single-threaded: BLAS and OpenMP pools are pinned to one
thread before numpy is imported.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    method: str
    budget: int
    quick_budget: int            # smallest budget the problem accepts
    delta_max: float | None = None


# Why each workload was chosen is recorded in BENCHMARK.json.  rk-desk is left
# out there: on a shared 2-vCPU VM the same call's time swings by up to 2x over
# tens of seconds, and within the total time allowed for all runs, a third
# workload would leave runs too short to average that out.
WORKLOADS = {
    "rk-paper-constrained": Workload(("paper", "--method", "rk", "--delta-max", "7.0"), "rk",
                                     39, 38, delta_max=7.0),
    "direct-desk": Workload(("desk", "--method", "direct"), "direct", 22, 22),
    "rk-desk": Workload(("desk", "--method", "rk"), "rk", 25, 22),
}

SETUP_RUNS = 7


def declared_units(trace: bool) -> dict[str, str]:
    """Metric names and units of one mode, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


@dataclass
class CallResult:
    seconds: float
    evals: int
    best_objective: float
    samples: bytes
    problems: list[str]


def optimize_argv(wl: Workload, seed: int, out: str, quick: bool) -> list[str]:
    argv = ["optimize", *wl.args, "--budget", str(wl.quick_budget if quick else wl.budget),
            "--seed", str(seed), "--out", out]
    return argv + (["--replications", "1"] if quick else [])


def optimize_call(wl: Workload, seed: int, out: str, quick: bool, tracer=None) -> CallResult:
    """Time one in-process ``tollopt optimize`` call, then check its artifacts."""
    from tollopt import cli
    import checks
    import spans

    shutil.rmtree(out, ignore_errors=True)
    argv = optimize_argv(wl, seed, out, quick)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                t0 = time.perf_counter()
                rc = cli.main(argv)
                seconds = time.perf_counter() - t0
            else:
                with spans.installed(tracer), tracer.span("tlp.optimize"):
                    rc = cli.main(argv)
                seconds = tracer.spans[0].duration
    except Exception:  # a crash is a failed operation, not the end of the benchmark
        traceback.print_exc()
        return CallResult(0.0, 0, 0.0, b"", [f"tollopt {' '.join(argv)} raised"])
    if rc != 0:
        return CallResult(seconds, 0, 0.0, b"", [f"tollopt {' '.join(argv)} exited {rc}"])
    budget = wl.quick_budget if quick else wl.budget
    try:
        problems = checks.check_run_dir(out, wl.method, budget, wl.delta_max)
        with open(os.path.join(out, "samples.csv"), "rb") as fh:
            samples = fh.read()
        with open(os.path.join(out, "best.json")) as fh:
            best = json.load(fh)
    except (OSError, ValueError, KeyError) as exc:
        return CallResult(seconds, 0, 0.0, b"", [f"unreadable artifacts: {exc!r}"])
    return CallResult(seconds, int(best["evaluations"]), float(best["objective"]),
                      samples, problems)


def setup_seconds(wl: Workload, quick: bool) -> float:
    """Median wall time of a fresh interpreter that imports tollopt, resolves
    the scenario and builds the ProblemSpec, as every CLI call does."""
    argv = optimize_argv(wl, 0, "unused", quick)
    code = ("import tollopt.cli as c\n"
            f"if not c.__file__.startswith({SRC!r}): raise SystemExit(3)\n"
            f"a = c.build_parser().parse_args({argv!r})\n"
            "cfg, prob = c.load_scenario(a.config)\n"
            "c.build_spec(cfg, prob, a)\n")
    cmd = [sys.executable, "-c", code]
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def os_threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "loadavg_start": list(os.getloadavg())}


def run_untraced(wl: Workload, seed: int, seconds: float, quick: bool, out: str):
    problems: list[str] = []
    setup = setup_seconds(wl, quick)
    calls: list[CallResult] = []
    start = time.perf_counter()
    while True:
        res = optimize_call(wl, seed, os.path.join(out, f"call{len(calls)}"), quick)
        calls.append(res)
        problems += res.problems
        if not res.problems and calls[0].samples != res.samples:
            problems.append(f"call {len(calls) - 1} wrote a different samples.csv than call 0")
        if res.problems or time.perf_counter() - start + res.seconds > seconds:
            break
    good = [c for c in calls if not c.problems]
    metrics = {}
    if good:
        metrics = {
            "optimize_s": statistics.median(c.seconds for c in good),
            "s_per_eval": statistics.median(c.seconds / c.evals for c in good),
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    failed = len(calls) - len(good)
    return metrics, len(calls), failed, problems


def run_traced(wl: Workload, seed: int, quick: bool, out: str):
    import spans

    untraced = optimize_call(wl, seed, os.path.join(out, "untraced"), quick)
    tracer = spans.Tracer()
    traced = optimize_call(wl, seed, os.path.join(out, "traced"), quick, tracer)
    problems = untraced.problems + traced.problems
    failed = sum(bool(c.problems) for c in (untraced, traced))
    if untraced.samples != traced.samples:
        problems.append("traced samples.csv differs from the untraced one")
        failed = max(failed, 1)

    metrics = spans.layer_metrics(tracer)
    metrics["direct.evaluations"] = traced.evals if wl.method == "direct" else 0
    metrics["tlp.best_objective"] = traced.best_objective
    metrics["trace.optimize_s"] = traced.seconds
    metrics["trace.untraced_optimize_s"] = untraced.seconds
    metrics["trace.overhead_s"] = traced.seconds - untraced.seconds

    parts = [metrics[k] for k in spans.SELF_TIME_PARTS]
    if abs(sum(parts) - traced.seconds) > 1e-6 or min(parts) < -1e-9:
        problems.append(f"layer self times {parts} do not partition optimize_s "
                        f"{traced.seconds}")
    if wl.method == "direct":
        used = {k: metrics[k] for k in ("surrogate.fit_s", "surrogate.loglik_s", "ga.self_s",
                                        "infill.propose_s", "infill.acq_s") if metrics[k]}
        if used:
            problems.append(f"direct run spent time in surrogate, GA or infill: {used}")
    return metrics, 2, failed, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    wl = WORKLOADS[name]
    out = tempfile.mkdtemp(prefix=".perfbench_out-", dir=ROOT)
    try:
        if trace:
            metrics, attempted, failed, problems = run_traced(wl, seed, quick, out)
        else:
            metrics, attempted, failed, problems = run_untraced(wl, seed, seconds, quick, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    threads = os_threads()
    if threads is not None and threads > (os.cpu_count() or 1):
        problems.append(f"process runs {threads} threads on {os.cpu_count()} cpus")
    units = declared_units(trace)
    if metrics and metrics.keys() != units.keys():
        problems.append(f"measured metrics differ from BENCHMARK.json: "
                        f"{sorted(metrics.keys() ^ units.keys())}")
    for p in problems:
        print(f"[{name}] check failed: {p}", file=sys.stderr)
    return {"correct": not problems and failed == 0 and bool(metrics),
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()
                        if k in metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smallest budgets and one replication (self-test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tollopt", "__init__.py")):
        print(f"error: no tollopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tollopt
    if not os.path.abspath(tollopt.__file__).startswith(SRC + os.sep):
        print(f"error: imported tollopt from {tollopt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    machine = machine_info()
    if args.workload == "all":
        runs = {(n, t): run_workload(n, args.seed, args.seconds, t, args.quick)
                for n in WORKLOADS for t in (False, True)}
        result = {"correct": all(r["correct"] for r in runs.values()),
                  "attempted": sum(r["attempted"] for r in runs.values()),
                  "failed": sum(r["failed"] for r in runs.values()),
                  "metrics": {f"{n}.{k}": v for (n, _), r in runs.items()
                              for k, v in r["metrics"].items()}}
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.quick)
    machine["loadavg_end"] = list(os.getloadavg())
    print("machine: " + json.dumps(machine))
    for k, v in result["metrics"].items():
        print(f"  {k:<44} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
