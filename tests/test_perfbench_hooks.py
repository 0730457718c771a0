"""The benchmark's tracer and output check still fit the package.

``perfbench/spans.py`` patches named entry points of ``tollopt`` modules and
``perfbench/checks.py`` imports others, so renaming or removing one of them
breaks the benchmark.  This runs both hooks on one short DIRECT run and one
short constrained RK run, whose surrogate and infill hooks the tracer also
counts by the position of their stacked argument.
"""

import contextlib
import importlib.util
import io
import os
import sys

from tollopt import cli
from tollopt.ga import ELITISM, GAParams

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is made
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def traced_optimize(spans, out, *flags):
    """Layer metrics of one traced ``optimize desk`` run into ``out``."""
    tracer = spans.Tracer()
    with contextlib.redirect_stdout(io.StringIO()):
        with spans.installed(tracer), tracer.span("tlp.optimize"):
            rc = cli.main(["optimize", "desk", "--budget", "22", "--replications", "1",
                           "--out", str(out), *flags])
    assert rc == 0
    return spans.layer_metrics(tracer)


def test_tracer_and_checker_run_on_a_direct_run(tmp_path, monkeypatch):
    spans, checks = load("spans", monkeypatch), load("checks", monkeypatch)
    out = tmp_path / "run"
    metrics = traced_optimize(spans, out, "--method", "direct")
    assert metrics["direct.select_n"] >= 1
    assert checks.check_run_dir(str(out), "direct", 22) == []


def test_tracer_and_checker_run_on_a_constrained_rk_run(tmp_path, monkeypatch):
    spans, checks = load("spans", monkeypatch), load("checks", monkeypatch)
    out = tmp_path / "run"
    metrics = traced_optimize(spans, out, "--seed", "5", "--delta-max", "7.0")
    assert metrics["surrogate.fit_n"] >= 2
    for name in ("surrogate.loglik_n", "infill.acq_points", "surrogate.predict_points"):
        assert metrics[name] > 0, name
    # the counts follow the wrapped argument's leading axis: one GA's candidates
    # per fit and per proposal, and one objective and one constraint prediction
    # per acquisition point
    ga = GAParams()
    candidates = ga.population_size + (ga.generations - 1) * (ga.population_size - ELITISM)
    assert metrics["surrogate.loglik_n"] == metrics["surrogate.fit_n"] * candidates
    assert metrics["infill.acq_points"] >= metrics["infill.propose_n"] * candidates
    assert metrics["surrogate.predict_points"] == 2 * metrics["infill.acq_points"]
    assert checks.check_run_dir(str(out), "rk", 22, 7.0) == []
