"""The benchmark's tracer and output check still fit the package.

``perfbench/spans.py`` patches named entry points of ``tollopt`` modules and
``perfbench/checks.py`` imports others, so renaming or removing one of them
breaks the benchmark.  This runs both hooks on one short DIRECT run.
"""

import contextlib
import importlib.util
import io
import os
import sys

from tollopt import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is made
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_and_checker_run_on_a_direct_run(tmp_path, monkeypatch):
    spans, checks = load("spans", monkeypatch), load("checks", monkeypatch)
    tracer = spans.Tracer()
    out = tmp_path / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        with spans.installed(tracer), tracer.span("tlp.optimize"):
            rc = cli.main(["optimize", "desk", "--method", "direct", "--budget", "22",
                           "--replications", "1", "--out", str(out)])
    assert rc == 0
    assert spans.layer_metrics(tracer)["direct.select_n"] >= 1
    assert checks.check_run_dir(str(out), "direct", 22) == []
