import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tollopt.cli import DEFAULT_PROBLEM, main
from tollopt.simnet import _SCHEMA, config_to_dict, desk_preset, paper_preset


def run_cli(args):
    return main(args)


def test_every_command_leaves_scipy_unloaded(tmp_path):
    # the package runs on numpy and pyyaml alone: scipy.linalg and
    # scipy.special once cost about 270 ms of every command's start-up and
    # 24 MB of an RK run's peak memory; scipy is a test-only oracle
    src = os.path.dirname(os.path.dirname(sys.modules["tollopt"].__file__))
    desk = ["desk", "--budget", "22", "--replications", "1"]
    commands = [["simulate", "desk", "--out", str(tmp_path / "sim")],
                ["optimize", *desk, "--method", "direct", "--out", str(tmp_path / "direct")],
                ["doe", "desk", "--out", str(tmp_path / "plan.csv")],
                ["envelope", "desk", "--runs", "1", "--out", str(tmp_path / "envelope")],
                ["optimize", "desk", "--print-config"],
                ["optimize", *desk, "--method", "rk", "--out", str(tmp_path / "rk")],
                ["optimize", *desk, "--method", "rk", "--delta-max", "7.0",
                 "--out", str(tmp_path / "rk-constrained")],
                ["validate", str(tmp_path / "rk")],
                ["compare", *desk, "--seeds", "0", "--out", str(tmp_path / "compare")]]
    code = ("import contextlib, io, sys, tollopt.cli as cli\n"
            "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "loaded = scipy()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [cli.main(argv) for argv in {commands!r}]\n"
            "print(loaded, codes, scipy())\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert done.stdout.strip() == f"[] {[0] * len(commands)} []"


def test_simulate_is_byte_reproducible(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["simulate", "desk", "--seed", "7", "--out", str(out_a)]) == 0
    assert run_cli(["simulate", "desk", "--seed", "7", "--out", str(out_b)]) == 0
    assert (out_a / "timeseries.csv").read_bytes() == (out_b / "timeseries.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_simulate_zero_toll_reports_congested_intervals(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["simulate", "desk", "--seed", "3", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    densities = [float(v) for v in summary["interval_density_vpkmpl"]]
    assert all(k > 25.0 for k in densities)


def test_missing_config_exits_2_with_path(capsys):
    assert run_cli(["simulate", "/no/such/file.yaml"]) == 2
    assert "/no/such/file.yaml" in capsys.readouterr().err


def test_malformed_config_names_offending_key(tmp_path, capsys):
    doc = config_to_dict(desk_preset())
    doc["network"]["choice"]["voodoo"] = 1.0
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert run_cli(["simulate", str(path)]) == 2
    assert "network.choice.voodoo" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("budget", None), ("alpha", "abc"),
                                       ("tau_max", [float("nan"), 15.0])])
def test_bad_problem_value_exits_2_naming_the_key(tmp_path, capsys, key, value):
    doc = config_to_dict(desk_preset())
    doc["problem"] = {key: value}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert run_cli(["optimize", str(path), "--method", "direct",
                    "--out", str(tmp_path / "run")]) == 2
    assert f"problem.{key}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags,key", [(["--replications", "0"], "replications"),
                                       (["--smoothing", "0,1"], "alpha"),
                                       (["--delta-max", "nan"], "delta_max"),
                                       (["--smoothing", "a,b"], "--smoothing")])
def test_bad_problem_flag_exits_2_naming_the_key(capsys, flags, key):
    # a value that is not a number is named by its flag, a bad number by its problem key
    assert run_cli(["optimize", "desk", *flags]) == 2
    assert (key if key.startswith("--") else f"problem.{key}") in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("replications", 2.7), ("budget", 60.9),
                                       ("replications", True), ("budget", float("inf"))])
def test_problem_counts_are_checked_not_truncated(tmp_path, capsys, no_simulation, key, value):
    doc = config_to_dict(desk_preset())
    doc["problem"] = {key: value}
    path = tmp_path / "count.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert run_cli(["optimize", str(path), "--method", "direct",
                    "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith(f"error: problem.{key}: ")
    assert not (tmp_path / "run").exists()


# a falsy section is not an absent one: it does not mean the defaults
@pytest.mark.parametrize("section", [[1, 2], [], 0, "", False],
                         ids=["list", "empty-list", "zero", "empty-string", "false"])
def test_problem_section_must_be_a_mapping(tmp_path, capsys, section):
    doc = config_to_dict(desk_preset())
    doc["problem"] = section
    path = tmp_path / "list.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert run_cli(["optimize", str(path)]) == 2
    assert "problem: must be a mapping" in capsys.readouterr().err


def test_a_null_problem_section_keeps_the_defaults(tmp_path, capsys):
    doc = config_to_dict(desk_preset())
    doc["problem"] = None
    path = tmp_path / "null.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert run_cli(["optimize", str(path), "--print-config"]) == 0
    assert yaml.safe_load(capsys.readouterr().out)["problem"] == DEFAULT_PROBLEM


def test_unknown_top_level_section_exits_2_naming_it(tmp_path, capsys):
    doc = config_to_dict(desk_preset())
    doc["problme"] = {"budget": 10}
    path = tmp_path / "typo.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert run_cli(["optimize", str(path), "--print-config"]) == 2
    assert "error: problme: unknown section" in capsys.readouterr().err


@pytest.mark.parametrize("section,message", [("network", "network: must be a mapping"),
                                             ("cells", "network.cells: must be a mapping")])
def test_a_network_section_that_is_not_a_mapping_says_so(tmp_path, capsys, section, message):
    doc = config_to_dict(desk_preset())
    if section == "network":
        doc["network"] = [1, 2]
    else:
        doc["network"][section] = [1, 2]
    path = tmp_path / "list.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert run_cli(["optimize", str(path), "--print-config"]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_unparsable_yaml_exits_2_naming_the_file(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("network: [1\n")
    src = os.path.dirname(os.path.dirname(sys.modules["tollopt"].__file__))
    done = subprocess.run([sys.executable, "-m", "tollopt.cli", "optimize", str(path)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 2
    assert str(path) in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("section,key,value,reason", [
    ("cells", "lengths_km", [-1.0] + [0.5] * 7, "all values must be positive"),
    ("cells", "lanes", [2.0, 2.0], "expected 8 values, got 2"),
    ("simulation", "step_seconds", 2400, "2400 s leaves tolling interval"),
])
def test_bad_network_value_exits_2_naming_the_file_key(tmp_path, capsys, section, key, value,
                                                       reason):
    doc = config_to_dict(desk_preset())
    doc["network"][section][key] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert run_cli(["optimize", str(path)]) == 2
    assert f"error: network.{section}.{key}: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value",
                         [(section, key, value) for section, key in _SCHEMA
                          for value in ("x", None, {"a": 1})]
                         + [("demand", "knots_hour_vph", [[1, "a"]]),
                            ("demand", "knots_hour_vph", [[1, 2, 3]]),
                            ("cells", "lengths_km", [[0.625] * 4, [0.625] * 4])],
                         ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_every_non_numeric_network_value_exits_2_naming_its_key(tmp_path, capsys, section, key,
                                                                value):
    doc = config_to_dict(desk_preset())
    doc["network"][section][key] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert run_cli(["optimize", str(path), "--print-config"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: network.{section}.{key}: ")
    assert "Traceback" not in err


def _negated(value):
    """Every number of a scenario value with its sign flipped; None becomes -1."""
    if isinstance(value, list):
        return [_negated(v) for v in value]
    return -1.0 if value is None else -value


def _lengthened(value):
    """A list one entry longer; a single value becomes a list of two."""
    return value + value[-1:] if isinstance(value, list) and value else [value, value]


DELETE = object()
LEAF_EDITS = {
    "string": lambda v: "x",
    "nan": lambda v: math.nan,
    "negative": _negated,
    "zero": lambda v: 0,
    "wrong length": _lengthened,
    "shortened": lambda v: v[:-1] if isinstance(v, list) else [],
    "mapping": lambda v: {"a": 1},
    "deleted": lambda v: DELETE,
}
SCENARIO_LEAVES = ([("network", section, key) for section, key in _SCHEMA]
                   + [("problem", key) for key in DEFAULT_PROBLEM])


# more examples than leaf-edit pairs, so every pair is tried: hypothesis
# generates each example from a choice sequence it has not tried before
@given(leaf=st.sampled_from(SCENARIO_LEAVES), edit=st.sampled_from(sorted(LEAF_EDITS)))
@settings(max_examples=300, deadline=None)
def test_any_one_leaf_edit_is_accepted_or_exits_2_naming_its_key(tmp_path_factory, leaf, edit):
    doc = config_to_dict(desk_preset())
    doc["problem"] = dict(DEFAULT_PROBLEM)
    *parents, key = leaf
    section = doc
    for name in parents:
        section = section[name]
    value = LEAF_EDITS[edit](section[key])
    if value is DELETE:
        del section[key]
    else:
        section[key] = value
    path = tmp_path_factory.mktemp("fuzz") / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(["optimize", str(path), "--print-config"])
    dotted = ".".join(leaf)
    if code == 0:
        assert yaml.safe_load(out.getvalue())[parents[0]]
    else:
        assert code == 2, err.getvalue()
        assert err.getvalue().startswith(f"error: {parents[0]}.")
        assert dotted in err.getvalue()
        assert "Traceback" not in err.getvalue()


def test_toll_argument_length_checked(capsys):
    assert run_cli(["simulate", "desk", "--toll", "0.5,0.5"]) == 2
    assert "8" in capsys.readouterr().err


def test_non_numeric_toll_exits_2_naming_the_flag(capsys):
    assert run_cli(["simulate", "desk", "--toll", "a,b,c,d,e,f,g,h"]) == 2
    assert "--toll" in capsys.readouterr().err


def test_non_finite_toll_exits_2_naming_the_flag(tmp_path, capsys):
    assert run_cli(["simulate", "desk", "--toll", "nan,0,0,0,0,0,0,0",
                    "--out", str(tmp_path / "run")]) == 2
    assert "--toll" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_envelope_without_runs_exits_2_naming_the_flag(capsys):
    assert run_cli(["envelope", "desk", "--runs", "0"]) == 2
    assert "--runs" in capsys.readouterr().err


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail the test if a command reaches the simulator or the optimizer."""
    import tollopt.cli as cli

    def must_not_run(*args, **kwargs):
        pytest.fail("the command simulated before rejecting its flags")

    for entry in ("simulate", "simulate_batch", "optimize"):
        monkeypatch.setattr(cli, entry, must_not_run)


@pytest.mark.parametrize("command", [
    ["optimize", "desk", "--method", "direct", "--budget", "22", "--replications", "1"],
    ["simulate", "desk"],
    ["envelope", "desk", "--runs", "1"],
    ["compare", "desk", "--budget", "22", "--replications", "1", "--seeds", "0"],
], ids=["optimize", "simulate", "envelope", "compare"])
@pytest.mark.parametrize("where", ["file", "under_file"])
def test_unusable_out_exits_2_before_simulating(tmp_path, capsys, no_simulation, command, where):
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken if where == "file" else taken / "run"
    assert run_cli([*command, "--out", str(out)]) == 2
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate", "desk"], ["optimize", "desk"],
                                     ["compare", "desk"], ["envelope", "desk"],
                                     ["doe", "desk"], ["validate", "/no/such/run"]])
def test_negative_seed_exits_2_naming_the_flag(tmp_path, monkeypatch, capsys, no_simulation,
                                              command):
    monkeypatch.setenv("TOLLOPT_OUT", str(tmp_path / "out"))
    assert run_cli([*command, "--seed", "-1"]) == 2
    assert "--seed must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seeds,reason", [(["1", "1"], "repeat"), (["0", "-2"], "nonnegative")])
def test_bad_compare_seeds_exit_2_naming_the_flag(tmp_path, capsys, no_simulation, seeds, reason):
    out = tmp_path / "cmp"
    assert run_cli(["compare", "desk", "--seeds", *seeds, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--seeds" in err and reason in err
    assert not out.exists()


def test_print_config_dumps_resolved_scenario(capsys):
    assert run_cli(["simulate", "desk", "--print-config"]) == 0
    doc = yaml.safe_load(capsys.readouterr().out)
    assert doc["network"]["control"]["k_cr_vpkmpl"] == 25.0
    assert doc["problem"]["tau_max"] == [1.0, 15.0]


def test_print_config_shows_flag_overrides(capsys):
    assert run_cli(["optimize", "desk", "--budget", "30", "--delta-max", "7",
                    "--smoothing", "0.2,3", "--print-config"]) == 0
    problem = yaml.safe_load(capsys.readouterr().out)["problem"]
    assert (problem["budget"], problem["delta_max"]) == (30, 7.0)
    assert (problem["alpha"], problem["beta"]) == (0.2, 3.0)


def test_print_config_into_closed_pipe_exits_quietly(tmp_path, monkeypatch, capsys):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class ClosedPipe(io.StringIO):
        """A stdout whose reader has gone, as in ``--print-config | head -2``."""

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        assert run_cli(["optimize", "desk", "--print-config"]) == 0
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


# a desk scenario edit -> the commands that run it (the others exit 2)
SCENARIO_EDITS = {
    "problem.alpha: x": (("problem", "alpha", "x"), set()),
    "interval_minutes: 5": (("network", "control", "interval_minutes", 5),   # m = 24
                            {"simulate", "envelope"}),
    "tau_max: [0, 0]": (("problem", "tau_max", [0, 0]), {"simulate", "envelope", "doe"}),
}
SCENARIO_COMMANDS = {"simulate": [], "envelope": ["--runs", "1"], "doe": [],
                     "optimize": ["--method", "rk"], "compare": ["--seeds", "0"]}


@pytest.mark.filterwarnings("ignore:degenerate bounds")   # doe on the one-point box
@pytest.mark.parametrize("edit", sorted(SCENARIO_EDITS))
@pytest.mark.parametrize("command", sorted(SCENARIO_COMMANDS))
def test_print_config_exits_as_the_command_does(tmp_path, capsys, command, edit):
    # --print-config checks the scenario the command runs, no more and no less
    (*parents, key, value), runs = SCENARIO_EDITS[edit]
    doc = {**config_to_dict(desk_preset()), "problem": {}}
    section = doc
    for name in parents:
        section = section[name]
    section[key] = value
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    argv = [command, str(path), *SCENARIO_COMMANDS[command], "--out", str(out)]
    printed = run_cli([*argv, "--print-config"]), capsys.readouterr().err
    assert not out.exists()
    ran = run_cli(argv), capsys.readouterr().err
    assert (printed[0], ran[0]) == ((0, 0) if command in runs else (2, 2))
    assert printed[1] == ran[1]


def test_optimize_records_smoothing_override(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["optimize", "desk", "--smoothing", "0.2,3", "--budget", "22",
                    "--replications", "1", "--out", str(out)]) == 0
    problem = yaml.safe_load((out / "config.yaml").read_text())["problem"]
    assert (problem["alpha"], problem["beta"]) == (0.2, 3.0)
    flags = json.loads((out / "run.json").read_text())["flags"]
    assert flags["smoothing"] == [0.2, 3.0]


def test_compare_plots_best_feasible_objective_per_evaluation(tmp_path):
    out = tmp_path / "cmp"
    assert run_cli(["compare", "desk", "--budget", "22", "--replications", "1",
                    "--seeds", "0", "--out", str(out)]) == 0
    with open(out / "comparison.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for label in ("rk-seed0", "direct-seed0"):
        evals = [int(r["evals"]) for r in rows if r["run"] == label]
        best = [float(r["best_objective_vpkmpl"]) for r in rows if r["run"] == label]
        assert evals == list(range(evals[0], evals[-1] + 1))    # one point per evaluation
        assert all(b <= a for a, b in zip(best, best[1:]))


def test_compare_runs_direct_for_every_seed(tmp_path):
    out = tmp_path / "cmp"
    assert run_cli(["compare", "desk", "--budget", "22", "--replications", "1",
                    "--seeds", "0", "1", "--out", str(out)]) == 0
    with open(out / "comparison.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["run"] for r in rows} == {"rk-seed0", "rk-seed1", "direct-seed0", "direct-seed1"}
    assert {r["method"] for r in rows if r["run"].startswith("direct")} == {"direct"}
    # same rectangles, but each seed's own replications
    curves = [[r["best_objective_vpkmpl"] for r in rows if r["run"] == f"direct-seed{seed}"]
              for seed in (0, 1)]
    assert curves[0] != curves[1]


def test_doe_export_shape_and_header(tmp_path):
    path = tmp_path / "plan.csv"
    assert run_cli(["doe", "desk", "--seed", "1", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "v_1,v_2,v_3,v_4,w_1,w_2,w_3,w_4"
    assert len(lines) - 1 == 21


def test_doe_out_is_a_csv_file_and_a_directory_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit):
        run_cli(["doe", "--help"])
    assert "output CSV file" in capsys.readouterr().out
    assert run_cli(["doe", "desk", "--out", str(tmp_path)]) == 2
    assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_zero_width_delay_box_runs_under_both_methods(tmp_path, capsys):
    doc = config_to_dict(desk_preset())
    doc["problem"] = {"tau_max": [1.0, 0.0]}        # distance toll only
    path = tmp_path / "distance_only.yaml"
    path.write_text(yaml.safe_dump(doc))
    for method in ("rk", "direct"):
        out = tmp_path / method
        assert run_cli(["optimize", str(path), "--method", method, "--budget", "22",
                        "--replications", "1", "--out", str(out)]) == 0
        with open(out / "samples.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(row[f"w_{h}_per_h"]) == 0.0 for row in rows for h in range(1, 5))
    tolls = [tuple(row[f"v_{h}_per_km"] for h in range(1, 5)) for row in rows]
    assert len(set(tolls)) == len(tolls)      # DIRECT never samples a point twice


def test_rk_on_a_one_point_box_exits_2_before_simulating(tmp_path, monkeypatch, capsys):
    import tollopt.tlp as tlp

    lanes = []
    simulate_batch = tlp.simulate_batch

    def counting(config, tolls, seeds):
        lanes.append(len(tolls))
        return simulate_batch(config, tolls, seeds)

    monkeypatch.setattr(tlp, "simulate_batch", counting)
    doc = config_to_dict(desk_preset())
    doc["problem"] = {"tau_max": [0.0, 0.0]}      # tau_min is zero too
    path = tmp_path / "one_point.yaml"
    path.write_text(yaml.safe_dump(doc))
    flags = ["--budget", "22", "--replications", "1"]
    for command in (["optimize", str(path), "--method", "rk"], ["compare", str(path), "--seeds", "0"]):
        assert run_cli([*command, *flags, "--out", str(tmp_path / command[0])]) == 2
        assert capsys.readouterr().err.startswith("error: problem.tau_max: ")
        assert lanes == []
    assert run_cli(["optimize", str(path), "--method", "direct", *flags,
                    "--out", str(tmp_path / "direct")]) == 0
    assert lanes == [1]


def test_envelope_single_run_and_determinism(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["envelope", "desk", "--runs", "1", "--seed", "5", "--out", str(out_a)]) == 0
    assert run_cli(["envelope", "desk", "--runs", "1", "--seed", "5", "--out", str(out_b)]) == 0
    frag_a = yaml.safe_load((out_a / "envelope.yaml").read_text())
    frag_b = yaml.safe_load((out_b / "envelope.yaml").read_text())
    assert frag_a == frag_b
    a, b, c = frag_a["network"]["control"]["envelope_abc"]
    env = lambda k: ((a * k + b) * k + c) * k
    assert env(40.0) > env(20.0) > 0.0      # envelope rises with accumulation


def test_optimize_budget_below_plan_reports_plan_size(capsys):
    assert run_cli(["optimize", "desk", "--budget", "10"]) == 2
    assert "21" in capsys.readouterr().err


@pytest.mark.parametrize("method,plan_line", [("direct", False), ("rk", True)])
def test_optimize_reports_plan_size_only_for_rk(tmp_path, capsys, method, plan_line):
    assert run_cli(["optimize", "desk", "--method", method, "--budget", "22",
                    "--replications", "1", "--out", str(tmp_path / "run")]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith(f"method={method} evaluations=")
    assert ("initial plan 21" in first) == plan_line


def test_guidance_names_the_lowest_toll_not_zero_toll(tmp_path, capsys):
    doc = config_to_dict(desk_preset())
    doc["problem"] = {"tau_min": [0.1, 0.0]}
    path = tmp_path / "floor.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert run_cli(["optimize", str(path), "--budget", "22", "--replications", "1",
                    "--out", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "heterogeneity guidance: lowest-toll (tau_min) constraint" in out
    assert "zero-toll" not in out


def write_tiny_run_dir(run_dir, samples=((0.0, 30.0, 5.0), (0.5, 12.0, 7.0)), **problem_extra):
    """A run directory on the desk scenario with one replication per sample:
    each sample is a (uniform toll level, objective, constraint) triple."""
    run_dir.mkdir()
    doc = config_to_dict(desk_preset())
    doc["problem"] = {"tau_min": [0.0, 0.0], "tau_max": [1.0, 15.0],
                      "alpha": 1 / 3, "beta": 5.0, "replications": 1,
                      "budget": 30, "delta_max": None, **problem_extra}
    (run_dir / "config.yaml").write_text(yaml.safe_dump(doc))
    header = ("index,origin," + ",".join(f"v_{h}_per_km" for h in range(1, 5)) + ","
              + ",".join(f"w_{h}_per_h" for h in range(1, 5))
              + ",objective_rep0_vpkmpl,objective_mean_vpkmpl"
              + ",constraint_rep0_vpkmpl,constraint_mean_vpkmpl,smoothing_feasible")
    rows = [f"{i},initial," + ",".join([str(level)] * 8) + f",{obj},{obj},{con},{con},1"
            for i, (level, obj, con) in enumerate(samples)]
    (run_dir / "samples.csv").write_text(header + "\n" + "\n".join(rows) + "\n")


def test_validate_insufficient_samples(tmp_path, capsys):
    write_tiny_run_dir(tmp_path / "tiny")
    assert run_cli(["validate", str(tmp_path / "tiny")]) == 2
    assert "insufficient samples" in capsys.readouterr().err


def test_validate_rejects_unknown_problem_key(tmp_path, capsys):
    samples = ((0.0, 30.0, 5.0), (0.5, 12.0, 7.0), (1.0, 20.0, 9.0))
    write_tiny_run_dir(tmp_path / "bogus", samples=samples, bogus=1)
    assert run_cli(["validate", str(tmp_path / "bogus")]) == 2
    assert "problem.bogus" in capsys.readouterr().err


def test_validate_missing_run_dir(capsys):
    assert run_cli(["validate", "/no/such/run"]) == 2


@pytest.fixture(scope="module")
def direct_run_dir(tmp_path_factory):
    """The run directory of one short DIRECT run on the desk scenario."""
    out = tmp_path_factory.mktemp("direct") / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(["optimize", "desk", "--method", "direct", "--budget", "22",
                        "--replications", "1", "--out", str(out)]) == 0
    return out


def validate_damaged(run_dir, run_copy, samples_text, config_text=None):
    """``validate``'s exit code and stderr on a copy of ``run_dir`` whose
    samples.csv (and config.yaml, when given) are replaced."""
    run_copy.mkdir()
    (run_copy / "samples.csv").write_text(samples_text)
    (run_copy / "config.yaml").write_text(config_text or (run_dir / "config.yaml").read_text())
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_cli(["validate", str(run_copy)])
    return code, err.getvalue()


def _paper_config_text():
    doc = config_to_dict(paper_preset())
    doc["problem"] = dict(DEFAULT_PROBLEM)
    return yaml.safe_dump(doc)


def _narrow_box_config_text():
    """The desk scenario with a tenth of the default toll box and smoothing limits, so the
    desk DIRECT run's centre point, its row 2, lies outside the box."""
    doc = config_to_dict(desk_preset())
    doc["problem"] = {**DEFAULT_PROBLEM, "tau_max": [0.1, 1.5], "alpha": 0.1 / 3, "beta": 0.5}
    return yaml.safe_dump(doc)


def _nan_objective(text):
    """``text`` with the second data row's objective_mean_vpkmpl set to nan."""
    rows = [line.split(",") for line in text.splitlines()]
    rows[2][rows[0].index("objective_mean_vpkmpl")] = "nan"
    return "\n".join(",".join(row) for row in rows) + "\n"


# name: (edit of samples.csv, the config.yaml text in place of the run's (None keeps it),
# the row named)
DAMAGED_SAMPLES = {
    "truncated last row": (lambda text: text[:-40], None, "last"),
    "empty": (lambda text: "", None, 1),
    "nan objective": (_nan_objective, None, 3),
    "beside a paper config.yaml": (lambda text: text, _paper_config_text, 1),
    "outside config.yaml's toll box": (lambda text: text, _narrow_box_config_text, 2),
}


@pytest.mark.parametrize("case", sorted(DAMAGED_SAMPLES))
def test_validate_rejects_a_damaged_samples_csv_naming_the_row(direct_run_dir, tmp_path, case):
    edit, config, row = DAMAGED_SAMPLES[case]
    samples = edit((direct_run_dir / "samples.csv").read_text())
    code, err = validate_damaged(direct_run_dir, tmp_path / "damaged", samples,
                                 config() if config else None)
    assert code == 2
    row = len(samples.splitlines()) if row == "last" else row
    assert err.startswith(f"error: samples.csv: row {row}: ")
    assert "Traceback" not in err


def _cell_edit(value):
    """An edit that sets the cell ``where`` picks to ``value``."""
    def edit(rows, r, c):
        rows[r][c] = value
    return edit


SAMPLES_CELL_EDITS = {
    "text": _cell_edit("x"),
    "nan": _cell_edit("nan"),
    "drop a cell": lambda rows, r, c: rows[r].pop(c),
    "add a cell": lambda rows, r, c: rows[r].insert(c, "0.5"),
    "drop a column": lambda rows, r, c: [row.pop(c) for row in rows],
    "add a column": lambda rows, r, c: [row.insert(c, "0.5") for row in rows],
}


@given(edit=st.sampled_from(sorted([*SAMPLES_CELL_EDITS, "truncate", "empty", "paper config"])),
       where=st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_any_one_samples_edit_is_accepted_or_exits_2_naming_samples_csv(
        direct_run_dir, tmp_path_factory, edit, where):
    text, config = (direct_run_dir / "samples.csv").read_text(), None
    if edit == "truncate":
        text = text[:where % len(text)]
    elif edit == "empty":
        text = ""
    elif edit == "paper config":
        config = _paper_config_text()
    else:
        rows = [line.split(",") for line in text.splitlines()]
        r = where % len(rows)
        SAMPLES_CELL_EDITS[edit](rows, r, (where // len(rows)) % len(rows[r]))
        text = "\n".join(",".join(row) for row in rows) + "\n"
    code, err = validate_damaged(direct_run_dir, tmp_path_factory.mktemp("edit") / "run", text,
                                 config)
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: samples.csv: ")
        assert "Traceback" not in err
