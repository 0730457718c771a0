"""Golden runs: pinned digests of short fixed-seed optimizations and simulations.

A refactor that claims "same behaviour" must leave these digests unchanged.
A change that alters optimizer output on purpose updates them and says why.
"""

import hashlib

import pytest
import yaml

from tollopt.cli import main

DESK = ["desk", "--budget", "22", "--replications", "1", "--seed", "5"]

GOLDEN = [
    ([*DESK, "--method", "rk"],
     "e608c7190566ebe337fb22ae76f30f8b05d1461904e11f1fd5585ef1a12b0769"),
    ([*DESK, "--method", "rk", "--delta-max", "7.0"],
     "91e9d4294b90360e1c89c68fc6783f3fdf1c76190dbdb7a01d2a799fb1b88af4"),
    ([*DESK, "--method", "direct"],
     "f761da5db44da31c6ba3a8db492bb243427154d0541863b9c9b6b8ffe15a1fc9"),
    # paper scale: m = 8, so eight 15-minute interval boundaries are pinned
    (["paper", "--method", "rk", "--delta-max", "7.0", "--budget", "38",
      "--replications", "1", "--seed", "5"],
     "6cc2a83fcf5fd11e4c4578b73cc2b3aa3bde5316a17eea8a4c21e0c0d2bf92db"),
    # DIRECT with the heterogeneity penalty on top of the smoothing penalties
    ([*DESK, "--method", "direct", "--delta-max", "7.0"],
     "73b308d56354cb3502e7fdbeedea0f93ee741c1a155ba0d67f88d7165f5d90b4"),
    (["paper", "--method", "direct", "--budget", "38", "--replications", "1", "--seed", "5"],
     "b6bee8537da1f7cbf36c0fef6eb22d25b283215a303da6b1bcf08f193c2c8d41"),
]


@pytest.mark.parametrize("args,digest", GOLDEN,
                         ids=["rk", "rk-constrained", "direct", "paper-rk-constrained",
                              "direct-constrained", "paper-direct"])
def test_fixed_seed_samples_digest(tmp_path, capsys, args, digest):
    out = tmp_path / "run"
    assert main(["optimize", *args, "--out", str(out)]) == 0
    assert hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest() == digest


def test_fixed_seed_direct_digest_two_intervals(tmp_path, capsys):
    # desk with 60-minute intervals: m = 2, so DIRECT's first iteration
    # samples 9 points, fewer than the 10 its penalty weight averages over
    assert main(["optimize", "desk", "--print-config"]) == 0
    doc = yaml.safe_load(capsys.readouterr().out)
    doc["network"]["control"]["interval_minutes"] = 60
    scenario = tmp_path / "desk-m2.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    out = tmp_path / "run"
    assert main(["optimize", str(scenario), "--method", "direct", "--delta-max", "6.0",
                 "--budget", "22", "--replications", "1", "--seed", "5",
                 "--out", str(out)]) == 0
    assert (hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest()
            == "c32207aae5b86680034e4a28726bdad029272b7978167f82336fbb0770184859")


DISTANCE_ONLY = [
    # re-pinned when the initial plan's maximin draw moved to the free dimensions'
    # unit cube: with the draw over all 2m dimensions the run gives the old pin
    # c4c34e9d..., so only the plan moved the digest
    ("rk", "07a3b8476ad12fcc3e495fb3cadf054b0c9527aac097cdf956e2f54650e82649"),
    ("direct", "2de1fe0598a5e35a8b54476415397e85472435ecc002051e2ac3fdcc301ac17e"),
]


@pytest.mark.parametrize("method,digest", DISTANCE_ONLY, ids=["rk", "direct"])
def test_fixed_seed_distance_only_digest(tmp_path, capsys, method, digest):
    # a zero delay-rate bound fixes half the toll dimensions, so the map from
    # search points to toll rows runs with fixed dimensions
    assert main(["optimize", "desk", "--print-config"]) == 0
    doc = yaml.safe_load(capsys.readouterr().out)
    doc["problem"]["tau_max"] = [1.0, 0.0]
    scenario = tmp_path / "desk-distance-only.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    out = tmp_path / "run"
    assert main(["optimize", str(scenario), "--method", method, "--budget", "22",
                 "--replications", "1", "--seed", "5", "--out", str(out)]) == 0
    assert hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest() == digest


def _run_dir_digest(out) -> str:
    """One digest over intervals.csv, best.json and convergence.csv; each file's
    path is hashed before it, so a file that is missing (DIRECT writes no
    convergence.csv) is pinned too."""
    h = hashlib.sha256()
    for path in [out / "intervals.csv", out / "best.json", out / "convergence.csv"]:
        if path.exists():
            h.update(path.relative_to(out).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


GOLDEN_RUN_DIR = [
    # re-pinned when one intervals.csv replaced the evals/eval_NNNN.csv tables:
    # each run's intervals.csv, split back into those tables, gave the old pins
    # ae277fbd... and 5a8f5ece...
    ([*DESK, "--method", "rk", "--delta-max", "7.0"],
     "f45417cd849df54b448acd12a7e2e10f719b1c9ab221113d350b8ed1af8a5d25"),
    ([*DESK, "--method", "direct", "--delta-max", "7.0"],
     "679c2a12948a358c160122dfba774af50f54e487846bb4222cd73f84d8280e0b"),
]


@pytest.mark.parametrize("args,digest", GOLDEN_RUN_DIR, ids=["rk-constrained", "direct-constrained"])
def test_fixed_seed_run_dir_digest(tmp_path, capsys, args, digest):
    out = tmp_path / "run"
    assert main(["optimize", *args, "--out", str(out)]) == 0
    assert _run_dir_digest(out) == digest


def test_fixed_seed_validate_stdout_digest(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["optimize", *DESK, "--method", "rk", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["validate", str(out)]) == 0
    assert (hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
            == "388a12db417c5a129726ea900e6bae30aac91436d192b5dfbedc138852662952")


# the resolved scenario as --print-config writes it: its key order and float form, which
# config.yaml and run.json's config_digest also take
GOLDEN_PRINT_CONFIG = [
    ("desk", "b64a6224e4e7ac5bbb1adf2a8b0650915969e6718b41df962bd030e992ab95af"),
    ("paper", "debcc66cae6a15145a6d3e7937af181d4dadf19372398b5fe11762e48553ea11"),
]


@pytest.mark.parametrize("preset,digest", GOLDEN_PRINT_CONFIG, ids=["desk", "paper"])
def test_print_config_stdout_digest(capsys, preset, digest):
    assert main(["simulate", preset, "--print-config"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_fixed_seed_doe_plan_digest(tmp_path, capsys):
    plan = tmp_path / "plan.csv"
    assert main(["doe", "paper", "--seed", "3", "--out", str(plan)]) == 0
    assert (hashlib.sha256(plan.read_bytes()).hexdigest()
            == "a23185537673f70cad5c741b385255042859ea3be3d4ce0979db9f18e245d382")


def test_fixed_seed_compare_digest(tmp_path, capsys):
    # both methods' incumbent curves, rk first, as compare writes them
    out = tmp_path / "compare"
    assert main(["compare", "desk", "--budget", "22", "--replications", "1", "--seeds", "5",
                 "--out", str(out)]) == 0
    assert (hashlib.sha256((out / "comparison.csv").read_bytes()).hexdigest()
            == "1c6690a0865c5e8ccbb898f38568fd23a9b4d7f0b6d8e46731894258740d99ec")


PAPER_TOLL = "0.2,0.35,0.5,0.6,0.6,0.45,0.3,0.15,3,5,7,9,9,7,5,3"

# the per-step history path: every step's K, gamma, Delta and cell densities
GOLDEN_SIMULATE = [
    (["desk", "--seed", "7"],
     "50f6df5bfc27ee582eeb34829680ba9efd056f61dc19c256531c6e1dafebcf2e",
     "83200fc2af18eafd53502fa840d4b01ab8748568f7b7e6d56c135094d566fd55"),
    (["paper", "--seed", "11", "--toll", PAPER_TOLL],
     "6a29adcd10e25eecb0311c91a140f5eaff54652fad6549458cd9eb78e8db8d6c",
     "cb4d3cfb8ef521c719388de150269214afb88d1d26741add85b80cc8ffb283cf"),
]


@pytest.mark.parametrize("args,timeseries,summary", GOLDEN_SIMULATE,
                         ids=["desk-zero-toll", "paper-tolled"])
def test_fixed_seed_simulate_digests(tmp_path, capsys, args, timeseries, summary):
    out = tmp_path / "sim"
    assert main(["simulate", *args, "--out", str(out)]) == 0
    assert hashlib.sha256((out / "timeseries.csv").read_bytes()).hexdigest() == timeseries
    assert hashlib.sha256((out / "summary.json").read_bytes()).hexdigest() == summary
