"""Golden runs: pinned digests of short fixed-seed optimizations and simulations.

A refactor that claims "same behaviour" must leave these digests unchanged.
A change that alters optimizer output on purpose updates them and says why.
"""

import hashlib

import pytest

from tollopt.cli import main

DESK = ["desk", "--budget", "22", "--replications", "1", "--seed", "5"]

GOLDEN = [
    ([*DESK, "--method", "rk"],
     "3a6feaaa9663670d1b277b1678f47badcab7e5b2008ffff7a43e6e2dec8ba6d7"),
    ([*DESK, "--method", "rk", "--delta-max", "7.0"],
     "8130125e3a84386917bd164e733dea5cdd2307cf762dc875b58ece5b95abd76a"),
    ([*DESK, "--method", "direct"],
     "f761da5db44da31c6ba3a8db492bb243427154d0541863b9c9b6b8ffe15a1fc9"),
    # paper scale: m = 8, so eight 15-minute interval boundaries are pinned
    (["paper", "--method", "rk", "--delta-max", "7.0", "--budget", "38",
      "--replications", "1", "--seed", "5"],
     "f80a15b6652239b381149ced613a64f799a251f18d2aeb3571dda6e2c66c6839"),
]


@pytest.mark.parametrize("args,digest", GOLDEN,
                         ids=["rk", "rk-constrained", "direct", "paper-rk-constrained"])
def test_fixed_seed_samples_digest(tmp_path, capsys, args, digest):
    out = tmp_path / "run"
    assert main(["optimize", *args, "--out", str(out)]) == 0
    assert hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest() == digest


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
