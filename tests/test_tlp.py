import csv
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_desk_spec
from tollopt.cli import load_samples_csv, write_run_dir
from tollopt.ga import GAParams
from tollopt.simnet import desk_preset, simulate
from tollopt.tlp import (OptimizationRun, Samples, check_smoothing, constraint_value,
                         convergence_history, evaluate_toll, evaluate_tolls, objective_value,
                         optimize, replication_seeds, rk_step)
from tollopt.toll import Bounds, TollVector

FAST_GA = GAParams(population_size=20, generations=12)


def first(samples, n):
    """The first ``n`` points of ``samples``."""
    return Samples(*(getattr(samples, f.name)[:n] for f in fields(samples)))


def fake_result(kbar, dbar=None):
    """A one-lane result: ``(1, m)`` rows of interval means."""
    kbar = np.asarray(kbar, dtype=float)
    dbar = np.zeros_like(kbar) if dbar is None else np.asarray(dbar, dtype=float)
    return SimpleNamespace(interval_density=kbar[None], interval_deviation=dbar[None])


class TestObjectiveAndConstraint:
    def test_exact_tracking_scores_zero(self):
        results = [fake_result([25.0, 25.0, 25.0])] * 3
        assert objective_value(results, 25.0) == 0.0

    def test_hand_computed_average_gap(self):
        assert objective_value([fake_result([20.0, 30.0])], 25.0) == pytest.approx(5.0)

    def test_replication_mean(self):
        results = [fake_result([29.0, 29.0]), fake_result([31.0, 31.0])]
        assert objective_value(results, 25.0) == pytest.approx(5.0)

    def test_constraint_zero_and_hand_average(self):
        assert constraint_value([fake_result([1, 2], [0, 0])]) == 0.0
        assert constraint_value([fake_result([0] * 4, [2.0, 4.0, 6.0, 8.0])]) == pytest.approx(5.0)

    def test_empty_and_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            objective_value([], 25.0)
        with pytest.raises(ValueError):
            constraint_value([])
        with pytest.raises(ValueError):
            objective_value([fake_result([1, 2]), fake_result([1, 2, 3])], 25.0)


class TestSmoothing:
    def test_constant_pattern_is_feasible(self):
        toll = TollVector.constant(4, 0.7, 9.0).as_array()[None]
        assert check_smoothing(toll, 1.0 / 3.0, 5.0)[0]

    def test_jump_detected_with_location(self):
        for rates in ([0.0, 0.5, 0.5], [0.5, 0.5, 0.0]):    # first and last step
            toll = TollVector(np.array(rates), np.zeros(3)).as_array()[None]
            assert check_smoothing(toll, 0.33, 5.0).tolist() == [False]
            assert check_smoothing(toll, 0.5, 5.0).tolist() == [True]

    def test_delay_chain_checked_against_beta(self):
        toll = TollVector(np.zeros(3), np.array([0.0, 6.0, 6.0])).as_array()[None]
        assert check_smoothing(toll, 0.33, 5.0).tolist() == [False]
        assert check_smoothing(toll, 0.33, 6.0).tolist() == [True]


class TestConvergenceHistory:
    def run_with(self, values):
        spec = make_desk_spec()
        return OptimizationRun(spec=spec, method="rk", master_seed=0, rep_seeds=[0],
                               samples=[], acquisition_history=list(values),
                               rng=np.random.default_rng(0))

    def test_window_of_four_averages(self):
        _, avg = convergence_history(self.run_with([4.0, 0.0, 2.0, 2.0]))
        assert np.array_equal(avg, [2.0])

    def test_partial_window_policy(self):
        raw, avg = convergence_history(self.run_with([3.0, 5.0]))
        assert np.array_equal(avg, [4.0])
        raw, avg = convergence_history(self.run_with([4.0, 0.0, 2.0, 2.0, 6.0]))
        assert np.array_equal(avg, [2.0, 6.0])

    def test_decreasing_series_stays_decreasing(self):
        values = list(np.linspace(3.0, 0.0, 12))
        _, avg = convergence_history(self.run_with(values))
        assert all(b <= a for a, b in zip(avg, avg[1:]))

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            convergence_history(self.run_with([]))


class TestEvaluation:
    def test_common_random_numbers_are_reproducible(self):
        spec = make_desk_spec(replications=2)
        seeds = replication_seeds(7, 2)
        toll = TollVector.constant(spec.m, 0.3, 4.0).as_array()
        a = evaluate_toll(spec, toll, seeds)
        b = evaluate_toll(spec, toll, seeds)
        assert np.array_equal(a.objective_reps, b.objective_reps)
        assert a.objective[0] == b.objective[0]

    def test_records_hold_objective_and_constraint_of_their_replications(self):
        spec = make_desk_spec(replications=2)
        seeds = replication_seeds(3, 2)
        tolls = [TollVector.zero(spec.m), TollVector.constant(spec.m, 0.3, 4.0)]
        samples = evaluate_tolls(spec, np.array([toll.as_array() for toll in tolls]), seeds)
        for i, toll in enumerate(tolls):
            results = [simulate(spec.config, toll, seed) for seed in seeds]
            assert samples.objective[i] == objective_value(results, spec.k_cr)
            assert samples.constraint[i] == constraint_value(results)
            assert list(samples.objective_reps[i]) == [objective_value([r], spec.k_cr)
                                                       for r in results]
            assert list(samples.constraint_reps[i]) == [constraint_value([r]) for r in results]

    def test_replication_seed_layout(self):
        assert replication_seeds(3, 3) == [3000, 3001, 3002]


class TestSpecValidation:
    def test_budget_must_exceed_plan(self):
        with pytest.raises(ValueError, match="21"):
            make_desk_spec(budget=21)

    def test_paper_scale_counts(self):
        config = desk_preset()
        spec = make_desk_spec()
        assert spec.initial_plan_size == 21
        # m = 8 scenario: 37 initial points, budget 100 leaves 63 infill
        import dataclasses
        cfg8 = dataclasses.replace(config, interval_minutes=15.0)
        spec8 = make_desk_spec(config=cfg8, bounds=Bounds.uniform(8, 1.0, 15.0), budget=100)
        assert spec8.initial_plan_size == 37
        assert spec8.budget - spec8.initial_plan_size == 63

    def test_bad_smoothing_limits_rejected(self):
        with pytest.raises(ValueError):
            make_desk_spec(alpha=0.0)
        with pytest.raises(ValueError):
            make_desk_spec(replications=0)


@pytest.fixture(scope="module")
def small_run():
    spec = make_desk_spec(budget=25, replications=1, ga=FAST_GA)
    return optimize(spec, method="rk", seed=2)


class TestOptimizeSmallBudget:
    def test_budget_and_history_lengths(self, small_run):
        assert small_run.evaluations == 25
        assert len(small_run.samples) == 25
        assert len(small_run.acquisition_history) == 25 - 21

    def test_every_sample_is_feasible(self, small_run):
        spec = small_run.spec
        for x in small_run.samples.x:
            assert spec.bounds.contains(x, atol=1e-9)
        assert np.all(check_smoothing(small_run.samples.x, spec.alpha, spec.beta))

    def test_best_is_minimum_over_samples(self, small_run):
        objs = small_run.samples.objective
        assert objs[small_run.best_index] == min(objs)

    def test_best_so_far_is_nonincreasing(self, small_run):
        series = small_run.best_so_far()
        finite = series[np.isfinite(series)]
        assert all(b <= a for a, b in zip(finite, finite[1:]))

    def test_single_objective_mode_records_no_constraint_model(self, small_run):
        assert small_run.spec.delta_max is None
        assert small_run.method == "rk"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            optimize(make_desk_spec(), method="annealing", seed=0)

    def test_run_artifacts_round_trip(self, small_run, tmp_path):
        write_run_dir(small_run, tmp_path)
        assert (tmp_path / "samples.csv").exists()
        assert (tmp_path / "convergence.csv").exists()
        assert (tmp_path / "best.json").exists()
        # what validate reads back: the toll rows and the objective means, bit for bit
        x, objective = load_samples_csv(tmp_path / "samples.csv", small_run.spec.bounds)
        assert np.array_equal(x, small_run.samples.x)
        assert np.array_equal(objective, small_run.samples.objective)
        # one interval row per (index, rep, interval), in that order, whose K and Delta
        # give back every replication's objective and constraint in samples.csv
        n, reps, m = small_run.samples.interval_density_reps.shape
        intervals, samples = (_read_csv(tmp_path / name) for name in ("intervals.csv", "samples.csv"))
        assert [tuple(int(row[key]) for key in ("index", "rep", "interval")) for row in intervals] \
            == list(np.ndindex(n, reps, m))
        K, delta = (np.array([float(row[key]) for row in intervals]).reshape(n, reps, m)
                    for key in ("K_vpkmpl", "Delta_vpkmpl"))
        objective_reps, constraint_reps = (
            np.array([[float(row[f"{name}_rep{r}_vpkmpl"]) for r in range(reps)] for row in samples])
            for name in ("objective", "constraint"))
        assert np.array_equal(np.mean(np.abs(K - small_run.spec.k_cr), axis=-1), objective_reps)
        assert np.array_equal(np.mean(delta, axis=-1), constraint_reps)

    def test_reused_out_dir_holds_only_the_new_run(self, small_run, tmp_path):
        out = tmp_path / "run[1]"    # a name that a glob pattern would misread
        write_run_dir(small_run, out)
        shorter = OptimizationRun(spec=small_run.spec, method="direct", master_seed=2,
                                  rep_seeds=small_run.rep_seeds, samples=first(small_run.samples, 22),
                                  acquisition_history=[], rng=small_run.rng)
        write_run_dir(shorter, out)
        assert sorted(p.name for p in out.iterdir()) == ["best.json", "intervals.csv",
                                                         "samples.csv"]
        assert sorted({int(row["index"]) for row in _read_csv(out / "intervals.csv")}) \
            == list(range(22))


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("delta_max", [None, 7.0])
def test_the_run_carries_all_of_its_state(delta_max):
    # a run stopped at budget 23 and stepped on by hand to 25 is the budget-25 run
    spec = make_desk_spec(budget=25, replications=1, ga=FAST_GA, delta_max=delta_max)
    whole = optimize(spec, method="rk", seed=3)
    run = optimize(make_desk_spec(budget=23, replications=1, ga=FAST_GA, delta_max=delta_max),
                   method="rk", seed=3)
    run.spec = spec
    while run.evaluations < spec.budget:
        rk_step(run)
    assert np.array_equal(run.samples.x, whole.samples.x)
    assert np.array_equal(run.samples.objective_reps, whole.samples.objective_reps)
    assert run.acquisition_history == whole.acquisition_history
    assert run.best_index == whole.best_index


def test_direct_simulates_one_batch_per_iteration(monkeypatch):
    import tollopt.tlp as tlp

    lanes = []
    original = tlp.simulate_batch

    def counting(config, tolls, seeds):
        lanes.append(len(tolls))
        return original(config, tolls, seeds)

    monkeypatch.setattr(tlp, "simulate_batch", counting)
    run = optimize(make_desk_spec(budget=22, replications=1), method="direct", seed=5)
    # the center with the box's trisection, then one more iteration
    assert len(lanes) == 2
    assert sum(lanes) == run.evaluations == len(run.samples)



@pytest.fixture
def prefixed(monkeypatch):
    """The seeds of every untolled prefix the simulator runs, in order."""
    import tollopt.simnet as simnet

    seeds = []
    original = simnet._untolled_prefix

    def counting(config, lane_seeds, *args):
        seeds.extend(lane_seeds)
        return original(config, lane_seeds, *args)

    monkeypatch.setattr(simnet, "_untolled_prefix", counting)
    return seeds


@pytest.mark.parametrize("method", ["rk", "direct"])
def test_each_rep_seed_prefix_is_simulated_once_per_run(prefixed, method):
    spec = make_desk_spec(budget=22, replications=2, ga=FAST_GA)
    run = optimize(spec, method=method, seed=4)
    assert sorted(prefixed) == sorted(run.rep_seeds) == [4000, 4001]


def test_a_second_run_simulates_its_own_prefixes(prefixed):
    spec = make_desk_spec(budget=22, replications=2)
    first = optimize(spec, method="direct", seed=4)
    prefixed.clear()
    second = optimize(spec, method="direct", seed=4)
    assert sorted(prefixed) == [4000, 4001]
    assert np.array_equal(second.samples.objective, first.samples.objective)


@pytest.mark.parametrize("reps", [1, 2, 3, 8, 9, 17])
def test_sample_means_are_each_rows_mean_bit_for_bit(reps):
    # each point's mean used to be float(np.mean(row)) of its own replications;
    # 8 and 9, 17 cross the blocks of numpy's pairwise summation
    rng = np.random.default_rng(reps)
    wide = rng.uniform(0.0, 50.0, size=(7, 2 * reps + 1)) * 10.0 ** rng.integers(-3, 4, size=(7, 1))
    n = len(wide)
    # strided views of one wider table
    samples = Samples(x=np.zeros((n, 2)), objective_reps=wide[:, :reps],
                      constraint_reps=wide[:, reps + 1:], origin=np.full(n, "initial"),
                      interval_density_reps=np.zeros((n, reps, 1)),
                      interval_deviation_reps=np.zeros((n, reps, 1)))
    rest = Samples(*(getattr(samples, f.name)[3:] for f in fields(samples)))
    for s in (samples, Samples.concat([first(samples, 3), rest])):
        assert [float(v) for v in s.objective] == [float(np.mean(row)) for row in wide[:, :reps]]
        assert [float(v) for v in s.constraint] == [float(np.mean(row))
                                                    for row in wide[:, reps + 1:]]
