"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The end-to-end runs are
shared between criteria through module-scoped fixtures.
"""

import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from scipy.integrate import quad
from scipy.stats import multivariate_normal, norm

from conftest import make_desk_spec
from tollopt.cli import main as cli_main
from tollopt.doe import build_initial_plan, lhs, maximin_lhs
from tollopt.ga import GAParams
from tollopt.infill import constrained_ei, expected_improvement, prob_feasible
from tollopt.simnet import (config_to_dict, desk_preset, envelope_gamma,
                            fit_lower_envelope, simulate, simulate_batch,
                            spatial_spread)
from tollopt.surrogate import (corr_vector, fit, fit_fixed, log_likelihood,
                               loo_cv, predict)
from tollopt.tlp import (ProblemSpec, check_smoothing, convergence_history,
                         optimize, replication_seeds)
from tollopt.toll import Bounds, TollVector

from test_direct import batched, jones_oracle  # reuse the independent selection oracle
import tollopt.direct as direct_mod
from tollopt.direct import direct_minimize

UNIT2 = Bounds(np.zeros(2), np.ones(2))


def sample(run, i):
    """Sample ``i`` of a run: its toll row ``x``, objective and constraint."""
    return SimpleNamespace(x=run.samples.x[i], objective=float(run.samples.objective[i]),
                           constraint=float(run.samples.constraint[i]))


def best(run):
    return sample(run, run.best_index)


def zero_toll(run):
    return sample(run, next(i for i, x in enumerate(run.samples.x) if np.allclose(x, 0.0)))


def report(num, message):
    print(f"\ncriterion {num:02d}: PASS — {message}")


@pytest.fixture(scope="module")
def single_objective_run():
    spec = make_desk_spec(budget=60, replications=2)
    start = time.time()
    run = optimize(spec, method="rk", seed=11)
    return run, time.time() - start


@pytest.fixture(scope="module")
def constrained_run(single_objective_run):
    run1, _ = single_objective_run
    zero = zero_toll(run1)
    delta_max = 0.5 * (zero.constraint + best(run1).constraint)
    spec = make_desk_spec(budget=60, replications=2, delta_max=delta_max)
    start = time.time()
    run = optimize(spec, method="rk", seed=12)
    return run, delta_max, time.time() - start


def test_criterion_01_kriging_interpolation_exactness():
    start = time.time()
    rng = np.random.default_rng(0)
    pts = lhs(20, 2, rng)
    ys = np.sin(3 * pts[:, 0]) + (pts[:, 1] - 0.4) ** 2
    model = fit(pts, ys, UNIT2, lambda_bounds=(0.0, 0.0),
                ga_params=GAParams(population_size=30, generations=20), rng=rng)
    preds = predict(model, pts)
    for i in range(20):
        assert abs(preds.mean[i] - ys[i]) <= 1e-6 * (1.0 + abs(ys[i]))
        assert preds.variance[i] <= 1e-8 * model.sigma2_hat
    elapsed = time.time() - start
    assert elapsed < 5.0
    worst = float(np.max(np.abs(preds.mean - ys) / (1.0 + np.abs(ys))))
    report(1, f"interpolation exact at 20/20 points (worst rel err {worst:.1e}, {elapsed:.1f}s)")


def test_criterion_02_likelihood_matches_dense_normal_oracle():
    start = time.time()
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 50:
        n = int(rng.integers(3, 21))
        d = int(rng.integers(1, 5))
        design = rng.uniform(size=(n, d))
        y = rng.normal(size=n)
        theta = 10.0 ** rng.uniform(-2, 1.5, size=d)
        lam = 10.0 ** rng.uniform(-6, 0)
        ours = log_likelihood(design, y, theta[None], np.array([lam]))[0]
        r = corr_vector(design, theta, design) + lam * np.eye(n)
        rinv = np.linalg.inv(r)
        ones = np.ones(n)
        mu = (ones @ rinv @ y) / (ones @ rinv @ ones)
        sigma2 = (y - mu) @ rinv @ (y - mu) / n
        oracle = multivariate_normal.logpdf(y, mean=mu * ones, cov=sigma2 * r)
        assert ours == pytest.approx(oracle, rel=1e-8)
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(2, f"50 random hyperparameter draws match the dense log-density ({elapsed:.1f}s)")


def test_criterion_03_ei_equals_quadrature():
    start = time.time()
    gaps = np.linspace(-5.0, 5.0, 20)
    sigmas = np.geomspace(1e-3, 10.0, 20)
    worst = 0.0
    for gap in gaps:           # gap = prediction minus incumbent
        for s in sigmas:
            closed = expected_improvement(gap, s * s, 0.0)
            # integrate only where the Gaussian mass lives, otherwise the
            # adaptive rule can step right over a narrow peak
            lo, hi = gap - 14.0 * s, min(0.0, gap + 14.0 * s)
            if hi <= lo:
                oracle = 0.0   # mass entirely above the incumbent
            else:
                oracle, _ = quad(lambda u: (0.0 - u) * norm.pdf(u, loc=gap, scale=s),
                                 lo, hi, limit=400, epsabs=1e-12, epsrel=1e-12)
            worst = max(worst, abs(closed - max(oracle, 0.0)))
            assert closed == pytest.approx(max(oracle, 0.0), abs=1e-8)
    assert expected_improvement(1.0, 0.0, 0.0) == 0.0
    assert expected_improvement(-1.0, 0.0, 0.0) == 0.0
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(3, f"closed form within {worst:.1e} of quadrature on the 20x20 grid; "
              f"EI(s=0)=0 exactly ({elapsed:.1f}s)")


def test_criterion_04_reinterpolation_annihilation():
    rng = np.random.default_rng(3)
    pts = lhs(18, 2, rng)
    ys = np.cos(4 * pts[:, 0]) + pts[:, 1]
    grid = lhs(50, 2, np.random.default_rng(4))
    for lam in (0.01, 0.1, 1.0):
        model = fit_fixed(pts, ys, UNIT2, theta=np.array([3.0, 3.0]), lam=lam)
        preds = predict(model, pts)
        assert np.all(preds.ri_variance <= 1e-10 * max(model.sigma2_ri, 1e-300))
        y_min = float(np.min(ys))
        ei_train = expected_improvement(preds.mean, preds.ri_variance, y_min)
        off = predict(model, grid)
        ei_scale = float(np.max(expected_improvement(off.mean, off.ri_variance, y_min)))
        assert np.all(ei_train <= 1e-10 * max(ei_scale, 1e-300))
    report(4, "reinterpolation variance and EI vanish at all training points "
              "for lambda in {0.01, 0.1, 1}")


def test_criterion_05_constrained_ei_dominated_and_symmetric():
    rng = np.random.default_rng(5)
    ei = rng.uniform(0.0, 3.0, size=400)
    means = rng.uniform(-10.0, 10.0, size=400)
    variances = rng.uniform(0.0, 9.0, size=400)
    p = prob_feasible(means, variances, 2.0)
    assert np.all(constrained_ei(ei, p) <= ei + 1e-15)
    for s2 in (1e-6, 0.3, 4.0, 100.0):
        assert prob_feasible(8.0, s2, 8.0) == pytest.approx(0.5, abs=1e-12)
    report(5, "product acquisition never exceeds EI; boundary probability is exactly 1/2")


def test_criterion_06_design_of_experiments():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 25))
        d = int(rng.integers(1, 10))
        plan = lhs(n, d, rng)
        for j in range(d):
            strata = np.sort(np.floor(plan[:, j] * n).astype(int))
            assert np.array_equal(strata, np.arange(n))
    # maximin selection against the regenerated candidate set
    from scipy.spatial.distance import pdist
    chosen = maximin_lhs(6, 3, 40, np.random.default_rng(19))
    replay = np.random.default_rng(19)
    dists = [np.min(pdist(lhs(6, 3, replay))) for _ in range(40)]
    assert np.min(pdist(chosen)) == pytest.approx(max(dists), abs=0.0)
    plan8 = build_initial_plan(8, Bounds.uniform(8, 1.0, 15.0), np.random.default_rng(2))
    assert len(plan8) == 37
    report(6, "stratification held in 200/200 plans; maximin verified; m=8 plan has 37 points")


def test_criterion_07_direct_correctness(monkeypatch):
    start = time.time()
    snapshots = []
    original = direct_mod.potentially_optimal

    def recording(levels, fvals, f_min, eps):
        result = original(levels, fvals, f_min, eps)
        snapshots.append((levels.copy(), fvals.copy(), f_min, eps, list(result)))
        return result

    monkeypatch.setattr(direct_mod, "potentially_optimal", recording)
    calls = []

    def f2(x):
        calls.append(x.copy())
        return (x[0] - 0.21) ** 2 + 2.0 * (x[1] - 0.67) ** 2

    direct_minimize(batched(f2), 2, max_evals=50)
    assert np.array_equal(calls[0], [0.5, 0.5])
    assert len(snapshots) >= 3
    for levels, fvals, f_min, eps, selected in snapshots:
        assert selected == sorted(jones_oracle(levels, fvals, f_min, eps))

    point, value, _ = direct_minimize(batched(lambda x: (x[0] - 0.3) ** 2), 1, max_evals=50)
    assert abs(point[0] - 0.3) <= 1e-2
    elapsed = time.time() - start
    assert elapsed < 2.0
    report(7, f"selection matched the brute-force check on {len(snapshots)} iterations; "
              f"center first; quadratic solved to {abs(point[0]-0.3):.1e} ({elapsed:.1f}s)")


def test_criterion_08_simulator_physics():
    start = time.time()
    config = desk_preset()
    m = config.m

    zero = simulate(config, TollVector.zero(m), seed=1000)
    series = zero.history
    density, gamma, k_cells = zero.network_density[0], zero.gamma[0], series["k_cells"][0]
    lane_km = config.cell_lengths * config.cell_lanes
    gap = abs(series["arrivals"][0].sum() - series["exited"][0].sum()
              - float(k_cells[-1] @ lane_km) - series["queue"][0][-1])
    assert gap <= 1e-6
    assert np.all(k_cells >= 0.0)
    assert np.all(k_cells <= config.jam_density[None, :] + 1e-9)

    # step start times (s), the t_s column that ``tollopt simulate`` writes
    t = np.arange(density.size) * (config.step_seconds / 3600.0) * 3600.0
    hours = t / 3600.0
    final_hour = density[hours >= 3.0]
    assert float(np.mean(final_hour)) > config.k_cr
    assert np.all(zero.interval_density[0] > config.k_cr)

    # hysteresis: unloading spread above loading spread at matched density bins
    ema = np.empty_like(density)
    acc = 0.0
    alpha = config.step_seconds / 300.0
    for i, k in enumerate(density):
        ema[i] = acc
        acc += alpha * (k - acc)
    unloading = density < ema - 0.5
    bins = (density // 5).astype(int)
    matched = []
    for b in sorted(set(bins)):
        g_load = gamma[(bins == b) & ~unloading]
        g_unload = gamma[(bins == b) & unloading]
        if g_load.size >= 10 and g_unload.size >= 10:
            matched.append((b * 5, float(np.mean(g_load)), float(np.mean(g_unload))))
    assert len(matched) >= 3
    assert all(unload > load for _, load, unload in matched)

    # monotonicity: uniformly higher toll never increases window inflow
    rng = np.random.default_rng(7)
    hi_box = np.r_[np.full(m, 1.0), np.full(m, 15.0)]
    window = hours >= config.tolling_window[0]
    for trial in range(20):
        lo = rng.uniform(0, 1, size=2 * m) * hi_box
        hi = lo + rng.uniform(0, 1, size=2 * m) * (hi_box - lo)
        low_run = simulate(config, TollVector.from_array(lo), seed=500 + trial)
        high_run = simulate(config, TollVector.from_array(hi), seed=500 + trial)
        assert (high_run.history["pz_demand"][0][window].sum()
                <= low_run.history["pz_demand"][0][window].sum() + 1e-6)
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(8, f"conservation {gap:.1e} veh; bounds held; 20/20 monotone pairs; "
              f"final-hour K {np.mean(final_hour):.1f} > {config.k_cr}; "
              f"hysteresis on {len(matched)} bins ({elapsed:.1f}s)")


def test_criterion_09_spread_deviation_and_envelope():
    rng = np.random.default_rng(13)
    for _ in range(30):
        k = rng.uniform(0, 90, size=8)
        lengths = rng.uniform(0.1, 2.0, size=8)
        lanes = rng.integers(1, 5, size=8).astype(float)
        gamma, mean = spatial_spread(k, lengths, lanes)
        w = lengths * lanes
        mean_direct = float(np.sum(k * w) / np.sum(w))
        var_direct = float(np.sum(w * (k - mean_direct) ** 2) / np.sum(w))
        assert mean == pytest.approx(mean_direct, abs=1e-12)
        assert gamma ** 2 == pytest.approx(var_direct, abs=1e-12)
    gamma, mean = spatial_spread([10.0, 20.0], [1.0, 1.0], [3.0, 3.0])
    assert (mean, gamma) == (pytest.approx(15.0), pytest.approx(5.0))
    planted = (-2.5e-4, 6.0e-3, 1.4)
    ks = np.linspace(1.0, 60.0, 300)
    fitted = fit_lower_envelope([(k, envelope_gamma(k, planted)) for k in ks])
    for got, want in zip(fitted, planted):
        assert got == pytest.approx(want, rel=1e-6)
    report(9, "weighted variance matches direct computation; two-cell case gives (15, 5); "
              "planted cubic recovered to 1e-6")


def test_criterion_10_single_objective_problem(single_objective_run):
    run, elapsed = single_objective_run
    spec = run.spec
    zero = zero_toll(run)
    assert best(run).objective < zero.objective
    assert np.all(check_smoothing(run.samples.x, spec.alpha, spec.beta))
    for x in run.samples.x:
        assert spec.bounds.contains(x, atol=1e-9)
    reps = [simulate(spec.config, TollVector.from_array(best(run).x), s) for s in run.rep_seeds]
    window_mean = float(np.mean([r.interval_density[0].mean() for r in reps]))
    assert 0.8 * spec.k_cr <= window_mean <= 1.2 * spec.k_cr
    assert elapsed < 300.0
    report(10, f"best {best(run).objective:.2f} < zero-toll {zero.objective:.2f}; "
               f"all 60 samples feasible; window density {window_mean:.1f} "
               f"within 20% of {spec.k_cr} ({elapsed:.0f}s)")


def test_criterion_11_constrained_problem(single_objective_run, constrained_run):
    run1, _ = single_objective_run
    run2, delta_max, elapsed = constrained_run
    zero = zero_toll(run1)
    assert zero.constraint < delta_max < best(run1).constraint   # bracketing held
    assert best(run2).constraint <= delta_max
    assert best(run1).objective < best(run2).objective
    assert best(run1).constraint > best(run2).constraint
    assert elapsed < 300.0
    report(11, f"limit {delta_max:.2f} bracketed in ({zero.constraint:.2f}, "
               f"{best(run1).constraint:.2f}); constrained best obj {best(run2).objective:.2f} "
               f"/ con {best(run2).constraint:.2f}; trade-off direction holds ({elapsed:.0f}s)")


def test_criterion_12_validation_suite(single_objective_run):
    run, _ = single_objective_run
    model = fit(run.samples.x, run.samples.objective, run.spec.bounds,
                rng=np.random.default_rng(5))
    records = loo_cv(model)
    usable = [r for r in records if not r.degenerate]
    inside = [r for r in usable if abs(r.standardized_residual) <= 3.0]
    share = len(inside) / len(usable)
    assert share >= 0.90

    raw, averaged = convergence_history(run, window=4)
    quarter = max(1, int(np.ceil(averaged.size / 4)))
    first = float(np.mean(averaged[:quarter]))
    last = float(np.mean(averaged[-quarter:]))
    assert last < first
    report(12, f"{len(inside)}/{len(usable)} residuals within [-3, 3]; "
               f"EI moving average fell from {first:.3f} to {last:.3f}")


def test_criterion_13_rk_vs_direct_against_grid_oracle(tmp_path):
    start = time.time()
    config = dataclasses.replace(desk_preset(), interval_minutes=120.0, k_cr=12.0)
    spec = ProblemSpec(config=config, bounds=Bounds.uniform(1, 1.0, 15.0),
                       alpha=1.0 / 3.0, beta=5.0, replications=1, budget=30)
    seed = 21
    rep_seed = replication_seeds(seed, 1)[0]
    best_grid = np.inf
    for v in np.linspace(0.0, 1.0, 50):
        row = np.array([[v, w] for w in np.linspace(0.0, 15.0, 50)])
        batch = simulate_batch(config, row, [rep_seed] * len(row))
        for density in batch.interval_density:
            best_grid = min(best_grid, float(np.mean(np.abs(density - config.k_cr))))

    run_rk = optimize(spec, method="rk", seed=seed)
    run_direct = optimize(spec, method="direct", seed=seed)
    gap_rk = abs(best(run_rk).objective - best_grid) / best_grid
    gap_direct = abs(best(run_direct).objective - best_grid) / best_grid
    assert gap_rk <= 0.10
    assert gap_direct <= 0.10

    # the comparison artifact carries one labelled curve per method run
    doc = config_to_dict(config)
    doc["problem"] = {"tau_min": [0.0, 0.0], "tau_max": [1.0, 15.0],
                      "alpha": 1.0 / 3.0, "beta": 5.0, "replications": 1,
                      "budget": 30, "delta_max": None}
    cfg_path = tmp_path / "restricted.yaml"
    cfg_path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "cmp"
    assert cli_main(["compare", str(cfg_path), "--seeds", str(seed),
                     "--out", str(out)]) == 0
    rows = (out / "comparison.csv").read_text().splitlines()[1:]
    labels = {line.split(",")[1] for line in rows}
    assert labels == {f"rk-seed{seed}", f"direct-seed{seed}"}
    elapsed = time.time() - start
    assert elapsed < 600.0
    report(13, f"grid oracle {best_grid:.3f}; RK gap {gap_rk:.1%}, DIRECT gap "
               f"{gap_direct:.1%}; comparison CSV has one curve per run ({elapsed:.0f}s)")
