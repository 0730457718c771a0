import math

import numpy as np
import pytest

import tollopt.direct as direct_mod
from tollopt.direct import direct_minimize, quadratic_penalty


def batched(f):
    """The vectorized objective DIRECT takes, built from a one-point ``f``."""
    return lambda X: np.array([f(x) for x in X])


def jones_oracle(levels, fvals, f_min, eps):
    """Independent potentially-optimal check: for each rectangle, derive the
    feasible interval for the rate constant K from the pairwise inequalities
    and test whether it intersects (0, inf).  Returns positions."""
    diams = [0.5 * float(np.linalg.norm(np.sort(3.0 ** -row))) for row in levels]
    selected = []
    for j, (dj, fj) in enumerate(zip(diams, fvals)):
        if not np.isfinite(fj):
            continue
        k_lo = (fj - f_min + eps * abs(f_min)) / dj
        k_hi = math.inf
        ok = True
        for i, (di, fi) in enumerate(zip(diams, fvals)):
            if i == j:
                continue
            if di == dj:
                if fi < fj:
                    ok = False
                    break
            elif di < dj:
                k_lo = max(k_lo, (fj - fi) / (dj - di))
            else:
                k_hi = min(k_hi, (fi - fj) / (di - dj))
        if ok and k_hi > 0.0 and k_lo <= k_hi:
            selected.append(j)
    return selected


def test_first_evaluation_is_the_box_center():
    calls = []

    def f(x):
        calls.append(x.copy())
        return (x[0] - 0.3) ** 2

    direct_minimize(batched(f), (np.zeros(1), np.ones(1)), max_evals=1)
    assert len(calls) == 1
    assert calls[0][0] == pytest.approx(0.5)


def test_quadratic_minimized_within_budget():
    calls = []

    def f(x):
        calls.append(float(x[0]))
        return (x[0] - 0.3) ** 2

    point, value, history = direct_minimize(batched(f), (np.zeros(1), np.ones(1)),
                                            max_evals=50)
    assert calls[0] == pytest.approx(0.5)
    assert f(np.array([0.5])) == pytest.approx(0.04)
    assert abs(point[0] - 0.3) <= 1e-2
    assert len(calls) - 1 <= 50 + 20      # completes the final iteration only


def test_runs_are_deterministic():
    seq_a, seq_b = [], []

    def make_f(seq):
        def f(x):
            seq.append(tuple(np.round(x, 12)))
            return float(np.sin(5 * x[0]) * np.cos(3 * x[1]) + x[0])
        return f

    ra = direct_minimize(batched(make_f(seq_a)), (np.zeros(2), np.ones(2)), max_evals=60)
    rb = direct_minimize(batched(make_f(seq_b)), (np.zeros(2), np.ones(2)), max_evals=60)
    assert seq_a == seq_b
    assert np.array_equal(ra[0], rb[0]) and ra[1] == rb[1]


def test_history_accrues_in_iteration_bursts():
    _, _, history = direct_minimize(batched(lambda x: (x[0] - 0.3) ** 2 + (x[1] - 0.6) ** 2),
                                    (np.zeros(2), np.ones(2)), max_evals=50)
    evals = [e for e, _ in history]
    assert evals[0] == 1
    diffs = np.diff(evals)
    assert np.all(diffs >= 2)              # each iteration samples at least one pair
    best = [v for _, v in history]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))


def test_incumbent_monotone_and_budget_overshoot_bounded():
    count = {"n": 0}

    def f(x):
        count["n"] += 1
        return float(np.sum((x - 0.37) ** 2))

    _, _, history = direct_minimize(batched(f), (np.zeros(3), np.ones(3)), max_evals=40)
    assert history[-1][0] == count["n"]
    assert count["n"] >= 40                # budget exhausted
    assert count["n"] - history[-2][0] <= 6 * 3 * 2 * 10  # one iteration of overshoot


def test_selection_matches_jones_oracle_on_every_iteration(monkeypatch):
    snapshots = []
    original = direct_mod.potentially_optimal

    def recording(levels, fvals, f_min, eps):
        result = original(levels, fvals, f_min, eps)
        snapshots.append((levels.copy(), fvals.copy(), f_min, eps, list(result)))
        return result

    monkeypatch.setattr(direct_mod, "potentially_optimal", recording)
    direct_minimize(batched(lambda x: (x[0] - 0.21) ** 2 + 2.0 * (x[1] - 0.67) ** 2),
                    (np.zeros(2), np.ones(2)), max_evals=50)
    assert len(snapshots) >= 3
    for levels, fvals, f_min, eps, selected in snapshots:
        assert selected == sorted(jones_oracle(levels, fvals, f_min, eps))


def test_partition_tiles_the_box_with_distinct_centers(monkeypatch):
    snapshots = []
    original = direct_mod.potentially_optimal

    def recording(levels, fvals, f_min, eps):
        snapshots.append(levels.copy())
        return original(levels, fvals, f_min, eps)

    monkeypatch.setattr(direct_mod, "potentially_optimal", recording)
    calls = []

    def f(x):
        calls.append(tuple(np.round(x, 12)))
        return float(np.sum((x - 0.3) ** 2))

    direct_minimize(batched(f), (np.zeros(2), np.ones(2)), max_evals=80)
    volumes = np.prod(3.0 ** -snapshots[-1], axis=1)
    assert float(np.sum(volumes)) == pytest.approx(1.0, rel=1e-9)
    # each rectangle's center is sampled once, when the rectangle is made
    assert len(set(calls)) == len(calls)


def test_zero_width_dimensions_are_held_at_their_bounds():
    def record(calls):
        def f(X):
            calls.append(X.copy())
            return np.sum((X[:, [0, -1]] - 0.3) ** 2, axis=1)     # blind to a held middle
        return f

    full, held = [], []
    reference = direct_minimize(record(full), (np.zeros(2), np.ones(2)), max_evals=40)
    point, value, history = direct_minimize(
        record(held), (np.array([0.0, 2.0, 0.0]), np.array([1.0, 2.0, 1.0])), max_evals=40)
    # the search over the free dimensions is the 2-D search, point for point
    assert all(np.array_equal(X[:, [0, 2]], Y) and np.all(X[:, 1] == 2.0)
               for X, Y in zip(held, full, strict=True))
    assert np.array_equal(point[[0, 2]], reference[0]) and point[1] == 2.0
    assert (value, history) == reference[1:]
    single = []
    direct_minimize(record(single), (np.full(2, 0.5), np.full(2, 0.5)), max_evals=10)
    assert [X.tolist() for X in single] == [[[0.5, 0.5]]]


def test_non_finite_values_never_become_potentially_optimal():
    def f(x):
        if x[0] < 0.33:
            return math.nan
        return float(x[0])

    point, value, _ = direct_minimize(batched(f), (np.zeros(1), np.ones(1)), max_evals=30)
    assert np.isfinite(value)
    assert point[0] >= 0.33


def test_invalid_budget_rejected():
    with pytest.raises(ValueError):
        direct_minimize(batched(lambda x: 0.0), (np.zeros(1), np.ones(1)), max_evals=0)


def test_one_call_per_iteration():
    sizes = []

    def f(X):
        sizes.append(len(X))
        return np.sum((X - 0.37) ** 2, axis=1)

    _, _, history = direct_minimize(f, (np.zeros(3), np.ones(3)), max_evals=40)
    # the center's entry, then one entry per call at the running total; the
    # first call holds the center as well as the first iteration's points
    assert [e for e, _ in history] == [1, *np.cumsum(sizes).tolist()]


def test_first_call_is_the_center_then_the_box_trisection():
    calls = []

    def f(X):
        calls.append(X.copy())
        return np.zeros(len(X))

    lower, upper = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 3.0, 5.0])
    direct_minimize(f, (lower, upper), max_evals=10)
    units = [np.full(3, 0.5)]
    for dim in range(3):
        for sign in (+1, -1):
            u = np.full(3, 0.5)
            u[dim] += sign * 3.0 ** -1
            units.append(u)
    assert np.array_equal(calls[0], lower + np.array(units) * (upper - lower))


def test_single_evaluation_is_one_one_row_call():
    shapes = []

    def f(X):
        shapes.append(X.shape)
        return np.zeros(len(X))

    _, _, history = direct_minimize(f, (np.zeros(2), np.ones(2)), max_evals=1)
    assert shapes == [(1, 2)]
    assert history == [(1, 0.0)]


def test_non_finite_center_does_not_end_the_search():
    # the whole box is divided in the center's own batch, so a NaN there
    # still leaves finite trisection points to select from
    def f(x):
        return math.nan if np.all(x == 0.5) else float(np.sum((x - 0.3) ** 2))

    point, value, history = direct_minimize(batched(f), (np.zeros(2), np.ones(2)),
                                            max_evals=30)
    assert history[0] == (1, math.inf)
    assert np.isfinite(value) and history[-1][0] >= 30
    assert value == pytest.approx(float(np.sum((point - 0.3) ** 2)))


def test_objective_must_return_one_value_per_point():
    with pytest.raises(ValueError, match="shape"):
        direct_minimize(lambda X: np.zeros((len(X), 1)), (np.zeros(2), np.ones(2)), max_evals=9)


class TestPenalizedObjective:
    def test_feasible_point_passes_through(self):
        x = np.array([[2.0]])
        assert quadratic_penalty(x[:, 0], [x[:, 0] - 10.0], rho=100.0).tolist() == [2.0]

    def test_quadratic_penalty_hand_value(self):
        # adjacent rates 0 and 1 against a 0.33 limit at weight 100
        alpha = 0.33
        x = np.array([[0.0, 1.0]])
        g = quadratic_penalty(np.zeros(1), [np.abs(x[:, 0] - x[:, 1]) - alpha], rho=100.0)
        assert g[0] == pytest.approx(100.0 * (1.0 - 0.33) ** 2)
        assert g[0] == pytest.approx(44.89)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            quadratic_penalty(np.zeros(1), [], rho=0.0)
        with pytest.raises(ValueError):
            quadratic_penalty(np.zeros(1), [], rho=-1.0)

    def test_matches_the_scalar_sum_bit_for_bit(self):
        # with numpy's ** 2 in place of float_power, two of these sums differ
        rng = np.random.default_rng(3)
        values, excess, rho = rng.normal(size=3000), rng.uniform(-1, 3, size=(4, 3000)), 1234.5678
        expected = []
        for i, v in enumerate(values):
            total = float(v)
            for row in excess:
                total += rho * max(0.0, float(row[i])) ** 2
            expected.append(total)
        assert quadratic_penalty(values, excess, rho).tolist() == expected
