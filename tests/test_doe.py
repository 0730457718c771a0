import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from tollopt.cli import save_plan_csv
from tollopt.doe import (ANCHORS, MAXIMIN_CANDIDATES, build_initial_plan, initial_plan_size, lhs,
                         maximin_lhs)
from tollopt.toll import Bounds


def assert_stratified(plan):
    n, d = plan.shape
    for j in range(d):
        strata = np.sort(np.floor(plan[:, j] * n).astype(int))
        assert np.array_equal(strata, np.arange(n))


@given(n=st.integers(1, 40), d=st.integers(1, 12), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_lhs_stratification_property(n, d, seed):
    plan = lhs(n, d, np.random.default_rng(seed))
    assert plan.shape == (n, d)
    assert np.all(plan >= 0.0) and np.all(plan <= 1.0)
    assert_stratified(plan)


def test_lhs_four_points_one_dim_hit_distinct_quarters(rng):
    plan = lhs(4, 1, rng)
    quarters = np.sort(np.floor(plan[:, 0] * 4).astype(int))
    assert np.array_equal(quarters, [0, 1, 2, 3])


def test_lhs_two_points_two_dims_occupy_distinct_halves():
    plan = lhs(2, 2, np.random.default_rng(99))
    for j in range(2):
        halves = np.sort(np.floor(plan[:, j] * 2).astype(int))
        assert np.array_equal(halves, [0, 1])


def test_lhs_deterministic_under_fixed_seed():
    a = lhs(10, 16, np.random.default_rng(1))
    b = lhs(10, 16, np.random.default_rng(1))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n,d", [(0, 3), (3, 0), (0, 0)])
def test_lhs_rejects_empty_dimensions(n, d, rng):
    with pytest.raises(ValueError):
        lhs(n, d, rng)


def test_maximin_returns_best_of_retained_candidates():
    n, d, n_cand, seed = 5, 2, 50, 7
    chosen = maximin_lhs(n, d, n_cand, np.random.default_rng(seed))
    # regenerate the exact candidate stream and score it independently
    replay = np.random.default_rng(seed)
    candidates = [lhs(n, d, replay) for _ in range(n_cand)]
    dists = [np.min(pdist(c)) for c in candidates]
    assert np.min(pdist(chosen)) >= max(dists) - 1e-15
    first_argmax = int(np.argmax(dists))
    assert np.array_equal(chosen, candidates[first_argmax])


def test_maximin_single_candidate_is_plain_lhs_draw():
    a = maximin_lhs(6, 3, 1, np.random.default_rng(5))
    b = lhs(6, 3, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_maximin_two_points_one_dim_land_in_opposite_halves(rng):
    plan = maximin_lhs(2, 1, 10, rng)
    assert_stratified(plan)
    assert abs(plan[0, 0] - plan[1, 0]) > 0.0


def test_initial_plan_counts():
    bounds8 = Bounds.uniform(8, 1.0, 15.0)
    plan = build_initial_plan(8, bounds8, np.random.default_rng(0))
    assert len(plan) == 2 * (2 * 8 + 1) + 3 == 37
    bounds1 = Bounds.uniform(1, 1.0, 15.0)
    assert len(build_initial_plan(1, bounds1, np.random.default_rng(0))) == 9


def test_initial_plan_anchors_and_scaling():
    bounds = Bounds.uniform(8, 1.0, 15.0)
    assert np.all(bounds.upper[:8] == 1.0) and np.all(bounds.upper[8:] == 15.0)
    plan = build_initial_plan(8, bounds, np.random.default_rng(3))
    arrays = list(plan)
    for arr in arrays:
        assert bounds.contains(arr)
    assert np.array_equal(arrays[-3], bounds.lower)
    assert np.array_equal(arrays[-2], bounds.upper)
    assert np.array_equal(arrays[-1], bounds.midpoint())


def test_initial_plan_degenerate_bounds_raises():
    # a box with no free dimension has one point, and a plan of copies of it
    # could not be fitted
    with pytest.raises(ValueError, match="no free dimension"):
        build_initial_plan(2, Bounds(np.zeros(4), np.zeros(4)), np.random.default_rng(0))


def test_initial_plan_draws_over_the_free_dimensions_only():
    # the distance-only desk box: the delay rates are fixed at 0, so the
    # maximin plan is drawn in the unit cube of the 4 distance rates
    m = 4
    bounds = Bounds.uniform(m, 1.0, 0.0)
    plan = build_initial_plan(m, bounds, np.random.default_rng(5))
    unit = maximin_lhs(initial_plan_size(m) - ANCHORS, m, MAXIMIN_CANDIDATES,
                       np.random.default_rng(5))
    filling, lo, hi = plan[:-ANCHORS], bounds.lower[:m], bounds.upper[:m]
    assert np.array_equal(filling[:, :m], lo + unit * (hi - lo))
    assert np.array_equal(filling[:, m:], np.broadcast_to(bounds.lower[m:], (len(filling), m)))


def test_plan_csv_round_trip(tmp_path):
    bounds = Bounds.uniform(2, 1.0, 15.0)
    plan = build_initial_plan(2, bounds, np.random.default_rng(11))
    path = tmp_path / "plan.csv"
    save_plan_csv(plan, path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["v_1", "v_2", "w_1", "w_2"]
    assert len(rows) == len(plan)
    for toll, row in zip(plan, rows):
        assert np.array_equal(toll, [float(x) for x in row])
