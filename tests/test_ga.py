from collections import Counter

import numpy as np
import pytest
from scipy.stats import binom

from tollopt.ga import CROSSOVER_RATE, ELITISM, GAParams, ga_maximize


def batched(f):
    """The generation-at-a-time objective the GA takes, built from a one-point ``f``."""
    return lambda X: np.array([f(x) for x in X])


def test_one_dim_quadratic_peak_located():
    best_x, best_f = ga_maximize(batched(lambda x: -(x[0] - 0.7) ** 2),
                                 (np.zeros(1), np.ones(1)), rng=np.random.default_rng(0))
    assert abs(best_x[0] - 0.7) < 0.01
    assert best_f <= 0.0


def test_constant_objective_returns_a_box_point():
    best_x, best_f = ga_maximize(batched(lambda x: 3.5),
                                 (np.array([-1.0, 2.0]), np.array([1.0, 4.0])),
                                 rng=np.random.default_rng(1))
    assert best_f == 3.5
    assert -1.0 <= best_x[0] <= 1.0 and 2.0 <= best_x[1] <= 4.0


def test_sphere_two_dim_within_small_budget():
    # 182 evaluations: 20 individuals, then 9 generations of 18 children
    params = GAParams(population_size=20, generations=10)
    best_x, best_f = ga_maximize(batched(lambda x: -np.sum((x - 0.5) ** 2)),
                                 (np.zeros(2), np.ones(2)),
                                 params=params, rng=np.random.default_rng(2))
    assert best_f >= -1e-3


def test_one_call_per_generation():
    params = GAParams(population_size=12, generations=7)
    sizes = []

    def f(X):
        sizes.append(X.shape)
        return -np.sum(X ** 2, axis=1)

    ga_maximize(f, (np.zeros(3), np.ones(3)), params=params, rng=np.random.default_rng(3))
    assert len(sizes) == params.generations
    assert sizes == [(12, 3)] + [(12 - ELITISM, 3)] * (params.generations - 1)


def test_operator_rates_match_the_constants():
    # A constant objective makes every tournament a uniform draw.  A child of
    # the first generation keeps its first parent's genes when it is not
    # crossed, or is crossed with that same row (a zero-width blend), and then
    # each gene survives mutation with probability 1 - 1/d.
    pop, d = 20000, 4
    calls = []

    def f(X):
        calls.append(X.copy())
        return np.zeros(len(X))

    ga_maximize(f, (np.zeros(d), np.ones(d)), params=GAParams(pop, 2),
                rng=np.random.default_rng(8))
    initial, children = calls
    row_of = [dict(zip(initial[:, j], range(pop))) for j in range(d)]

    def genes_kept(child):
        rows = [row_of[j][v] for j, v in enumerate(child) if v in row_of[j]]
        return max(Counter(rows).values(), default=0)

    kept = np.array([genes_kept(child) for child in children])
    uncrossed = (1.0 - CROSSOVER_RATE) + CROSSOVER_RATE / pop
    n = len(children)
    for genes, p in ((d, uncrossed * (1 - 1 / d) ** d),               # an exact copy
                     (d - 1, uncrossed * (1 - 1 / d) ** (d - 1))):    # one gene mutated
        lo, hi = binom.interval(1 - 1e-6, n, p)
        assert lo <= np.sum(kept == genes) <= hi


def test_returned_best_matches_archive_maximum_and_is_deterministic():
    seen = []

    def f(x):
        val = float(np.sin(5 * x[0]) + x[1])
        seen.append(val)
        return val

    best_x1, best_f1 = ga_maximize(batched(f), (np.zeros(2), np.ones(2)),
                                   rng=np.random.default_rng(9))
    assert best_f1 == max(seen)
    best_x2, best_f2 = ga_maximize(batched(f), (np.zeros(2), np.ones(2)),
                                   rng=np.random.default_rng(9))
    assert np.array_equal(best_x1, best_x2) and best_f1 == best_f2


def test_repair_applied_before_every_evaluation():
    def repair(X):
        out = X.copy()
        out[:, 0] = 0.5
        return out

    evaluated = []

    def f(x):
        evaluated.append(x.copy())
        return -abs(x[1] - 0.2)

    best_x, _ = ga_maximize(batched(f), (np.zeros(2), np.ones(2)), repair=repair,
                            rng=np.random.default_rng(4))
    assert all(pt[0] == 0.5 for pt in evaluated)
    assert best_x[0] == 0.5


def test_non_finite_candidates_discarded_with_warning():
    def f(x):
        return np.inf if x[0] > 0.5 else float(x[0])

    with pytest.warns(UserWarning):
        best_x, best_f = ga_maximize(batched(f), (np.zeros(1), np.ones(1)),
                                     rng=np.random.default_rng(5))
    assert np.isfinite(best_f)
    assert best_x[0] <= 0.5


def test_all_non_finite_is_a_failure():
    with pytest.raises(RuntimeError):
        ga_maximize(batched(lambda x: np.nan), (np.zeros(1), np.ones(1)),
                    rng=np.random.default_rng(6))


@pytest.mark.parametrize("f", [lambda X: np.zeros(len(X) + 1), lambda X: 0.0,
                               lambda X: np.zeros((len(X), 1))])
def test_wrong_shape_objective_rejected(f):
    with pytest.raises(ValueError, match="shape"):
        ga_maximize(f, (np.zeros(2), np.ones(2)), rng=np.random.default_rng(7))


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        GAParams(population_size=1).validate()
    with pytest.raises(ValueError):
        GAParams(population_size=ELITISM).validate()
    with pytest.raises(ValueError):
        GAParams(generations=0).validate()
    with pytest.raises(ValueError):
        ga_maximize(batched(lambda x: 0.0), (np.array([0.0, np.inf]), np.ones(2)),
                    rng=np.random.default_rng(8))
