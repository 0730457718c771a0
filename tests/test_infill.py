import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

from tollopt import infill
from tollopt.doe import lhs
from tollopt.ga import GAParams
from tollopt.infill import (AcquisitionContext, acquisition_value, constrained_ei,
                            expected_improvement, norm_cdf, prob_feasible, propose_infill,
                            repair_smoothing)
from tollopt.surrogate import fit_fixed, predict
from tollopt.tlp import check_smoothing
from tollopt.toll import Bounds

SEARCH_GA = GAParams(population_size=40, generations=30)


def ei_quadrature(mean, std, y_min):
    """Independent oracle: integrate (y_min - u) phi(u; mean, std) over u <= y_min."""
    val, _ = quad(lambda u: (y_min - u) * norm.pdf(u, loc=mean, scale=std),
                  mean - 12 * std, y_min, limit=200)
    return max(val, 0.0)


class TestExpectedImprovement:
    def test_zero_variance_gives_zero(self):
        assert expected_improvement(0.3, 0.0, 1.0) == 0.0
        assert expected_improvement(5.0, 0.0, 1.0) == 0.0

    def test_at_the_incumbent_with_unit_error(self):
        val = expected_improvement(2.0, 1.0, 2.0)
        assert val == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)
        assert val == pytest.approx(0.398942, abs=1e-6)

    def test_hopeless_point_is_vanishingly_small(self):
        assert expected_improvement(10.0, 0.01, 0.0) < 1e-20

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            expected_improvement(0.0, -1e-9, 0.0)

    def test_matches_quadrature_oracle(self):
        for gap in (-2.0, -0.5, 0.0, 0.5, 2.0):
            for s in (0.05, 0.5, 2.0):
                closed = expected_improvement(gap, s ** 2, 0.0)
                assert closed == pytest.approx(ei_quadrature(gap, s, 0.0), abs=1e-8)

    @given(mean=st.floats(-5, 5), s=st.floats(1e-3, 10), y_min=st.floats(-5, 5))
    @settings(max_examples=80, deadline=None)
    def test_nonnegative_everywhere(self, mean, s, y_min):
        assert expected_improvement(mean, s * s, y_min) >= 0.0

    @given(mean=st.floats(-5, 5), y_min=st.floats(-5, 5),
           s1=st.floats(1e-3, 5), bump=st.floats(1e-3, 5))
    @settings(max_examples=80, deadline=None)
    def test_nondecreasing_in_prediction_error(self, mean, y_min, s1, bump):
        lo = expected_improvement(mean, s1 ** 2, y_min)
        hi = expected_improvement(mean, (s1 + bump) ** 2, y_min)
        assert hi >= lo - 1e-12


class TestProbFeasible:
    def test_boundary_symmetry(self):
        assert prob_feasible(8.0, 4.0, 8.0) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_distribution(self):
        assert prob_feasible(7.9, 0.0, 8.0) == 1.0
        assert prob_feasible(8.1, 0.0, 8.0) == 0.0

    def test_three_sigma_violation(self):
        assert prob_feasible(8.0 + 3.0 * 2.0, 4.0, 8.0) == pytest.approx(0.001350, abs=1e-6)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            prob_feasible(0.0, -1.0, 0.0)


class TestConstrainedEI:
    def test_identity_and_annihilation(self):
        assert constrained_ei(0.7, 1.0) == 0.7
        assert constrained_ei(0.7, 0.0) == 0.0

    def test_scalar_product(self):
        assert constrained_ei(0.4, 0.25) == pytest.approx(0.1, abs=1e-15)

    @given(ei=st.floats(0, 10), p=st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_unconstrained(self, ei, p):
        assert constrained_ei(ei, p) <= ei


class TestNormCdf:
    def test_matches_scipy_ndtr_from_tail_to_tail(self):
        # both evaluate erf or erfc at u / sqrt 2 and differ only in how that
        # rounds: 6e-14 relative was measured on [-40, 10], and this test allows
        # 1e-12; below 1e-300, where ndtr goes subnormal, 1e-300 absolute
        rng = np.random.default_rng(0)
        u = np.concatenate([rng.uniform(-40.0, 10.0, 100_000), rng.normal(size=20_000),
                            np.linspace(-1.0, 1.0, 2001), [-38.5, -37.5, 8.3, 9.0, 40.0]])
        got, ref = norm_cdf(u), ndtr(u)
        assert got.shape == u.shape and got.dtype == np.float64
        normal = ref > 1e-300
        np.testing.assert_allclose(got[normal], ref[normal], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got[~normal], ref[~normal], rtol=0.0, atol=1e-300)
        assert np.count_nonzero(~normal) > 1000

    def test_zeros_infinities_and_nan(self):
        u = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        got = norm_cdf(u)
        assert got[:4].tolist() == [0.5, 0.5, 1.0, 0.0]
        assert np.isnan(got[4])
        np.testing.assert_array_equal(got, ndtr(u))
        assert norm_cdf(1.0) == pytest.approx(ndtr(1.0), rel=1e-15)
        assert np.asarray(norm_cdf(np.zeros((2, 3)))).shape == (2, 3)


class TestAcquisitionValue:
    @pytest.mark.parametrize("n,m", [(21, 4), (38, 8)])
    def test_batch_equals_single_point_calls_bit_for_bit(self, n, m):
        # the GA scores a whole generation per call, constrained runs through
        # both surrogates and the feasibility probability
        rng = np.random.default_rng(n + m)
        d = 2 * m
        unit = Bounds(np.zeros(d), np.ones(d))
        pts = rng.uniform(size=(n, d))
        obj = fit_fixed(pts, np.sin(3.0 * pts[:, 0]) + np.sum(pts ** 2, axis=1), unit,
                        theta=10.0 ** rng.uniform(-1.0, 0.5, size=d), lam=0.01)
        con = fit_fixed(pts, 5.0 + pts @ rng.uniform(size=d), unit,
                        theta=10.0 ** rng.uniform(-1.0, 0.5, size=d), lam=0.01)
        ctx = AcquisitionContext(obj_model=obj, bounds=Bounds.uniform(m, 1.0, 15.0),
                                 y_min=float(np.min(obj.y)), smoothing=(1.0 / 3.0, 5.0),
                                 con_model=con, delta_max=float(np.median(con.y)))
        queries = np.vstack([rng.uniform(size=(48, d)), pts[:2]])
        batch = acquisition_value(ctx, queries)
        assert np.count_nonzero(batch > 0) > 24
        assert np.array_equal(batch, [acquisition_value(ctx, q[None])[0] for q in queries])


class TestRepairSmoothing:
    def test_violating_chain_is_clipped(self):
        bounds = Bounds.uniform(3, 1.0, 15.0)
        x = np.array([0.0, 1.0, 0.0, 0.0, 15.0, 0.0])
        fixed = repair_smoothing(x, 1.0 / 3.0, 5.0, bounds)
        assert check_smoothing(fixed[None], 1.0 / 3.0, 5.0)[0]
        assert fixed[0] == 0.0 and fixed[1] == pytest.approx(1.0 / 3.0)
        assert fixed[3] == 0.0 and fixed[4] == pytest.approx(5.0)

    def test_feasible_input_unchanged(self):
        bounds = Bounds.uniform(3, 1.0, 15.0)
        x = np.array([0.5, 0.4, 0.5, 7.0, 6.0, 7.0])
        assert np.array_equal(repair_smoothing(x, 1.0 / 3.0, 5.0, bounds), x)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_random_points_become_feasible(self, seed):
        bounds = Bounds.uniform(4, 1.0, 15.0)
        rng = np.random.default_rng(seed)
        x = bounds.scale_from_unit(rng.uniform(size=8))
        fixed = repair_smoothing(x, 1.0 / 3.0, 5.0, bounds)
        assert bounds.contains(fixed)
        assert check_smoothing(fixed[None], 1.0 / 3.0, 5.0)[0]

    @given(m=st.sampled_from([4, 8]), seed=st.integers(0, 5000),
           reach=st.sampled_from([1.0, 1.5, 3.0]))
    @settings(max_examples=100, deadline=None)
    @example(m=4, seed=0, reach=1.0)
    @example(m=8, seed=1, reach=3.0)
    def test_repair_is_idempotent(self, m, seed, reach):
        # desk (m = 4) and paper (m = 8) boxes and limits; unit coordinates
        # come from 0.5 +- reach, so every reach puts points outside the box
        bounds = Bounds.uniform(m, 1.0, 15.0)
        rng = np.random.default_rng(seed)
        x = bounds.scale_from_unit(rng.uniform(0.5 - reach, 0.5 + reach, size=2 * m))
        once = repair_smoothing(x, 1.0 / 3.0, 5.0, bounds)
        assert np.array_equal(repair_smoothing(once, 1.0 / 3.0, 5.0, bounds), once)
        # a batch repairs each row as that row alone is repaired
        batch = bounds.scale_from_unit(rng.uniform(0.5 - reach, 0.5 + reach, size=(5, 2 * m)))
        rows = np.array([repair_smoothing(row, 1.0 / 3.0, 5.0, bounds) for row in batch])
        assert np.array_equal(repair_smoothing(batch, 1.0 / 3.0, 5.0, bounds), rows)


def ridge_model(n=14, seed=0, lam=0.05):
    """Objective varying along the first coordinate only, sampled away from
    the low region so the basin near x0 = 0 stays unexplored."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.45, 1.0, size=n)
    x1 = rng.uniform(0.0, 1.0, size=n)
    pts = np.stack([x0, x1], axis=1)
    ys = (x0 - 0.1) ** 2
    return fit_fixed(pts, ys,
                     Bounds(np.zeros(2), np.ones(2)), theta=np.array([8.0, 8.0]), lam=lam)


class TestProposeInfill:
    def make_ctx(self, obj_model, con_model=None, delta_max=None, y_min=None):
        return AcquisitionContext(
            obj_model=obj_model,
            bounds=Bounds.uniform(1, 1.0, 1.0),
            y_min=float(np.min(obj_model.y)) if y_min is None else y_min,
            smoothing=(1.0 / 3.0, 5.0),
            con_model=con_model,
            delta_max=delta_max,
        )

    def test_proposal_avoids_existing_samples(self):
        model = ridge_model(lam=0.1)
        ctx = self.make_ctx(model)
        toll, _ = propose_infill(ctx, ga_params=SEARCH_GA, rng=np.random.default_rng(1))
        u = ctx.bounds.to_unit(toll)
        dists = np.linalg.norm(model.design - u, axis=1)
        assert np.min(dists) > 1e-9
        # reinterpolation acquisition vanishes at every training input
        for row in model.design:
            assert acquisition_value(ctx, row[None])[0] <= 1e-10

    def test_proposal_lands_in_the_unexplored_basin(self):
        model = ridge_model()
        ctx = self.make_ctx(model)
        toll, value = propose_infill(ctx, ga_params=SEARCH_GA, rng=np.random.default_rng(2))
        grid = np.stack([np.repeat(np.linspace(0, 1, 100), 100),
                         np.tile(np.linspace(0, 1, 100), 100)], axis=1)
        grid_acq = acquisition_value(ctx, grid)
        best_grid = float(np.max(grid_acq))
        assert grid[int(np.argmax(grid_acq)), 0] < 0.4   # the basin side
        assert toll[0] < 0.4
        assert value >= 0.98 * best_grid

    def test_infeasible_constraint_suppresses_acquisition(self):
        model = ridge_model()
        rng = np.random.default_rng(3)
        pts = rng.uniform(size=(12, 2))
        con = fit_fixed(pts, [50.0 + float(rng.normal(0, 0.5)) for i in range(12)],
                        Bounds(np.zeros(2), np.ones(2)), theta=np.array([1.0, 1.0]), lam=0.01)
        ctx = self.make_ctx(model, con_model=con, delta_max=0.0)
        grid = np.stack([np.repeat(np.linspace(0, 1, 100), 100),
                         np.tile(np.linspace(0, 1, 100), 100)], axis=1)
        free = acquisition_value(self.make_ctx(model), grid)
        capped = acquisition_value(ctx, grid)
        assert np.max(capped) <= 1e-6 * np.max(free)

    def test_proposal_respects_bounds_and_smoothing_exactly(self):
        rng = np.random.default_rng(4)
        m = 4
        bounds = Bounds.uniform(m, 1.0, 15.0)
        pts = rng.uniform(size=(20, 2 * m))
        ys = np.sum((pts - 0.4) ** 2, axis=1)
        model = fit_fixed(bounds.scale_from_unit(pts), ys,
                          bounds, theta=np.full(2 * m, 2.0), lam=0.02)
        ctx = AcquisitionContext(obj_model=model, bounds=bounds, y_min=float(np.min(ys)),
                                 smoothing=(1.0 / 3.0, 5.0))
        for seed in range(3):
            toll, _ = propose_infill(ctx, ga_params=SEARCH_GA, rng=np.random.default_rng(seed))
            assert bounds.contains(toll)
            assert check_smoothing(toll[None], 1.0 / 3.0, 5.0, tol=0.0)[0]

    def test_flat_acquisition_falls_back_to_space_filling(self):
        # constant responses with lambda = 0: EI is identically zero
        pts = np.array([[0.1, 0.1], [0.9, 0.9], [0.1, 0.9], [0.9, 0.1]])
        model = fit_fixed(pts, np.ones(len(pts)), Bounds(np.zeros(2), np.ones(2)),
                          theta=np.array([2.0, 2.0]), lam=0.0)
        ctx = self.make_ctx(model, y_min=1.0)
        toll, value = propose_infill(ctx, ga_params=SEARCH_GA, rng=np.random.default_rng(5))
        u = ctx.bounds.to_unit(toll)
        # the tie-break maximizes distance to the nearest sample: center-ish point
        assert float(np.min(np.linalg.norm(pts - u, axis=1))) > 0.3

    def test_ga_searches_only_the_free_dimensions(self, monkeypatch):
        # a distance-only box holds the delay half at 0, so the GA gets m genes
        m = 4
        bounds = Bounds.uniform(m, 1.0, 0.0)
        rng = np.random.default_rng(6)
        rows = np.hstack([rng.uniform(size=(12, m)), np.zeros((12, m))])
        ys = np.sum((rows[:, :m] - 0.3) ** 2, axis=1)
        model = fit_fixed(rows, ys, bounds, theta=np.r_[np.full(m, 2.0), np.zeros(m)], lam=0.02)
        boxes = []
        real = infill.ga_maximize

        def spy(f, box, **kwargs):
            boxes.append(box)
            return real(f, box, **kwargs)

        monkeypatch.setattr(infill, "ga_maximize", spy)
        ctx = AcquisitionContext(obj_model=model, bounds=bounds, y_min=float(np.min(ys)),
                                 smoothing=(1.0 / 3.0, 5.0))
        toll, _ = propose_infill(ctx, ga_params=SEARCH_GA, rng=np.random.default_rng(0))
        assert boxes and all(len(lower) == len(upper) == m for lower, upper in boxes)
        assert toll.shape == (2 * m,)
        assert np.array_equal(toll[m:], np.zeros(m))
        assert check_smoothing(toll[None], 1.0 / 3.0, 5.0, tol=0.0)[0]
