import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from tollopt import surrogate
from tollopt.doe import lhs
from tollopt.ga import ELITISM, GAParams
from tollopt.surrogate import corr_vector, fit, fit_fixed, log_likelihood, loo_cv, predict
from tollopt.toll import Bounds

UNIT2 = Bounds(np.zeros(2), np.ones(2))
SMALL_GA = GAParams(population_size=24, generations=16)


def branin_like(x):
    """Smooth 2-D test response on the unit square."""
    return np.sin(3.0 * x[..., 0]) + 0.5 * (x[..., 1] - 0.3) ** 2 + 0.25 * x[..., 0] * x[..., 1]


def make_samples(n, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    pts = lhs(n, 2, rng)
    ys = branin_like(pts)
    if noise:
        ys = ys + rng.normal(0.0, noise, size=n)
    return pts, ys


class TestCorrelation:
    def test_identical_points_correlate_fully(self):
        design = np.array([[0.2, 0.9, 0.4], [0.7, 0.1, 0.5]])
        theta = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(np.diag(corr_vector(design, theta, design)), [1.0, 1.0])
        assert np.array_equal(corr_vector(design, theta, design[:1])[:, 0], [1.0])

    def test_zero_theta_degenerates_to_one(self):
        design = np.array([np.zeros(3), np.ones(3)])
        assert np.array_equal(corr_vector(design, np.zeros(3), design), np.ones((2, 2)))
        assert np.array_equal(corr_vector(design, np.zeros(3), np.full((1, 3), 0.5)),
                              np.ones((1, 2)))

    def test_unit_distance_unit_theta(self):
        pair = np.array([[0.0], [1.0]])
        val = corr_vector(pair, np.array([1.0]), pair)[0, 1]
        assert val == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert val == pytest.approx(0.367879, abs=1e-6)
        assert corr_vector(np.array([[1.0]]), np.array([1.0]), np.array([[0.0]]))[0, 0] == val

    @given(d0=st.floats(0.05, 2.0), bump=st.floats(0.01, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_strictly_decreasing_in_coordinate_distance(self, d0, bump):
        theta = np.array([0.7, 1.3])
        design = np.array([[d0, 0.1], [d0 + bump, 0.1]])
        near, far = corr_vector(design, theta, np.zeros((1, 2)))[0]
        assert far < near
        points = np.array([[0.0, 0.0], *design])
        corr = corr_vector(points, theta, points)
        assert (corr[0, 1], corr[0, 2]) == (near, far)


class TestLogLikelihood:
    def test_duplicate_rows_without_regularization_fail(self):
        design = np.array([[0.3, 0.3], [0.3, 0.3]])
        y = np.array([1.0, 1.0])
        assert log_likelihood(design, y, np.array([[1.0, 1.0]]), np.array([0.0]))[0] == -np.inf

    def test_duplicate_rows_with_regularization_are_fine(self):
        design = np.array([[0.3, 0.3], [0.3, 0.3]])
        y = np.array([1.0, 1.0])
        val = log_likelihood(design, y, np.array([[1.0, 1.0]]), np.array([0.1]))
        assert np.isfinite(val[0])

    def test_matches_dense_normal_log_density(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(3, 21))
            design = rng.uniform(size=(n, 3))
            y = rng.normal(size=n)
            thetas = 10.0 ** rng.uniform(-2, 1.5, size=(4, 3))
            lams = 10.0 ** rng.uniform(-6, 0, size=4)
            stacked = log_likelihood(design, y, thetas, lams)
            assert stacked.shape == (4,)
            for theta, lam, row in zip(thetas, lams, stacked):
                ours = log_likelihood(design, y, theta[None], np.array([lam]))
                assert ours.shape == (1,)
                ours = ours[0]
                r = corr_vector(design, theta, design) + lam * np.eye(n)
                rinv = np.linalg.inv(r)
                ones = np.ones(n)
                mu = (ones @ rinv @ y) / (ones @ rinv @ ones)
                sigma2 = (y - mu) @ rinv @ (y - mu) / n
                oracle = multivariate_normal.logpdf(y, mean=mu * ones, cov=sigma2 * r)
                assert ours == pytest.approx(oracle, rel=1e-8)
                assert row == pytest.approx(oracle, rel=1e-8)
                # the stack's correlation product sums in another order; the
                # factor scales that rounding by the matrix's condition number
                assert row == pytest.approx(ours, rel=1e-10)

    def test_member_that_will_not_factor_scores_minus_inf_alone(self):
        # the duplicate rows make R singular at lambda = 0 only
        rng = np.random.default_rng(5)
        design = np.vstack([rng.uniform(size=(6, 2)), np.full((2, 2), 0.4)])
        y = rng.normal(size=8)
        thetas = 10.0 ** rng.uniform(-1, 1, size=(5, 2))
        lams = np.array([0.1, 0.02, 0.0, 0.3, 0.05])
        stacked = log_likelihood(design, y, thetas, lams)
        assert stacked[2] == -np.inf
        assert log_likelihood(design, y, thetas[2:3], lams[2:3])[0] == -np.inf
        for k in (0, 1, 3, 4):
            assert np.isfinite(stacked[k])
            assert stacked[k] == pytest.approx(log_likelihood(design, y, thetas[k:k + 1],
                                                              lams[k:k + 1])[0], rel=1e-10)

    def test_pinned_zero_lambda_stack_matches_dense_oracle(self):
        # lambda = 0 has no eigenvalue bound for the border's c, so this
        # checks the bound that stands in for it, at criterion 2's tolerance
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(3, 13))
            design = rng.uniform(size=(n, 3))
            y = rng.normal(size=n)
            thetas = 10.0 ** rng.uniform(0.5, 1.5, size=(4, 3))
            stacked = log_likelihood(design, y, thetas, np.zeros(4))
            for theta, row in zip(thetas, stacked):
                r = corr_vector(design, theta, design)
                rinv = np.linalg.inv(r)
                ones = np.ones(n)
                mu = (ones @ rinv @ y) / (ones @ rinv @ ones)
                sigma2 = (y - mu) @ rinv @ (y - mu) / n
                oracle = multivariate_normal.logpdf(y, mean=mu * ones, cov=sigma2 * r)
                assert row == pytest.approx(oracle, rel=1e-8)

    def test_a_stack_that_factors_takes_no_fallback(self, monkeypatch):
        pts, ys = make_samples(12, seed=3, noise=0.05)
        model = fit_fixed(pts, ys, UNIT2, theta=np.array([2.0, 1.5]), lam=0.02)
        before = log_likelihood(pts, ys, np.array([[2.0, 1.5], [0.5, 4.0]]), np.array([0.02, 0.1]))
        folds = loo_cv(model)

        def no_fallback(*args, **kwargs):
            raise AssertionError("fell back to factoring R member by member")

        monkeypatch.setattr(surrogate, "_cholesky_with_jitter", no_fallback)
        after = log_likelihood(pts, ys, np.array([[2.0, 1.5], [0.5, 4.0]]), np.array([0.02, 0.1]))
        assert np.array_equal(after, before)
        assert loo_cv(model) == folds

    def test_border_that_will_not_factor_falls_back_to_r_alone(self, monkeypatch):
        # every bordered matrix is refused, so each member is factored on R
        # alone through the strict jitter ladder, with a triangular solve
        rng = np.random.default_rng(5)
        design = np.vstack([rng.uniform(size=(6, 2)), np.full((2, 2), 0.4)])
        y = rng.normal(size=8)
        thetas = 10.0 ** rng.uniform(-1, 1, size=(5, 2))
        lams = np.array([0.1, 0.02, 0.0, 0.3, 0.05])
        good = [0, 1, 3, 4]
        bordered = log_likelihood(design, y, thetas[good], lams[good])
        cholesky = np.linalg.cholesky

        def refuse_border(a):
            if a.shape[-1] == len(design) + 2:
                raise np.linalg.LinAlgError("bordered matrix refused")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", refuse_border)
        alone = log_likelihood(design, y, thetas, lams)
        assert alone[2] == -np.inf
        assert alone[good] == pytest.approx(bordered, rel=1e-10)

    def test_bad_hyperparameters_raise_value_error_naming_them(self):
        design = np.random.default_rng(0).uniform(size=(5, 2))
        y = np.arange(5.0)

        def call(theta, lam):
            return log_likelihood(design, y, np.tile(theta, (3, 1)), np.array([0.1, lam, 0.2]))

        for theta in ([1.0, -0.5], [1.0, np.nan], [np.inf, 1.0], [1.0, 1.0, 1.0]):
            with pytest.raises(ValueError, match=r"\btheta\b"):
                call(theta, 0.1)
        for lam in (np.nan, -1e-3, np.inf):
            with pytest.raises(ValueError, match=r"\blam\b"):
                call([1.0, 1.0], lam)
        with pytest.raises(ValueError, match=r"\blam\b"):
            log_likelihood(design, y, np.ones((3, 2)), np.full(2, 0.1))
        # a lone theta is not a stack of one
        with pytest.raises(ValueError, match=r"theta must be .*\(P, 2\) stack, not \(2,\)"):
            log_likelihood(design, y, np.ones(2), 0.1)


class TestFit:
    def test_noise_free_data_prefers_minimal_regularization(self):
        pts, ys = make_samples(20, seed=1)
        model = fit(pts, ys, UNIT2, ga_params=SMALL_GA, rng=np.random.default_rng(3))
        y_std = (ys - ys.mean()) / ys.std()
        at_floor = log_likelihood(pts, y_std, model.theta[None], np.array([1e-6]))[0]
        at_half = log_likelihood(pts, y_std, model.theta[None], np.array([0.5]))[0]
        assert at_floor > at_half
        assert model.lam < 1e-2

    def test_noisy_data_pushes_lambda_off_the_floor(self):
        pts, ys = make_samples(25, seed=2, noise=0.5)
        model = fit(pts, ys, UNIT2, ga_params=SMALL_GA, rng=np.random.default_rng(4))
        assert model.lam > 1e-6

    def test_two_identical_responses(self):
        model = fit_fixed(np.array([[0.2, 0.2], [0.8, 0.8]]), [1.5, 1.5], UNIT2, theta=np.array([1.0, 1.0]), lam=0.0)
        assert model.sigma2_hat >= 0.0
        pred = predict(model, np.array([[0.5, 0.5]]))
        assert pred.mean[0] == pytest.approx(1.5, abs=1e-9)

    def test_one_likelihood_stack_per_generation(self, monkeypatch):
        params = GAParams(population_size=12, generations=5)
        shapes = []
        real = surrogate.log_likelihood

        def spy(design, y, theta, lam):
            shapes.append((np.shape(theta), np.shape(lam)))
            return real(design, y, theta, lam)

        monkeypatch.setattr(surrogate, "log_likelihood", spy)
        pts, ys = make_samples(10, seed=3)
        fit(pts, ys, UNIT2, ga_params=params, rng=np.random.default_rng(0))
        children = params.population_size - ELITISM
        assert shapes == ([((params.population_size, 2), (params.population_size,))]
                          + [((children, 2), (children,))] * (params.generations - 1))

    def test_fixed_dimensions_get_no_theta_gene(self, monkeypatch):
        m = 4
        boxes = []
        real = surrogate.ga_maximize

        def spy(objective, box, **kwargs):
            boxes.append(box)
            return real(objective, box, **kwargs)

        monkeypatch.setattr(surrogate, "ga_maximize", spy)
        rng = np.random.default_rng(0)
        rows = np.hstack([rng.uniform(size=(10, m)), np.zeros((10, m))])   # distance toll only
        model = fit(rows, np.sum(np.sin(3.0 * rows), axis=1), Bounds.uniform(m, 1.0, 0.0), ga_params=SMALL_GA, rng=rng)
        assert [(len(lower), len(upper)) for lower, upper in boxes] == [(m + 1, m + 1)]
        assert model.theta.shape == (m,) and np.all(model.theta > 0)

    def test_fixed_dimensions_change_no_bit_of_the_fit(self):
        # a distance-only box fits, bit for bit, as its distance columns do on their own box
        m = 4
        bounds = Bounds.uniform(m, 1.0, 0.0, v_min=0.1)
        own = Bounds(bounds.lower[:m], bounds.upper[:m])
        rng = np.random.default_rng(8)
        rows = np.hstack([rng.uniform(0.1, 1.0, size=(12, m)), np.zeros((12, m))])
        queries = np.hstack([rng.uniform(0.1, 1.0, size=(5, m)), np.zeros((5, m))])
        ys = np.sum(np.sin(3.0 * rows), axis=1)
        # the design must be C-contiguous: a column-major copy (what x[:, free]
        # returns) changes the order of the correlation sums in the last bit
        assert bounds.to_unit(rows).flags.c_contiguous
        model = fit(rows, ys, bounds, ga_params=SMALL_GA, rng=np.random.default_rng(9))
        alone = fit(rows[:, :m], ys, own, ga_params=SMALL_GA, rng=np.random.default_rng(9))
        assert np.array_equal(model.theta, alone.theta) and model.lam == alone.lam
        pred = predict(model, bounds.to_unit(queries))
        pred_alone = predict(alone, own.to_unit(queries[:, :m]))
        for field in ("mean", "variance", "ri_variance"):
            assert np.array_equal(getattr(pred, field), getattr(pred_alone, field))

    def test_fewer_than_two_distinct_points_rejected(self):
        with pytest.raises(ValueError):
            fit(np.array([[0.1, 0.1]]), [1.0], UNIT2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            fit(np.array([[0.1, 0.1], [0.1, 0.1]]), [1.0, 2.0], UNIT2, rng=np.random.default_rng(0))


class TestPredict:
    def test_interpolation_identity_without_regularization(self):
        pts, ys = make_samples(15, seed=5)
        model = fit_fixed(pts, ys, UNIT2, theta=np.array([3.0, 3.0]), lam=0.0)
        for i in range(15):
            pred = predict(model, pts[i:i + 1])
            assert abs(pred.mean[0] - ys[i]) <= 1e-6 * (1.0 + abs(ys[i]))
            assert pred.variance[0] <= 1e-8 * model.sigma2_hat

    def test_regularized_variance_positive_but_ri_variance_zero_at_samples(self):
        pts, ys = make_samples(15, seed=6)
        model = fit_fixed(pts, ys, UNIT2, theta=np.array([3.0, 3.0]), lam=0.3)
        for i in range(15):
            pred = predict(model, pts[i:i + 1])
            assert pred.variance[0] > 0.0
            assert pred.ri_variance[0] <= 1e-10 * max(model.sigma2_ri, 1e-300)

    def test_single_training_point_predicts_its_value_everywhere(self):
        model = fit_fixed(np.array([[0.4, 0.6]]), [2.25], UNIT2,
                          theta=np.array([1.0, 1.0]), lam=0.0)
        for q in (np.zeros(2), np.ones(2), np.array([0.9, 0.1])):
            assert predict(model, q[None]).mean[0] == pytest.approx(2.25, abs=1e-12)

    def test_prediction_invariant_under_sample_permutation(self):
        pts, ys = make_samples(12, seed=7)
        model_a = fit_fixed(pts, ys, UNIT2, theta=np.array([2.0, 1.0]), lam=0.05)
        perm = np.random.default_rng(0).permutation(12)
        model_b = fit_fixed(pts[perm], ys[perm], UNIT2,
                            theta=np.array([2.0, 1.0]), lam=0.05)
        q = np.array([[0.33, 0.77]])
        pa, pb = predict(model_a, q), predict(model_b, q)
        assert pa.mean[0] == pytest.approx(pb.mean[0], rel=1e-10)
        assert pa.variance[0] == pytest.approx(pb.variance[0], rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("n,d", [(15, 2), (21, 8), (40, 16), (60, 16)])
    def test_batch_equals_single_point_calls_bit_for_bit(self, n, d):
        # the GA scores a whole generation per call; fixed-seed runs stay
        # reproducible only if each row predicts what a stack of one predicts
        rng = np.random.default_rng(n + d)
        pts = rng.uniform(size=(n, d))
        ys = np.array([float(np.sin(3.0 * x[0]) + np.sum(x ** 2)) for x in pts])
        model = fit_fixed(pts, ys, Bounds(np.zeros(d), np.ones(d)),
                          theta=10.0 ** rng.uniform(-1.0, 1.0, size=d), lam=0.01)
        queries = rng.uniform(size=(50, d))
        batch = predict(model, queries)
        singles = [predict(model, q[None]) for q in queries]
        for field in ("mean", "variance", "ri_variance"):
            assert np.array_equal(getattr(batch, field), [getattr(p, field)[0] for p in singles])

    def test_variances_match_a_cho_solve_oracle(self):
        # predict takes psi^T A^-1 psi as |L^-1 psi|^2 through the stored
        # inverse factor, the oracle through two triangular solves; both are
        # backward stable, so they agree to about eps * cond(A).  Over 800
        # random fits (n <= 70, d <= 16, lambda 1e-6..1, queries 1e-7 from
        # design points) the gap stayed below 1.2 eps cond(A); this test allows
        # 4 eps cond(A)
        eps = np.finfo(float).eps
        rng = np.random.default_rng(21)
        for n, d, k in ((5, 2, 1), (21, 8, 48), (38, 16, 48), (60, 8, 7)):
            pts = rng.uniform(size=(n, d))
            model = fit_fixed(pts, rng.normal(size=n), Bounds(np.zeros(d), np.ones(d)),
                              theta=10.0 ** rng.uniform(-1.0, 1.0, size=d), lam=0.01)
            queries = np.vstack([rng.uniform(size=(k, d)), pts[:2] + 1e-7])
            psi = corr_vector(model.design, model.theta, queries)
            pred = predict(model, queries)
            # the oracle's own factors of R = Psi + lambda I and of Psi
            design_psi = corr_vector(model.design, model.theta, model.design)
            chol_r = np.linalg.cholesky(design_psi + model.lam * np.eye(n))
            chol_psi, _ = surrogate._cholesky_with_jitter(design_psi)
            for chol, sigma2, base, got in (
                    (chol_r, model.sigma2_hat, 1.0 + model.lam, pred.variance),
                    (chol_psi, model.sigma2_ri, 1.0, pred.ri_variance)):
                quad = np.einsum("kn,nk->k", psi, scipy.linalg.cho_solve((chol, True), psi.T))
                oracle = sigma2 * np.maximum(base - quad, 0.0)
                tol = 4.0 * eps * np.linalg.cond(chol) ** 2 * sigma2
                np.testing.assert_allclose(got, oracle, rtol=0.0, atol=tol)

    def test_ri_variance_never_exceeds_variance(self):
        pts, ys = make_samples(15, seed=8)
        model = fit_fixed(pts, ys, UNIT2, theta=np.array([4.0, 2.0]), lam=0.2)
        grid = lhs(60, 2, np.random.default_rng(9))
        pred = predict(model, grid)
        assert np.all(pred.ri_variance <= pred.variance + 1e-12)

    def test_a_lone_point_is_rejected_naming_the_stack_shape(self):
        model = fit_fixed(*make_samples(5), UNIT2, theta=np.array([1.0, 1.0]), lam=0.0)
        with pytest.raises(ValueError, match=r"\(k, 2\) stack, not \(2,\)"):
            predict(model, np.array([0.5, 0.5]))


class TestCrossValidation:
    def test_smooth_surface_residuals_mostly_inside_three_sigma(self):
        pts, ys = make_samples(30, seed=11)
        model = fit(pts, ys, UNIT2, ga_params=SMALL_GA, rng=np.random.default_rng(12))
        records = loo_cv(model)
        usable = [r for r in records if not r.degenerate]
        inside = [r for r in usable if abs(r.standardized_residual) <= 3.0]
        assert len(inside) / len(usable) >= 0.95
        # the same folds must satisfy the +/- 3 standard error interval
        for r in inside:
            assert abs(r.observed - r.predicted) <= 3.0 * r.std_error

    def test_constant_responses_flag_degenerate_or_zero(self):
        pts = np.array([(0.1, 0.1), (0.5, 0.5), (0.9, 0.2), (0.3, 0.8)])
        model = fit_fixed(pts, np.full(4, 7.0), UNIT2, theta=np.array([1.0, 1.0]), lam=0.0)
        for rec in loo_cv(model):
            assert rec.degenerate or rec.standardized_residual == pytest.approx(0.0, abs=1e-6)

    def test_folds_match_dense_refits(self):
        pts, ys = make_samples(14, seed=15, noise=0.05)
        model = fit_fixed(pts, ys, UNIT2, theta=np.array([2.0, 1.5]), lam=0.02)
        y_std = (ys - model.y_shift) / model.y_scale
        psi = corr_vector(pts, model.theta, pts)
        for i, rec in enumerate(loo_cv(model)):
            keep = np.arange(14) != i
            rinv = np.linalg.inv(psi[np.ix_(keep, keep)] + model.lam * np.eye(13))
            ones = np.ones(13)
            mu = (ones @ rinv @ y_std[keep]) / (ones @ rinv @ ones)
            resid = y_std[keep] - mu
            sigma2 = resid @ rinv @ resid / 13
            mean = model.y_shift + model.y_scale * (mu + psi[keep, i] @ rinv @ resid)
            var = sigma2 * (1.0 + model.lam - psi[keep, i] @ rinv @ psi[keep, i])
            assert rec.index == i and not rec.degenerate
            assert rec.predicted == pytest.approx(mean, rel=1e-10)
            assert rec.std_error == pytest.approx(model.y_scale * math.sqrt(var), rel=1e-9)

    def test_requires_three_points(self):
        pts, ys = make_samples(2, seed=13)
        model = fit_fixed(pts, ys, UNIT2, theta=np.array([1.0, 1.0]), lam=0.1)
        with pytest.raises(ValueError):
            loo_cv(model)


def test_regularized_matrix_diagonal_is_one_plus_lambda():
    pts, ys = make_samples(10, seed=20)
    lam = 0.37
    model = fit_fixed(pts, ys, UNIT2, theta=np.array([1.5, 0.8]), lam=lam)
    psi = corr_vector(pts, np.array([1.5, 0.8]), pts)
    assert np.all(np.diag(psi) == 1.0)
    # the model's inverse factor L^-T whitens R = Psi + lambda I: L^-1 R L^-T = I
    inv_r_t = model._inv_r_t
    assert np.allclose(inv_r_t.T @ (psi + lam * np.eye(10)) @ inv_r_t, np.eye(10), atol=1e-10)
    reconstructed = np.linalg.inv(inv_r_t @ inv_r_t.T)
    assert np.allclose(np.diag(reconstructed), 1.0 + lam, atol=1e-12)
