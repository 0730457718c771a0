import dataclasses

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tollopt.simnet import (ConfigError, RouteState, config_from_dict, config_to_dict,
                            demand_split, desk_preset, deviation_from_spread,
                            envelope_gamma, fit_lower_envelope, generalized_cost,
                            paper_preset, simulate, simulate_batch, spatial_spread)
from tollopt.toll import TollVector


class TestSpatialSpread:
    def test_uniform_densities_have_zero_spread(self):
        gamma, mean = spatial_spread([12.0, 12.0, 12.0], [1.0, 2.0, 0.5], [2, 3, 1])
        assert gamma == 0.0
        assert mean == pytest.approx(12.0)

    def test_two_equal_cells(self):
        gamma, mean = spatial_spread([10.0, 20.0], [1.0, 1.0], [2.0, 2.0])
        assert (mean, gamma) == (pytest.approx(15.0), pytest.approx(5.0))

    @given(shift=st.floats(-30, 30), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_translation_moves_mean_not_spread(self, shift, seed):
        rng = np.random.default_rng(seed)
        k = rng.uniform(0, 50, size=6)
        lengths = rng.uniform(0.2, 2.0, size=6)
        lanes = rng.integers(1, 4, size=6).astype(float)
        g0, m0 = spatial_spread(k, lengths, lanes)
        g1, m1 = spatial_spread(k + shift, lengths, lanes)
        assert g1 == pytest.approx(g0, abs=1e-9)
        assert m1 == pytest.approx(m0 + shift, abs=1e-9)

    def test_matches_direct_weighted_variance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = rng.uniform(0, 80, size=8)
            lengths = rng.uniform(0.1, 3.0, size=8)
            lanes = rng.integers(1, 5, size=8).astype(float)
            gamma, mean = spatial_spread(k, lengths, lanes)
            w = lengths * lanes
            mean_direct = np.sum(k * w) / np.sum(w)
            var_direct = np.sum(w * (k - mean_direct) ** 2) / np.sum(w)
            assert mean == pytest.approx(mean_direct, abs=1e-12)
            assert gamma ** 2 == pytest.approx(var_direct, abs=1e-12)
            # weighted deviations cancel
            assert np.sum(w * (k - mean)) == pytest.approx(0.0, abs=1e-9)

    def test_rows_match_one_dimensional_calls(self):
        rng = np.random.default_rng(6)
        k = rng.uniform(0, 80, size=(5, 8))
        lengths = rng.uniform(0.1, 3.0, size=8)
        lanes = rng.integers(1, 5, size=8).astype(float)
        gamma, mean = spatial_spread(k, lengths, lanes)
        assert gamma.shape == mean.shape == (5,)
        for b in range(5):
            assert (gamma[b], mean[b]) == spatial_spread(k[b], lengths, lanes)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            spatial_spread([], [], [])
        with pytest.raises(ValueError):
            spatial_spread([1.0], [0.0], [1.0])


class TestDeviation:
    def test_on_envelope_point_is_zero(self):
        env = (-2e-4, 4e-3, 1.5)
        assert deviation_from_spread(envelope_gamma(30.0, env), 30.0, env) == pytest.approx(0.0)

    def test_reference_cubic_evaluation(self):
        env = (-0.0002032, 0.004432, 1.587)
        gk = envelope_gamma(25.0, env)
        assert gk == pytest.approx(39.27, abs=0.005)
        assert deviation_from_spread(45.0, 25.0, env) == pytest.approx(5.73, abs=0.005)

    def test_zero_density_sits_at_the_origin(self):
        assert envelope_gamma(0.0, (-0.0002, 0.004, 1.6)) == 0.0


class TestEnvelopeFit:
    def test_recovers_planted_cubic(self):
        a, b, c = -2.5e-4, 6.0e-3, 1.4
        ks = np.linspace(1.0, 60.0, 200)
        samples = [(k, envelope_gamma(k, (a, b, c))) for k in ks]
        fa, fb, fc = fit_lower_envelope(samples)
        assert fa == pytest.approx(a, rel=1e-6)
        assert fb == pytest.approx(b, rel=1e-6)
        assert fc == pytest.approx(c, rel=1e-6)

    def test_positive_noise_keeps_fit_near_the_floor(self):
        rng = np.random.default_rng(8)
        a, b, c = -1e-4, 3e-3, 1.2
        ks = rng.uniform(1.0, 60.0, size=2000)
        gs = np.array([envelope_gamma(k, (a, b, c)) for k in ks]) + 0.4 + rng.uniform(0, 4, 2000)
        coeffs = fit_lower_envelope(list(zip(ks, gs)))
        fitted = np.array([envelope_gamma(k, coeffs) for k in ks])
        frac_below = np.mean(gs >= fitted - 1e-9)
        assert frac_below >= 0.95

    def test_single_bin_or_tiny_sample_rejected(self):
        with pytest.raises(ValueError):
            fit_lower_envelope([(10.0, 5.0), (10.0, 6.0), (10.0, 7.0)])
        with pytest.raises(ValueError):
            fit_lower_envelope([(10.0, 5.0), (20.0, 6.0)])


class TestRouteChoice:
    def setup_method(self):
        self.config = desk_preset()

    def test_zero_toll_cost_is_pure_travel_time(self):
        state = RouteState(pz_travel_time=18.0, pz_free_time=9.6, bypass_travel_time=16.0)
        assert generalized_cost("through_pz", (0.0, 0.0), state, self.config) == 18.0
        assert generalized_cost("bypass", (1.0, 15.0), state, self.config) == 16.0

    def test_distance_toll_time_equivalent(self):
        config = dataclasses.replace(self.config, pz_path_length=5.0, vtt=15.0)
        state = RouteState(pz_travel_time=6.0, pz_free_time=6.0, bypass_travel_time=16.0)
        cost = generalized_cost("through_pz", (1.0, 0.0), state, config)
        assert cost - state.pz_travel_time == pytest.approx(20.0)  # 5 km at 1/km = 1/3 h

    def test_delay_toll_inert_at_free_flow(self):
        state = RouteState(pz_travel_time=9.6, pz_free_time=9.6, bypass_travel_time=16.0)
        for omega in (0.0, 5.0, 15.0):
            assert generalized_cost("through_pz", (0.0, omega), state, self.config) == 9.6

    def test_unknown_route_rejected(self):
        state = RouteState(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            generalized_cost("teleport", (0.0, 0.0), state, self.config)

    def test_lane_arrays_match_scalar_calls(self):
        pz = np.array([9.6, 14.0, 22.5])
        byp = np.array([16.0, 15.0, 30.0])
        v, w = np.array([0.0, 0.4, 1.0]), np.array([15.0, 6.0, 0.0])
        costs = generalized_cost("through_pz", (v, w), RouteState(pz, 9.6, byp), self.config)
        splits = demand_split(costs, byp, 0.12)
        for b in range(3):
            state = RouteState(float(pz[b]), 9.6, float(byp[b]))
            cost = generalized_cost("through_pz", (float(v[b]), float(w[b])), state, self.config)
            assert costs[b] == cost
            assert splits[b] == demand_split(cost, float(byp[b]), 0.12)

    def test_split_symmetry_and_limits(self):
        assert demand_split(20.0, 20.0, 0.12) == pytest.approx(0.5)
        assert demand_split(np.inf, 20.0, 0.12) == 0.0
        assert demand_split(35.0, 12.0, 0.0) == pytest.approx(0.5)


class TestSimulate:
    def test_deterministic_under_fixed_seed(self):
        config = desk_preset()
        a = simulate(config, TollVector.zero(config.m), seed=3)
        b = simulate(config, TollVector.zero(config.m), seed=3)
        assert np.array_equal(a.network_density, b.network_density)
        assert np.array_equal(a.k_cells, b.k_cells)
        assert a.toll_revenue == b.toll_revenue

    def test_vehicle_conservation(self):
        config = desk_preset()
        res = simulate(config, TollVector.constant(config.m, 0.4, 6.0), seed=9)
        lane_km = config.cell_lengths * config.cell_lanes
        end_acc = float(res.k_cells[-1] @ lane_km)
        gap = abs(res.arrivals.sum() - res.exited.sum() - end_acc - res.queue[-1])
        assert gap <= 1e-6

    def test_density_bounds(self):
        config = desk_preset()
        res = simulate(config, TollVector.zero(config.m), seed=4)
        assert np.all(res.k_cells >= 0.0)
        assert np.all(res.k_cells <= config.jam_density[None, :] + 1e-9)

    @pytest.mark.parametrize("preset", [desk_preset, paper_preset], ids=["desk", "paper"])
    def test_interval_average_matches_time_series(self, preset):
        config = preset()
        res = simulate(config, TollVector.zero(config.m), seed=5)
        hours = res.t / 3600.0
        start, _ = config.tolling_window
        width = config.interval_minutes / 60.0
        for h in range(config.m):
            mask = (hours >= start + h * width - 1e-12) & (hours < start + (h + 1) * width - 1e-12)
            assert res.interval_density[h] == pytest.approx(
                float(np.mean(res.network_density[mask])), abs=1e-12)

    @pytest.mark.parametrize("preset", [desk_preset, paper_preset], ids=["desk", "paper"])
    def test_toll_starts_where_its_interval_average_starts(self, preset):
        config = preset()
        free = simulate(config, TollVector.zero(config.m), seed=6)
        start, _ = config.tolling_window
        width = config.interval_minutes / 60.0
        for h in range(config.m):
            distance, delay = np.zeros(config.m), np.zeros(config.m)
            distance[h], delay[h] = 0.5, 5.0
            tolled = simulate(config, TollVector(distance, delay), seed=6)
            first = int(round((start + h * width) * 3600.0 / config.step_seconds))
            assert tolled.t[first] == pytest.approx((start + h * width) * 3600.0)
            assert np.array_equal(tolled.demand, free.demand)
            assert np.array_equal(tolled.pz_demand[:first], free.pz_demand[:first])
            assert tolled.pz_demand[first] != free.pz_demand[first]

    def test_toll_interval_count_must_match(self):
        config = desk_preset()
        with pytest.raises(ValueError):
            simulate(config, TollVector.zero(config.m + 1), seed=0)

    def test_revenue_zero_without_toll_and_positive_with(self):
        config = desk_preset()
        free = simulate(config, TollVector.zero(config.m), seed=1)
        tolled = simulate(config, TollVector.constant(config.m, 0.5, 5.0), seed=1)
        assert free.toll_revenue == 0.0
        assert tolled.toll_revenue > 0.0

    def test_presets_define_expected_interval_counts(self):
        assert desk_preset().m == 4
        assert paper_preset().m == 8


PRESETS = {"desk": desk_preset, "paper": paper_preset}
# one lane: a seed from a small range, so seeds repeat, and a toll given as
# unit-box fractions (the first 2m are used) or None for the zero toll
LANE = st.tuples(st.integers(0, 2),
                 st.none() | st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16))


def _lane_toll(m: int, fractions) -> TollVector:
    if fractions is None:
        return TollVector.zero(m)
    return TollVector.from_array(np.array(fractions[:2 * m]) * np.r_[np.ones(m), np.full(m, 15.0)])


class TestSimulateBatch:
    @given(preset=st.sampled_from(sorted(PRESETS)), lanes=st.lists(LANE, min_size=1, max_size=6))
    @example(preset="desk", lanes=[(0, None)])
    @example(preset="paper", lanes=[(1, None), (1, [0.5] * 16), (0, None), (1, None),
                                    (2, [0.1 * i for i in range(16)]), (1, [1.0] * 16)])
    @settings(max_examples=8, deadline=None)
    def test_each_lane_is_its_own_simulate(self, preset, lanes):
        config = PRESETS[preset]()
        tolls = [_lane_toll(config.m, fractions) for _, fractions in lanes]
        seeds = [seed for seed, _ in lanes]
        batch = simulate_batch(config, tolls, seeds)
        for b, (toll, seed) in enumerate(zip(tolls, seeds)):
            one = simulate(config, toll, seed)
            assert np.array_equal(batch.interval_density[b], one.interval_density)
            assert np.array_equal(batch.interval_deviation[b], one.interval_deviation)
            assert batch.pz_avg_travel_time[b] == one.pz_avg_travel_time
            assert batch.net_avg_travel_time[b] == one.net_avg_travel_time
            assert batch.toll_revenue[b] == one.toll_revenue
            assert np.array_equal(batch.network_density[b], one.network_density)
            assert np.array_equal(batch.gamma[b], one.gamma)

    def test_toll_with_wrong_interval_count_rejected(self):
        config = desk_preset()
        with pytest.raises(ValueError, match="intervals"):
            simulate_batch(config, [TollVector.zero(config.m), TollVector.zero(config.m + 1)], [0, 1])

    def test_toll_and_seed_counts_must_match(self):
        config = desk_preset()
        with pytest.raises(ValueError, match="seeds"):
            simulate_batch(config, [TollVector.zero(config.m)] * 2, [0, 1, 2])


class TestConfigIO:
    def test_round_trip(self):
        config = desk_preset()
        loaded = config_from_dict(yaml.safe_load(yaml.safe_dump(config_to_dict(config))))
        assert config_to_dict(loaded) == config_to_dict(config)

    def test_unknown_key_is_named(self):
        doc = config_to_dict(desk_preset())
        doc["network"]["cells"]["wheelbase"] = 2.5
        with pytest.raises(ConfigError, match="network.cells.wheelbase"):
            config_from_dict(doc)

    def test_missing_key_is_named(self):
        doc = config_to_dict(desk_preset())
        del doc["network"]["choice"]["vtt_per_hour"]
        with pytest.raises(ConfigError, match="network.choice.vtt_per_hour"):
            config_from_dict(doc)

    @pytest.mark.parametrize("field,value,match", [
        ("heterogeneity_bias", [0.5] * 8, "sum to 1"),
        ("k_cr", 300.0, "k_cr"),
        ("interval_minutes", 7.0, "divide"),
        ("cell_lengths", [-1.0] * 8, "positive"),
        ("drain_multipliers", [1.2] * 8, "drain_multipliers"),
        ("demand_cv", -0.1, "demand_cv"),
        # 40-minute steps leave the last 30-minute tolling interval without one
        ("step_seconds", 2400.0, "step_seconds"),
    ])
    def test_invariant_violations_rejected(self, field, value, match):
        with pytest.raises(ConfigError, match=match):
            dataclasses.replace(desk_preset(), **{field: value})
