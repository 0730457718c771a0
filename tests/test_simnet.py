import dataclasses
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.special import expit

from tollopt import simnet
from tollopt.simnet import (BatchResult, ConfigError, config_from_dict, config_to_dict,
                            desk_preset, deviation_from_spread, envelope_gamma,
                            fit_lower_envelope, paper_preset, shared_prefixes, simulate,
                            simulate_batch, spatial_spread, zone_choice)
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

    @pytest.mark.parametrize("preset", [desk_preset, paper_preset], ids=["desk", "paper"])
    def test_presets_reproduce_the_frozen_envelope(self, preset):
        # the frozen coefficients are `tollopt envelope desk --runs 10`: the fit over
        # seeds 0-9 of zero-toll runs; a simulator change that moves it leaves them stale
        config = preset()
        batch = simulate_batch(config, np.zeros((10, 2 * config.m)), list(range(10)))
        pairs = [pair for k, gamma in zip(batch.network_density, batch.gamma)
                 for pair in zip(k, gamma)]
        assert fit_lower_envelope(pairs) == simnet._FROZEN_ENVELOPE


class TestRouteChoice:
    def setup_method(self):
        self.config = desk_preset()   # logit scale 0.12 per minute

    def test_zero_toll_cost_is_pure_travel_time(self):
        p, toll = zone_choice((0.0, 0.0), 18.0, 9.6, 16.0, self.config)
        assert toll == 0.0
        assert p == expit(-0.12 * (18.0 - 16.0))

    def test_distance_toll_time_equivalent(self):
        config = dataclasses.replace(self.config, pz_path_length=5.0, vtt=15.0)
        p, toll = zone_choice((1.0, 0.0), 6.0, 6.0, 26.0, config)
        assert toll == 5.0          # 5 km at 1/km
        assert p == 0.5             # 5 at 15/h is 20 min: zone cost 26 = bypass

    def test_delay_toll_inert_at_free_flow(self):
        untolled, _ = zone_choice((0.0, 0.0), 9.6, 9.6, 16.0, self.config)
        for omega in (0.0, 5.0, 15.0):
            p, toll = zone_choice((0.0, omega), 9.6, 9.6, 16.0, self.config)
            assert (p, toll) == (untolled, 0.0)

    def test_lane_arrays_match_scalar_calls(self):
        pz = np.array([9.6, 14.0, 22.5])
        byp = np.array([16.0, 15.0, 30.0])
        v, w = np.array([0.0, 0.4, 1.0]), np.array([15.0, 6.0, 0.0])
        splits, tolls = zone_choice((v, w), pz, 9.6, byp, self.config)
        for b in range(3):
            p, toll = zone_choice((float(v[b]), float(w[b])), float(pz[b]), 9.6,
                                  float(byp[b]), self.config)
            assert (splits[b], tolls[b]) == (p, toll)

    def test_share_is_expit_bit_for_bit(self):
        # at zero toll and bypass time, with logit scale 1, the logit's argument
        # is the zone time itself: u over five scales, plus the band where
        # exp(u) nears and passes overflow, which must give 0 without a warning
        rng = np.random.default_rng(3)
        u = np.concatenate([rng.standard_normal(20_000) * scale for scale in (1, 10, 100, 300, 1e3)]
                           + [np.linspace(700.0, 712.0, 50_000), np.linspace(-750.0, -700.0, 10_000),
                              [0.0, -0.0, 709.782712893384, 709.7827128933841, 1e308, -1e308]])
        config = dataclasses.replace(self.config, logit_scale=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, toll = zone_choice((0.0, 0.0), u, np.inf, 0.0, config)
        assert np.all(toll == 0.0)
        assert np.array_equal(p, expit(-u))
        assert p[-3] == 0.0
        # the step body's call, at every lane count up to 80: exp into a work
        # array of its own and the share into a third (an exp written back over
        # its reversed input would take numpy's SIMD kernel)
        with np.errstate(over="ignore"):
            for n in range(1, 81):
                for lanes in np.split(u[:100 * n], 100):
                    share = simnet._logistic(lanes, np.empty(n), np.empty(n))
                    assert np.array_equal(share, expit(-lanes)), n

    def test_split_symmetry_and_limits(self):
        assert zone_choice((0.0, 0.0), 20.0, 9.6, 20.0, self.config)[0] == 0.5
        assert zone_choice((0.0, 0.0), 1e4, 9.6, 20.0, self.config)[0] == 0.0
        indifferent = dataclasses.replace(self.config, logit_scale=0.0)
        assert zone_choice((1.0, 15.0), 35.0, 9.6, 12.0, indifferent)[0] == 0.5


def _step_times(config) -> np.ndarray:
    """Step start times (s), the ``t_s`` column that ``tollopt simulate`` writes."""
    return simnet._step_intervals(config)[0] * 3600.0


class TestSimulate:
    def test_deterministic_under_fixed_seed(self):
        config = desk_preset()
        a = simulate(config, TollVector.zero(config.m), seed=3)
        b = simulate(config, TollVector.zero(config.m), seed=3)
        assert np.array_equal(a.network_density[0], b.network_density[0])
        assert np.array_equal(a.history["k_cells"][0], b.history["k_cells"][0])
        assert a.toll_revenue[0] == b.toll_revenue[0]

    def test_vehicle_conservation(self):
        config = desk_preset()
        res = simulate(config, TollVector.constant(config.m, 0.4, 6.0), seed=9).history
        lane_km = config.cell_lengths * config.cell_lanes
        end_acc = float(res["k_cells"][0][-1] @ lane_km)
        gap = abs(res["arrivals"][0].sum() - res["exited"][0].sum() - end_acc
                  - res["queue"][0][-1])
        assert gap <= 1e-6

    def test_density_bounds(self):
        config = desk_preset()
        k_cells = simulate(config, TollVector.zero(config.m), seed=4).history["k_cells"][0]
        assert np.all(k_cells >= 0.0)
        assert np.all(k_cells <= config.jam_density[None, :] + 1e-9)

    @pytest.mark.parametrize("preset", [desk_preset, paper_preset], ids=["desk", "paper"])
    def test_interval_average_matches_time_series(self, preset):
        config = preset()
        res = simulate(config, TollVector.zero(config.m), seed=5)
        hours = _step_times(config) / 3600.0
        start, _ = config.tolling_window
        width = config.interval_minutes / 60.0
        for h in range(config.m):
            mask = (hours >= start + h * width - 1e-12) & (hours < start + (h + 1) * width - 1e-12)
            assert res.interval_density[0][h] == pytest.approx(
                float(np.mean(res.network_density[0][mask])), abs=1e-12)

    @pytest.mark.parametrize("preset", [desk_preset, paper_preset], ids=["desk", "paper"])
    def test_toll_starts_where_its_interval_average_starts(self, preset):
        config = preset()
        free = simulate(config, TollVector.zero(config.m), seed=6).history
        t = _step_times(config)
        start, _ = config.tolling_window
        width = config.interval_minutes / 60.0
        for h in range(config.m):
            distance, delay = np.zeros(config.m), np.zeros(config.m)
            distance[h], delay[h] = 0.5, 5.0
            tolled = simulate(config, TollVector(distance, delay), seed=6).history
            first = int(round((start + h * width) * 3600.0 / config.step_seconds))
            assert t[first] == pytest.approx((start + h * width) * 3600.0)
            assert np.array_equal(tolled["demand"][0], free["demand"][0])
            assert np.array_equal(tolled["pz_demand"][0][:first], free["pz_demand"][0][:first])
            assert tolled["pz_demand"][0][first] != free["pz_demand"][0][first]

    def test_toll_interval_count_must_match(self):
        config = desk_preset()
        with pytest.raises(ValueError):
            simulate(config, TollVector.zero(config.m + 1), seed=0)

    def test_revenue_zero_without_toll_and_positive_with(self):
        config = desk_preset()
        free = simulate(config, TollVector.zero(config.m), seed=1)
        tolled = simulate(config, TollVector.constant(config.m, 0.5, 5.0), seed=1)
        assert free.toll_revenue[0] == 0.0
        assert tolled.toll_revenue[0] > 0.0

    def test_series_are_one_value_per_step(self):
        config = desk_preset()
        res = simulate(config, TollVector.zero(config.m), seed=2)
        steps = int(round(config.horizon_hours * 3600.0 / config.step_seconds))
        series = {"network_density": res.network_density, "gamma": res.gamma, **res.history}
        assert sorted(series) == sorted(["network_density", "gamma", "flow", "speed", "queue",
                                         "demand", "pz_demand", "arrivals", "exited", "k_cells"])
        for name, values in series.items():
            assert values.shape == ((1, steps, config.n_cells) if name == "k_cells"
                                    else (1, steps)), name
        assert _step_times(config).shape == (steps,)

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


def _rows(tolls) -> np.ndarray:
    """The ``(B, 2m)`` stack that simulate_batch takes."""
    return np.array([toll.as_array() for toll in tolls])


def _assert_lane_is(batch, b, one):
    """Lane ``b`` of ``batch`` equals the one lane of ``one`` in every field but history."""
    for field in dataclasses.fields(BatchResult):
        if field.name != "history":
            assert np.array_equal(getattr(batch, field.name)[b], getattr(one, field.name)[0]), \
                field.name


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
        batch = simulate_batch(config, _rows(tolls), seeds)
        for b, (toll, seed) in enumerate(zip(tolls, seeds)):
            _assert_lane_is(batch, b, simulate(config, toll, seed))

    def test_per_step_series_are_contiguous_lane_rows(self):
        config = desk_preset()
        batch = simulate_batch(config, np.zeros((3, 2 * config.m)), [0, 1, 0])
        steps = int(round(config.horizon_hours * 3600.0 / config.step_seconds))
        for series in (batch.network_density, batch.gamma):
            assert series.shape == (3, steps)
            assert series.flags.c_contiguous

    def test_toll_with_wrong_interval_count_rejected(self):
        config = desk_preset()
        with pytest.raises(ValueError, match="intervals"):
            simulate_batch(config, np.zeros((2, 2 * config.m + 2)), [0, 1])

    def test_toll_and_seed_counts_must_match(self):
        config = desk_preset()
        with pytest.raises(ValueError, match="seeds"):
            simulate_batch(config, np.zeros((2, 2 * config.m)), [0, 1, 2])



def _assert_batches_equal(a, b):
    for field in dataclasses.fields(a):
        if field.name != "history":
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name
    assert (a.history is None) == (b.history is None)
    assert (a.history or {}).keys() == (b.history or {}).keys()
    for name in a.history or {}:
        assert np.array_equal(a.history[name], b.history[name]), name


class TestUntolledPrefix:
    @given(window=st.sampled_from([(0.0, 2.0), (1.0, 3.0), (0.5, 2.5)]),
           lanes=st.lists(LANE, min_size=1, max_size=5))
    @example(window=(0.0, 2.0), lanes=[(2, None), (0, [0.5] * 16), (2, [1.0] * 16), (0, None)])
    @settings(max_examples=6, deadline=None)
    def test_each_lane_is_its_own_simulate_for_any_window(self, window, lanes):
        # a window from 0 h leaves no prefix; one ending before the horizon
        # leaves untolled steps after it
        config = dataclasses.replace(desk_preset(), tolling_window=window)
        tolls = [_lane_toll(config.m, fractions) for _, fractions in lanes]
        seeds = [seed for seed, _ in lanes]
        batch = simulate_batch(config, _rows(tolls), seeds)
        for b, (toll, seed) in enumerate(zip(tolls, seeds)):
            _assert_lane_is(batch, b, simulate(config, toll, seed))

    def test_warm_call_equals_cold_call(self, monkeypatch):
        config = desk_preset()
        prefixed = []
        original = simnet._untolled_prefix

        def counting(config, seeds, *args):
            prefixed.extend(seeds)
            return original(config, seeds, *args)

        monkeypatch.setattr(simnet, "_untolled_prefix", counting)
        tolls = _rows([TollVector.constant(config.m, 0.3, 4.0), TollVector.zero(config.m),
                       TollVector.constant(config.m, 0.8, 12.0)])
        seeds = [7, 3, 7]
        cold = simulate_batch(config, tolls, seeds)
        assert sorted(prefixed) == [3, 7]
        with shared_prefixes(config):
            simulate_batch(config, tolls[:2], [3, 7])
            prefixed.clear()
            warm = simulate_batch(config, tolls, seeds)
            assert prefixed == []
            # a new seed is simulated alone; an equal but distinct config
            # object does not share this run's prefixes
            simulate_batch(config, tolls[:2], [7, 9])
            simulate_batch(desk_preset(), tolls[:1], [3])
            assert prefixed == [9, 3]
        _assert_batches_equal(warm, cold)
        prefixed.clear()
        _assert_batches_equal(simulate_batch(config, tolls, seeds), cold)
        assert sorted(prefixed) == [3, 7]


def _reference_advance(config, lanes, steps, rate_v, rate_w):
    """The simulator's step body written plainly, one numpy call per operation,
    as the oracle for ``simnet._advance``: same signature, same floating-point
    operations in the same order."""
    dt_h = config.step_seconds / 3600.0
    lane_km, total_lane_km, mean_free_speed, pz_free_min = simnet._free_flow(config)
    u_f, k_c, k_j = config.free_flow_speed, config.critical_density, config.jam_density
    crawl = config.crawl_speed
    cap_flow = u_f * k_c * config.cell_lanes          # veh/h per cell
    wave = u_f * k_c / (k_j - k_c)
    bypass_free_h = config.bypass_length / config.bypass_free_speed
    base_shares = config.heterogeneity_bias
    rebalanced_base = (1.0 - config.rebalancing) * base_shares
    tau_s = config.perception_tau_minutes * 60.0
    alpha_p = 1.0 if tau_s <= 0 else min(1.0, config.step_seconds / tau_s)
    ema_rate = config.step_seconds / 300.0
    step_interval = simnet._step_intervals(config)[1].tolist()

    (veh, queue, bypass_veh, bypass_inflow, k_ema, perceived_tt,
     veh_h_pz, veh_km_pz, veh_h_queue, veh_h_byp, veh_km_byp, revenue) = (
        lanes[name] for name in simnet._STATE)
    B = queue.size
    demand_steps, k_steps, gamma_steps = lanes["demand"], lanes["k"], lanes["gamma"]
    history = [lanes[name] for name in simnet._HISTORY] if simnet._HISTORY[0] in lanes else None

    for s in steps:
        demand, h = demand_steps[:, s], step_interval[s]
        k = veh / lane_km
        tri = np.maximum(np.minimum(u_f * k, wave * (k_j - k)), 0.0)
        cell_flow = np.maximum(tri, crawl * k)
        production = np.add.reduce(cell_flow * lane_km, axis=-1)
        accumulation = np.add.reduce(veh, axis=-1)
        speed = np.divide(production, accumulation, out=np.full(B, mean_free_speed),
                          where=accumulation > 1e-9)
        speed = np.maximum(speed, 1e-3)
        pz_tt_min = 60.0 * config.pz_path_length / speed
        perceived_tt += alpha_p * (pz_tt_min - perceived_tt)
        bypass_tt_h = bypass_free_h * (
            1.0 + 0.15 * np.float_power(bypass_inflow / config.bypass_capacity, 2.0))
        p_pz, trip_toll = simnet.zone_choice((rate_v[h], rate_w[h]), perceived_tt, pz_free_min,
                                             bypass_tt_h * 60.0, config)
        pz_rate = p_pz * demand
        bypass_rate = demand - pz_rate

        arrivals = pz_rate * dt_h
        avail = queue + arrivals
        jam_gap = np.maximum(k_j - k, 0.0)
        headroom = jam_gap * lane_km
        hr_total = np.add.reduce(headroom, axis=-1)
        shares = base_shares
        if config.rebalancing > 0:
            has_room = hr_total > 0
            rebalanced = rebalanced_base + config.rebalancing * headroom \
                / np.where(has_room, hr_total, 1.0)[:, None]
            shares = np.where(has_room[:, None], rebalanced, base_shares)
        supply = np.minimum(cap_flow, wave * jam_gap * config.cell_lanes) * dt_h
        wanted = avail[:, None] * shares
        inflow = np.minimum(wanted, supply)
        spare = supply - inflow
        surplus = avail - np.add.reduce(inflow, axis=-1)
        spare_total = np.add.reduce(spare, axis=-1)
        top_up = (surplus > 1e-12) & (spare_total > 1e-12)
        if top_up.any():
            fill = np.minimum(surplus, spare_total) / np.where(top_up, spare_total, 1.0)
            inflow = np.where(top_up[:, None], inflow + spare * fill[:, None], inflow)
        entered = np.add.reduce(inflow, axis=-1)
        queue = np.maximum(avail - entered, 0.0)

        unloading = (accumulation > 0) & ((accumulation / total_lane_km) < k_ema - 0.5)
        mult = np.where(unloading[:, None], config.drain_multipliers, 1.0)
        out_rate = mult * cell_flow * lane_km / config.pz_path_length
        outflow = np.minimum(out_rate * dt_h, veh + inflow)
        exited = np.add.reduce(outflow, axis=-1)
        veh = veh + inflow - outflow

        bypass_out = np.minimum(bypass_veh, bypass_veh * dt_h / bypass_tt_h)
        bypass_veh = bypass_veh + bypass_rate * dt_h - bypass_out
        bypass_inflow = bypass_rate

        k = veh / lane_km
        gamma, K = simnet._weighted_spread(k, lane_km, total_lane_km)
        k_ema += ema_rate * (K - k_ema)

        revenue += entered * trip_toll
        veh_h_pz += accumulation * dt_h
        veh_km_pz += production * dt_h
        veh_h_queue += queue * dt_h
        veh_h_byp += bypass_veh * dt_h
        veh_km_byp += (bypass_veh / bypass_tt_h) * config.bypass_length * dt_h

        if history is not None:
            for series, value in zip(history, (production / total_lane_km, speed, queue,
                                               pz_rate, arrivals, exited, k)):
                series[:, s] = value
        k_steps[:, s] = K
        gamma_steps[:, s] = gamma

    lanes.update(veh=veh, gate_queue=queue, bypass_veh=bypass_veh, bypass_inflow=bypass_inflow)


class TestStepBody:
    @given(window=st.sampled_from([(2.0, 4.0), (1.0, 3.0)]),
           rebalancing=st.sampled_from([0.0, 0.3]),
           tau=st.sampled_from([0.0, 25.0]),
           lanes=st.lists(LANE, min_size=1, max_size=6))
    @example(window=(1.0, 3.0), rebalancing=0.0, tau=0.0,
             lanes=[(2, [1.0] * 16), (0, None), (2, [0.3] * 16), (1, [0.9] * 16)])
    @settings(max_examples=8, deadline=None)
    def test_matches_the_reference_step_body(self, window, rebalancing, tau, lanes):
        # the presets never reach rebalancing 0 or tau 0, so the golden
        # digests cannot vouch for those branches
        config = dataclasses.replace(desk_preset(), tolling_window=window,
                                     rebalancing=rebalancing, perception_tau_minutes=tau)
        tolls = [_lane_toll(config.m, fractions) for _, fractions in lanes]
        self._assert_matches_reference(config, tolls, [seed for seed, _ in lanes])

    def test_extreme_jam_matches_the_reference_step_body(self):
        # with no crawl speed and 20,000 veh/h of flat demand the cells come
        # within 1e-13 of jam density and the top-up fires, where the flow's
        # dropped max(., 0) and the one-minimum top-up test would show
        config = dataclasses.replace(desk_preset(), crawl_speed=0.0,
                                     demand_knots=[(0.0, 20_000.0), (4.0, 20_000.0)])
        tolls = [_lane_toll(config.m, fractions) for fractions in (None, [0.4] * 16, [1.0] * 16)]
        self._assert_matches_reference(config, tolls, [0, 1, 0])

    @staticmethod
    def _assert_matches_reference(config, tolls, seeds):
        # a numpy deprecation (such as a positional out) or a floating-point
        # warning that the reference does not raise fails the comparison
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = simulate_batch(config, _rows(tolls), seeds)
            one = simulate(config, tolls[0], seeds[0])
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(simnet, "_advance", _reference_advance)
                ref_batch = simulate_batch(config, _rows(tolls), seeds)
                ref_one = simulate(config, tolls[0], seeds[0])
        _assert_batches_equal(batch, ref_batch)
        _assert_batches_equal(one, ref_one)

    def test_a_jammed_lane_beside_one_with_room_matches_the_reference(self):
        # every cell of lane 0 at jam density leaves it no headroom, so the
        # rebalanced shares take their branch for a lane without room, which
        # no simulated run above reaches; lane 1 has room
        config = desk_preset()
        lane_km = config.cell_lengths * config.cell_lanes
        n_steps = _step_times(config).size
        veh = np.stack([config.jam_density * lane_km, config.critical_density * lane_km])
        assert np.add.reduce(np.maximum(config.jam_density - veh[0] / lane_km, 0.0)) == 0.0
        lanes = {name: np.zeros(2) for name in simnet._STATE}
        lanes.update(veh=veh, gate_queue=np.array([50.0, 0.0]), bypass_inflow=np.full(2, 3000.0),
                     k_ema=np.array([120.0, 35.0]), perceived_tt=np.array([40.0, 12.0]),
                     demand=np.full((2, n_steps), 6000.0),
                     k=np.zeros((2, n_steps)), gamma=np.zeros((2, n_steps)))
        rate_v, rate_w = np.zeros((2, config.m + 1, 2))
        rate_v[:config.m], rate_w[:config.m] = [0.2, 0.9], [3.0, 12.0]
        steps = range(n_steps - 6, n_steps)   # six steps of the last tolled interval
        ours = {name: lane.copy() for name, lane in lanes.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a 0 / 0 share of the jammed lane warns
            simnet._advance(config, ours, steps, rate_v, rate_w)
            _reference_advance(config, lanes, steps, rate_v, rate_w)
        assert ours.keys() == lanes.keys()
        for name in lanes:
            assert np.array_equal(ours[name], lanes[name]), name


class TestFrozenConfig:
    def test_fields_cannot_be_assigned(self):
        config = desk_preset()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.k_cr = 30.0

    def test_cell_arrays_are_read_only_copies(self):
        lengths = np.full(8, 0.625)
        config = dataclasses.replace(desk_preset(), cell_lengths=lengths, jam_density=[110.0])
        with pytest.raises(ValueError):
            config.cell_lengths[0] = 1.0
        lengths[0] = 1.0
        assert config.cell_lengths[0] == 0.625
        # a single value is broadcast to every cell, read-only too
        assert np.array_equal(config.jam_density, np.full(8, 110.0))
        assert not config.jam_density.flags.writeable

    def test_configs_compare_and_hash_by_identity(self):
        config, other = desk_preset(), desk_preset()
        assert (config == other) is False
        assert config == config
        assert hash(config) == hash(config)
        assert len({config, other, config}) == 2
        # values compare through the config's dict form
        assert config_to_dict(config) == config_to_dict(other)

    def test_demand_knots_are_a_tuple(self):
        config = dataclasses.replace(desk_preset(), demand_knots=[[0.0, 900.0], [4.0, 600.0]])
        assert config.demand_knots == ((0.0, 900.0), (4.0, 600.0))


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

    def test_empty_network_section_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^network: "):
            config_from_dict({"network": None})

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
