"""Synthetic multi-cell reservoir traffic simulator.

Stands in for an expensive dynamic traffic assignment run: a pricing zone of
a few fundamental-diagram cells fed by a time-varying demand profile, a
binary logit split between one representative through-zone path and one
untolled bypass, heterogeneous cell loading, and asymmetric cell draining
that produces a clockwise hysteresis loop in the network fundamental
diagram.  One call maps a toll pattern to per-interval network densities and
heterogeneity metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

from .toll import TollVector


class ConfigError(ValueError):
    """Malformed or inconsistent network configuration; message names the key."""


# ---------------------------------------------------------------------------
# configuration

@dataclass
class NetworkConfig:
    """Everything that defines one synthetic network scenario.

    Cell fundamental diagrams are triangular (free-flow branch up to the
    critical density, congested branch down to jam).  ``heterogeneity_bias``
    fixes how entering traffic spreads over cells while loading;
    ``drain_multipliers`` scale each cell's discharge while the network is
    unloading, which is what opens the hysteresis loop.
    """

    cell_lengths: np.ndarray        # km per cell
    cell_lanes: np.ndarray          # lanes per cell
    free_flow_speed: np.ndarray     # km/h per cell
    critical_density: np.ndarray    # vpkmpl per cell
    jam_density: np.ndarray         # vpkmpl per cell
    heterogeneity_bias: np.ndarray  # inflow shares, sums to 1
    drain_multipliers: np.ndarray   # in (0, 1], applied during unloading
    rebalancing: float              # 0..1, inflow weight steered toward spare capacity
    pz_path_length: float           # km, representative through-zone trip
    bypass_length: float            # km
    bypass_free_speed: float        # km/h
    bypass_capacity: float          # veh/h
    vtt: float                      # currency/h
    logit_scale: float              # 1/min of generalized cost
    perception_tau_minutes: float   # smoothing of the travel time drivers react to
    k_cr: float                     # vpkmpl, control target
    envelope: tuple[float, float, float]   # (a, b, c) of the spread envelope
    demand_knots: list[tuple[float, float]]  # (hour, veh/h) piecewise linear
    demand_cv: float                # replication noise coefficient of variation
    crawl_speed: float              # km/h floor on congested movement; keeps jams drainable
    step_seconds: float
    horizon_hours: float
    tolling_window: tuple[float, float]      # hours
    interval_minutes: float

    def __post_init__(self):
        for name in ("cell_lengths", "cell_lanes", "free_flow_speed",
                     "critical_density", "jam_density", "heterogeneity_bias",
                     "drain_multipliers"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        self.validate()

    @property
    def n_cells(self) -> int:
        return self.cell_lengths.size

    @property
    def m(self) -> int:
        """Number of tolling intervals."""
        start, end = self.tolling_window
        return int(round((end - start) * 60.0 / self.interval_minutes))

    @property
    def lane_km(self) -> np.ndarray:
        return self.cell_lengths * self.cell_lanes

    def validate(self) -> None:
        c = self.cell_lengths.size
        for name in ("cell_lanes", "free_flow_speed", "critical_density",
                     "jam_density", "heterogeneity_bias", "drain_multipliers"):
            arr = getattr(self, name)
            if arr.size == 1 and c > 1:
                object.__setattr__(self, name, np.full(c, float(arr[0])))
            elif arr.size != c:
                raise ConfigError(f"{name}: expected {c} values, got {arr.size}")
        for name in ("cell_lengths", "cell_lanes", "free_flow_speed",
                     "critical_density", "jam_density"):
            if np.any(getattr(self, name) <= 0):
                raise ConfigError(f"{name}: all values must be positive")
        if np.any(self.critical_density >= self.jam_density):
            raise ConfigError("critical_density: must be below jam_density in every cell")
        if abs(float(np.sum(self.heterogeneity_bias)) - 1.0) > 1e-9:
            raise ConfigError("heterogeneity_bias: shares must sum to 1")
        if np.any(self.heterogeneity_bias < 0):
            raise ConfigError("heterogeneity_bias: shares must be nonnegative")
        if np.any(self.drain_multipliers <= 0) or np.any(self.drain_multipliers > 1):
            raise ConfigError("drain_multipliers: values must lie in (0, 1]")
        if not 0.0 <= self.rebalancing <= 1.0:
            raise ConfigError("rebalancing: must lie in [0, 1]")
        for name in ("pz_path_length", "bypass_length", "bypass_free_speed",
                     "bypass_capacity", "vtt", "step_seconds", "horizon_hours",
                     "interval_minutes"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name}: must be positive")
        if self.logit_scale < 0:
            raise ConfigError("logit_scale: must be nonnegative")
        if self.k_cr <= 0 or np.any(self.k_cr >= self.jam_density):
            raise ConfigError("k_cr: must be positive and below every jam density")
        if self.demand_cv < 0:
            raise ConfigError("demand_cv: must be nonnegative")
        if not 0 <= self.crawl_speed < float(np.min(self.free_flow_speed)):
            raise ConfigError("crawl_speed: must be nonnegative and below the free-flow speed")
        if self.perception_tau_minutes < 0:
            raise ConfigError("perception_tau_minutes: must be nonnegative")
        start, end = self.tolling_window
        if not 0.0 <= start < end <= self.horizon_hours:
            raise ConfigError("tolling_window: need 0 <= start < end <= horizon_hours")
        window_min = (end - start) * 60.0
        n_int = window_min / self.interval_minutes
        if abs(n_int - round(n_int)) > 1e-9 or round(n_int) < 1:
            raise ConfigError("interval_minutes: must divide the tolling window")
        if len(self.demand_knots) < 2:
            raise ConfigError("demand_knots: need at least two (hour, veh/h) knots")
        hours = [k[0] for k in self.demand_knots]
        if any(b <= a for a, b in zip(hours, hours[1:])):
            raise ConfigError("demand_knots: hours must be strictly increasing")
        if any(k[1] < 0 for k in self.demand_knots):
            raise ConfigError("demand_knots: demand must be nonnegative")
        _, step_interval = _step_intervals(self)
        stepless = sorted(set(range(self.m)) - set(step_interval.tolist()))
        if stepless:
            raise ConfigError(f"step_seconds: {self.step_seconds:g} s leaves tolling "
                              f"interval {stepless[0] + 1} of {self.m} without a step")


# (section, key) -> dataclass field; single place defining the file schema
_SCHEMA = {
    ("cells", "lengths_km"): "cell_lengths",
    ("cells", "lanes"): "cell_lanes",
    ("cells", "free_flow_speed_kmh"): "free_flow_speed",
    ("cells", "critical_density_vpkmpl"): "critical_density",
    ("cells", "jam_density_vpkmpl"): "jam_density",
    ("cells", "inflow_shares"): "heterogeneity_bias",
    ("cells", "drain_multipliers"): "drain_multipliers",
    ("cells", "crawl_speed_kmh"): "crawl_speed",
    ("cells", "rebalancing"): "rebalancing",
    ("paths", "pz_path_length_km"): "pz_path_length",
    ("paths", "bypass_length_km"): "bypass_length",
    ("paths", "bypass_free_speed_kmh"): "bypass_free_speed",
    ("paths", "bypass_capacity_vph"): "bypass_capacity",
    ("choice", "vtt_per_hour"): "vtt",
    ("choice", "logit_scale_per_min"): "logit_scale",
    ("choice", "perception_tau_minutes"): "perception_tau_minutes",
    ("control", "k_cr_vpkmpl"): "k_cr",
    ("control", "envelope_abc"): "envelope",
    ("control", "tolling_window_hours"): "tolling_window",
    ("control", "interval_minutes"): "interval_minutes",
    ("demand", "knots_hour_vph"): "demand_knots",
    ("demand", "noise_cv"): "demand_cv",
    ("simulation", "step_seconds"): "step_seconds",
    ("simulation", "horizon_hours"): "horizon_hours",
}


def config_from_dict(doc: dict) -> NetworkConfig:
    if not isinstance(doc, dict) or "network" not in doc:
        raise ConfigError("network: missing top-level section")
    net = doc["network"]
    kwargs = {}
    for (section, key), fieldname in _SCHEMA.items():
        if section not in net or not isinstance(net[section], dict):
            raise ConfigError(f"network.{section}: missing section")
        if key not in net[section]:
            raise ConfigError(f"network.{section}.{key}: missing key")
        kwargs[fieldname] = net[section][key]
    known = {s for s, _ in _SCHEMA}
    for section in net:
        if section not in known:
            raise ConfigError(f"network.{section}: unknown section")
        for key in net[section]:
            if (section, key) not in _SCHEMA:
                raise ConfigError(f"network.{section}.{key}: unknown key")
    kwargs["envelope"] = tuple(float(v) for v in kwargs["envelope"])
    if len(kwargs["envelope"]) != 3:
        raise ConfigError("network.control.envelope_abc: need exactly [a, b, c]")
    kwargs["tolling_window"] = tuple(float(v) for v in kwargs["tolling_window"])
    if len(kwargs["tolling_window"]) != 2:
        raise ConfigError("network.control.tolling_window_hours: need [start, end]")
    kwargs["demand_knots"] = [(float(h), float(q)) for h, q in kwargs["demand_knots"]]
    try:
        return NetworkConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"network: {exc}") from exc


def config_to_dict(config: NetworkConfig) -> dict:
    net: dict = {}
    for (section, key), fieldname in _SCHEMA.items():
        value = getattr(config, fieldname)
        if isinstance(value, np.ndarray):
            value = [float(v) for v in value]
        elif isinstance(value, tuple):
            value = [float(v) for v in value]
        elif fieldname == "demand_knots":
            value = [[float(h), float(q)] for h, q in value]
        else:
            value = float(value)
        net.setdefault(section, {})[key] = value
    return {"network": net}


# ---------------------------------------------------------------------------
# aggregate metrics

def _cell_weights(lengths, lanes) -> np.ndarray:
    w = np.asarray(lengths, dtype=float) * np.asarray(lanes, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("need one positive weight per cell")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    return w


def _weighted_spread(k: np.ndarray, w: np.ndarray, total: float):
    # rows are summed along the contiguous last axis, which keeps numpy's
    # pairwise order of a one-dimensional sum
    mean = np.add.reduce(k * w, axis=-1) / total
    spread = np.sqrt(np.add.reduce(w * (k - mean[..., None]) ** 2, axis=-1) / total)
    return spread, mean


def spatial_spread(densities, lengths, lanes):
    """Length-lane-weighted mean density K and spread gamma (weighted std).

    Reduces along the last axis: a ``(..., C)`` array of cell densities gives
    one (gamma, K) pair per row.
    """
    k = np.asarray(densities, dtype=float)
    w = _cell_weights(lengths, lanes)
    if k.shape[-1:] != w.shape:
        raise ValueError("need one positive weight per cell")
    return _weighted_spread(k, w, float(np.sum(w)))


def envelope_gamma(k: float, envelope: Sequence[float]) -> float:
    """Lower-envelope cubic gamma(K) = a K^3 + b K^2 + c K (zero intercept)."""
    a, b, c = envelope
    return ((a * k + b) * k + c) * k


def deviation_from_spread(gamma: float, k: float, envelope: Sequence[float]) -> float:
    """Excess spread above the natural accumulation-driven minimum; may be negative."""
    return gamma - envelope_gamma(k, envelope)


def fit_lower_envelope(samples: Sequence[tuple[float, float]], n_bins: int = 20
                       ) -> tuple[float, float, float]:
    """Fit the zero-intercept cubic to the lower envelope of (K, gamma) samples.

    K is binned into ``n_bins`` equal-width bins; the minimum gamma per
    nonempty bin defines the envelope points for the least-squares fit.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3:
        raise ValueError("need at least 3 (K, gamma) samples")
    ks, gs = pts[:, 0], pts[:, 1]
    lo, hi = float(np.min(ks)), float(np.max(ks))
    if hi <= lo:
        raise ValueError("samples span a single K value")
    edges = np.linspace(lo, hi, n_bins + 1)
    idx = np.clip(np.digitize(ks, edges) - 1, 0, n_bins - 1)
    env_k, env_g = [], []
    for b in range(n_bins):
        mask = idx == b
        if not np.any(mask):
            continue
        j = np.argmin(gs[mask])
        env_k.append(ks[mask][j])
        env_g.append(gs[mask][j])
    if len(env_k) < 3:
        raise ValueError("need at least 3 nonempty K bins to fit the envelope")
    env_k = np.asarray(env_k)
    basis = np.stack([env_k ** 3, env_k ** 2, env_k], axis=1)
    coef, *_ = np.linalg.lstsq(basis, np.asarray(env_g), rcond=None)
    return float(coef[0]), float(coef[1]), float(coef[2])


# ---------------------------------------------------------------------------
# route choice

@dataclass
class RouteState:
    """Instantaneous travel conditions used to price the two routes (minutes).

    Fields are floats, or arrays holding one value per simulated lane.
    """

    pz_travel_time: float | np.ndarray
    pz_free_time: float
    bypass_travel_time: float | np.ndarray


def _trip_toll(toll_rates, state: RouteState, config: NetworkConfig):
    """Toll charged for one through-zone trip (currency)."""
    v_h, w_h = toll_rates
    delay_hours = np.maximum(0.0, state.pz_travel_time - state.pz_free_time) / 60.0
    return v_h * config.pz_path_length + w_h * delay_hours


def generalized_cost(route: str, toll_rates, state: RouteState, config: NetworkConfig):
    """Generalized cost of one route in time-equivalent minutes.

    The through-zone cost adds the distance toll and the delay toll converted
    by the value of travel time; the bypass carries no toll.  The delay term
    vanishes whenever the zone runs at free flow.  Rates and state may be
    arrays of lanes.
    """
    if route == "bypass":
        return state.bypass_travel_time
    if route != "through_pz":
        raise ValueError(f"unknown route {route!r}")
    return state.pz_travel_time + 60.0 * _trip_toll(toll_rates, state, config) / config.vtt


def demand_split(cost_pz, cost_bypass, logit_scale: float):
    """Binary logit probability of choosing the through-zone route."""
    return expit(-logit_scale * (cost_pz - cost_bypass))


# ---------------------------------------------------------------------------
# simulation

@dataclass
class SimulationResult:
    """Per-step network state plus per-interval aggregates for one run."""

    t: np.ndarray                # step start times (s)
    k_cells: np.ndarray          # (T, C) vpkmpl
    network_density: np.ndarray  # (T,) K
    gamma: np.ndarray            # (T,)
    deviation: np.ndarray        # (T,) Delta
    flow: np.ndarray             # (T,) veh/h per lane (production / lane-km)
    speed: np.ndarray            # (T,) km/h
    queue: np.ndarray            # (T,) vehicles waiting to enter
    demand: np.ndarray           # (T,) total veh/h
    pz_demand: np.ndarray        # (T,) veh/h routed to the zone
    arrivals: np.ndarray         # (T,) veh added to queue+cells this step
    entered: np.ndarray          # (T,) veh moved from queue into cells
    exited: np.ndarray           # (T,) veh completing zone trips
    interval_density: np.ndarray    # (m,) mean K per tolling interval
    interval_deviation: np.ndarray  # (m,) mean Delta per tolling interval
    pz_avg_travel_time: float    # min/km inside the zone
    net_avg_travel_time: float   # min/km across zone + queue + bypass
    toll_revenue: float          # currency
    seed: int

    @property
    def m(self) -> int:
        return self.interval_density.size


def _triangular_flow(k, u_f, k_j, wave, crawl):
    """Per-lane triangular fundamental diagram flow (veh/h/lane).

    ``wave`` is the congested-branch wave speed u_f k_c / (k_j - k_c).  The
    ``crawl`` speed floors the congested branch so a jammed cell keeps a
    trickle of movement and gridlock never becomes an absorbing state.
    """
    tri = np.maximum(np.minimum(u_f * k, wave * (k_j - k)), 0.0)
    return np.maximum(tri, crawl * k)


@dataclass
class BatchResult:
    """Per-lane aggregates of one :func:`simulate_batch` call.

    Lane ``b`` is the replication of ``tolls[b]`` under ``seeds[b]``.  Only
    the network density K and spread gamma are kept per step.
    """

    network_density: np.ndarray     # (B, T) K
    gamma: np.ndarray               # (B, T)
    interval_density: np.ndarray    # (B, m) mean K per tolling interval
    interval_deviation: np.ndarray  # (B, m) mean Delta per tolling interval
    pz_avg_travel_time: np.ndarray  # (B,) min/km inside the zone
    net_avg_travel_time: np.ndarray  # (B,) min/km across zone + queue + bypass
    toll_revenue: np.ndarray        # (B,) currency


# per-step series that only simulate keeps, in the order the step loop records them
_HISTORY = ("flow", "speed", "queue", "demand", "pz_demand", "arrivals", "entered",
            "exited", "k_cells")


def _step_intervals(config: NetworkConfig) -> tuple[np.ndarray, np.ndarray]:
    """Start hour of every step and its tolling interval (-1 outside the window)."""
    dt_h = config.step_seconds / 3600.0
    step_h = np.arange(int(round(config.horizon_hours / dt_h))) * dt_h
    win_start, win_end = config.tolling_window
    interval_h = config.interval_minutes / 60.0
    in_window = (step_h >= win_start) & (step_h < win_end)
    step_interval = np.where(
        in_window, np.minimum(((step_h - win_start) / interval_h).astype(int), config.m - 1), -1)
    return step_h, step_interval


def simulate(config: NetworkConfig, toll: TollVector, seed: int) -> SimulationResult:
    """Run one seeded replication of the reservoir model under a toll pattern.

    The step loop of :func:`simulate_batch` with one lane, keeping every
    per-step series.
    """
    batch, history = _run(config, [toll], [seed], keep_history=True)
    k, gamma = batch.network_density[0], batch.gamma[0]
    return SimulationResult(
        t=_step_intervals(config)[0] * 3600.0, network_density=k, gamma=gamma,
        deviation=deviation_from_spread(gamma, k, config.envelope),
        **{name: series[:, 0] for name, series in history.items()},
        interval_density=batch.interval_density[0],
        interval_deviation=batch.interval_deviation[0],
        pz_avg_travel_time=float(batch.pz_avg_travel_time[0]),
        net_avg_travel_time=float(batch.net_avg_travel_time[0]),
        toll_revenue=float(batch.toll_revenue[0]), seed=int(seed),
    )


def simulate_batch(config: NetworkConfig, tolls: Sequence[TollVector],
                   seeds: Sequence[int]) -> BatchResult:
    """Run independent seeded replications in one step loop over a lane axis.

    Lane ``b`` is bit-for-bit the replication ``simulate(config, tolls[b],
    seeds[b])``; replications of one point, or several points, share every
    step's numpy calls.
    """
    return _run(config, tolls, seeds, keep_history=False)[0]


def _run(config: NetworkConfig, tolls: Sequence[TollVector], seeds: Sequence[int],
         keep_history: bool) -> tuple[BatchResult, dict | None]:
    """The step loop over B lanes of (toll, seed).

    Each step's time, demand (with its lognormal noise) and tolling interval
    are scheduled once up front.  Each step then splits demand between zone
    and bypass with the current generalized costs, loads the zone cells by
    their inflow shares subject to receiving capacity (excess queues at the
    gate), drains each cell through its fundamental diagram (scaled by the
    drain multipliers while the network is unloading), and records the
    aggregate state.  Toll rates apply only inside the tolling window.
    ``keep_history`` also returns every per-step series of every lane.
    """
    config.validate()
    m = config.m
    if len(tolls) != len(seeds):
        raise ValueError(f"got {len(tolls)} tolls for {len(seeds)} seeds")
    if not tolls:
        raise ValueError("need at least one (toll, seed) lane")
    for toll in tolls:
        if toll.m != m:
            raise ValueError(f"toll has {toll.m} intervals, config defines {m}")
    B = len(tolls)

    dt_h = config.step_seconds / 3600.0
    C = config.n_cells
    lane_km = _cell_weights(config.cell_lengths, config.cell_lanes)
    total_lane_km = float(np.sum(lane_km))
    u_f, k_c, k_j = config.free_flow_speed, config.critical_density, config.jam_density
    crawl = config.crawl_speed
    cap_flow = u_f * k_c * config.cell_lanes          # veh/h per cell
    wave = u_f * k_c / (k_j - k_c)
    mean_free_speed = float(np.sum(u_f * lane_km) / total_lane_km)
    pz_free_min = 60.0 * config.pz_path_length / mean_free_speed
    bypass_free_h = config.bypass_length / config.bypass_free_speed
    base_shares = config.heterogeneity_bias
    rebalanced_base = (1.0 - config.rebalancing) * base_shares

    # per-run schedule: step times, demand with each lane's per-step
    # lognormal (mean-one) noise, and the tolling interval of each step,
    # which sets both the step's toll and the interval means
    step_h, step_interval = _step_intervals(config)
    n_steps = step_h.size
    knot_h, knot_q = zip(*config.demand_knots)
    step_demand = np.empty((n_steps, B))
    step_demand[:] = np.interp(step_h, knot_h, knot_q)[:, None]
    log_sigma = math.sqrt(math.log(1.0 + config.demand_cv ** 2))
    if log_sigma > 0:
        for b, seed in enumerate(seeds):
            draws = np.random.default_rng(seed).normal(
                -0.5 * log_sigma ** 2, log_sigma, size=n_steps)
            # math.exp, not np.exp: the two can differ in the last bit, and
            # fixed-seed runs are pinned (tests/test_golden.py)
            step_demand[:, b] *= np.array([math.exp(z) for z in draws])
    # row -1, a step outside the window, is the untolled rate
    rate_v = np.zeros((m + 1, B))
    rate_w = np.zeros((m + 1, B))
    rate_v[:m] = np.array([toll.distance_rates for toll in tolls]).T
    rate_w[:m] = np.array([toll.delay_rates for toll in tolls]).T

    veh = np.zeros((B, C))       # vehicles per cell
    queue = np.zeros(B)
    bypass_veh = np.zeros(B)
    bypass_inflow = np.zeros(B)  # veh/h, previous step, feeds the BPR delay
    k_ema = np.zeros(B)          # slow network-density trend for the phase flag
    perceived_tt = np.full(B, pz_free_min)  # travel time drivers react to (smoothed)
    tau_s = config.perception_tau_minutes * 60.0
    alpha_p = 1.0 if tau_s <= 0 else min(1.0, config.step_seconds / tau_s)
    ema_rate = config.step_seconds / 300.0

    # a step reads its demand row once, so that row then keeps the step's K
    # and the loop holds two (T, B) arrays, not three
    k_steps = step_demand
    gamma_steps = np.zeros((n_steps, B))
    if keep_history:
        history = {name: np.zeros((n_steps, B, C) if name == "k_cells" else (n_steps, B))
                   for name in _HISTORY}
    veh_h_pz, veh_km_pz, veh_h_queue, veh_h_byp, veh_km_byp, revenue = np.zeros((6, B))

    for s, (demand, h) in enumerate(zip(step_demand, step_interval.tolist())):
        rates = (rate_v[h], rate_w[h])

        # current performance of both routes
        k = veh / lane_km
        cell_flow = _triangular_flow(k, u_f, k_j, wave, crawl)   # veh/h per lane
        production = np.add.reduce(cell_flow * lane_km, axis=-1)  # veh km/h
        accumulation = np.add.reduce(veh, axis=-1)
        speed = np.divide(production, accumulation, out=np.full(B, mean_free_speed),
                          where=accumulation > 1e-9)
        speed = np.maximum(speed, 1e-3)
        pz_tt_min = 60.0 * config.pz_path_length / speed
        perceived_tt += alpha_p * (pz_tt_min - perceived_tt)
        # float_power is libm pow, as Python's float ** 2 is; an array's ** 2
        # squares, which differs from pow in the last bit on some inputs
        bypass_tt_h = bypass_free_h * (
            1.0 + 0.15 * np.float_power(bypass_inflow / config.bypass_capacity, 2.0))
        state = RouteState(perceived_tt, pz_free_min, bypass_tt_h * 60.0)
        cost_pz = generalized_cost("through_pz", rates, state, config)
        cost_b = generalized_cost("bypass", rates, state, config)
        p_pz = demand_split(cost_pz, cost_b, config.logit_scale)
        pz_rate = p_pz * demand
        bypass_rate = demand - pz_rate

        # load the zone: queued vehicles plus new arrivals, by inflow share,
        # capped by each cell's receiving capacity; overflow from saturated
        # cells diverts to cells with spare supply (densities equalize as the
        # zone approaches gridlock), anything left queues at the gate
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

        # drain: per-cell completion via the fundamental diagram, slowed by
        # the drain multipliers while the network trend is falling; the
        # deadband keeps demand noise from flapping the phase flag
        unloading = (accumulation > 0) & ((accumulation / total_lane_km) < k_ema - 0.5)
        mult = np.where(unloading[:, None], config.drain_multipliers, 1.0)
        out_rate = mult * cell_flow * lane_km / config.pz_path_length
        outflow = np.minimum(out_rate * dt_h, veh + inflow)
        exited = np.add.reduce(outflow, axis=-1)
        veh = veh + inflow - outflow

        # bypass as a first-order delay reservoir with a BPR-style travel time
        bypass_out = np.minimum(bypass_veh, bypass_veh * dt_h / bypass_tt_h)
        bypass_veh = bypass_veh + bypass_rate * dt_h - bypass_out
        bypass_inflow = bypass_rate

        k = veh / lane_km
        gamma, K = _weighted_spread(k, lane_km, total_lane_km)
        k_ema += ema_rate * (K - k_ema)

        revenue += entered * _trip_toll(rates, state, config)
        veh_h_pz += accumulation * dt_h
        veh_km_pz += production * dt_h
        veh_h_queue += queue * dt_h
        veh_h_byp += bypass_veh * dt_h
        veh_km_byp += (bypass_veh / bypass_tt_h) * config.bypass_length * dt_h

        if keep_history:
            for name, value in zip(_HISTORY, (production / total_lane_km, speed, queue, demand,
                                              pz_rate, arrivals, entered, exited, k)):
                history[name][s] = value
        k_steps[s] = K   # after the last read of this step's demand
        gamma_steps[s] = gamma

    # interval means per lane; Delta is elementwise in (gamma, K), so it is
    # computed here, and each lane's steps are summed as one contiguous row
    interval_density = np.empty((B, m))
    interval_deviation = np.empty((B, m))
    for h in range(m):
        in_h = step_interval == h
        k_h = np.ascontiguousarray(k_steps[in_h].T)
        gamma_h = np.ascontiguousarray(gamma_steps[in_h].T)
        interval_density[:, h] = np.mean(k_h, axis=-1)
        interval_deviation[:, h] = np.mean(
            deviation_from_spread(gamma_h, k_h, config.envelope), axis=-1)

    pz_att = np.divide(60.0 * veh_h_pz, veh_km_pz, out=np.zeros(B), where=veh_km_pz > 0)
    net_hours = veh_h_pz + veh_h_queue + veh_h_byp
    net_km = veh_km_pz + veh_km_byp
    net_att = np.divide(60.0 * net_hours, net_km, out=np.zeros(B), where=net_km > 0)

    batch = BatchResult(
        network_density=k_steps.T, gamma=gamma_steps.T,
        interval_density=interval_density, interval_deviation=interval_deviation,
        pz_avg_travel_time=pz_att, net_avg_travel_time=net_att, toll_revenue=revenue,
    )
    return batch, history if keep_history else None


# ---------------------------------------------------------------------------
# frozen scenario presets

def _base_preset(interval_minutes: float, envelope: tuple[float, float, float]) -> NetworkConfig:
    return NetworkConfig(
        cell_lengths=np.full(8, 0.625),
        cell_lanes=np.array([3, 3, 2, 2, 2, 2, 2, 2], dtype=float),
        free_flow_speed=np.full(8, 50.0),
        critical_density=np.full(8, 35.0),
        jam_density=np.full(8, 120.0),
        heterogeneity_bias=np.array([0.18, 0.16, 0.135, 0.125, 0.11, 0.105, 0.10, 0.085]),
        drain_multipliers=np.array([0.50, 0.60, 0.72, 0.85, 1.00, 0.94, 0.80, 0.65]),
        rebalancing=0.3,
        pz_path_length=8.0,
        bypass_length=12.0,
        bypass_free_speed=45.0,
        bypass_capacity=6000.0,
        vtt=15.0,
        logit_scale=0.12,
        perception_tau_minutes=25.0,
        k_cr=25.0,
        envelope=envelope,
        demand_knots=[(0.0, 900.0), (1.0, 3600.0), (2.0, 4400.0), (3.8, 6000.0),
                      (3.88, 600.0), (4.0, 600.0)],
        demand_cv=0.05,
        crawl_speed=12.0,
        step_seconds=10.0,
        horizon_hours=4.0,
        tolling_window=(2.0, 4.0),
        interval_minutes=interval_minutes,
    )


# lower-envelope coefficients fitted once from ten seeded zero-toll runs of
# the shared physics (seeds 0..9) and frozen here; the zero-toll trajectory
# does not depend on the tolling-interval count, so both presets share them.
# Regenerate with:  tollopt envelope desk --runs 10
_FROZEN_ENVELOPE = (6.664997528019954e-05, 0.002952940548408166, -0.026994535511702954)


def paper_preset() -> NetworkConfig:
    """Eight 15-minute tolling intervals over the final two hours (m = 8)."""
    return _base_preset(15.0, _FROZEN_ENVELOPE)


def desk_preset() -> NetworkConfig:
    """Four 30-minute tolling intervals (m = 4); the fast test scenario."""
    return _base_preset(30.0, _FROZEN_ENVELOPE)


PRESETS = {"paper": paper_preset, "desk": desk_preset}
