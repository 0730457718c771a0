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

import contextlib
import math
import re
from contextvars import ContextVar
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .toll import TollVector


class ConfigError(ValueError):
    """Malformed or inconsistent network configuration; message names the key."""


def keyed_error(exc: ValueError, keys: dict) -> ConfigError:
    """``exc`` as a ConfigError whose message names file keys: every word of it
    that is a field name in ``keys`` becomes that field's key.  The validators
    start each message with the field they reject."""
    return ConfigError(re.sub(r"\w+", lambda w: keys.get(w.group(), w.group()), str(exc)))


# ---------------------------------------------------------------------------
# configuration

_CELLS = None   # the form of a per-cell array: one value per cell, or one for every cell


def _file(section: str, key: str, form=((), "one number")):
    """A field's scenario-file key, ``network.<section>.<key>``, and its form:
    ``(shape, description)`` with -1 for any length, or ``_CELLS``."""
    return field(metadata={"key": (section, key), "form": form})


@dataclass(frozen=True, eq=False)
class NetworkConfig:
    """Everything that defines one synthetic network scenario.

    Cell fundamental diagrams are triangular (free-flow branch up to the
    critical density, congested branch down to jam).  ``heterogeneity_bias``
    fixes how entering traffic spreads over cells while loading;
    ``drain_multipliers`` scale each cell's discharge while the network is
    unloading, which is what opens the hysteresis loop.

    A config is immutable, so it is validated once, on construction, and a
    cache can key on the object, which compares and hashes by identity (values
    compare through :func:`config_to_dict`): the cell arrays are read-only
    copies (one value is broadcast to every cell) and the demand knots a tuple.
    Each field is declared with its scenario-file key, in the file's order.
    """

    cell_lengths: np.ndarray = _file("cells", "lengths_km", _CELLS)
    cell_lanes: np.ndarray = _file("cells", "lanes", _CELLS)
    free_flow_speed: np.ndarray = _file("cells", "free_flow_speed_kmh", _CELLS)
    critical_density: np.ndarray = _file("cells", "critical_density_vpkmpl", _CELLS)
    jam_density: np.ndarray = _file("cells", "jam_density_vpkmpl", _CELLS)
    heterogeneity_bias: np.ndarray = _file("cells", "inflow_shares", _CELLS)   # sums to 1
    drain_multipliers: np.ndarray = _file("cells", "drain_multipliers", _CELLS)   # in (0, 1]
    crawl_speed: float = _file("cells", "crawl_speed_kmh")   # floor on congested movement
    rebalancing: float = _file("cells", "rebalancing")   # 0..1, inflow weight steered to spare capacity
    pz_path_length: float = _file("paths", "pz_path_length_km")   # representative through-zone trip
    bypass_length: float = _file("paths", "bypass_length_km")
    bypass_free_speed: float = _file("paths", "bypass_free_speed_kmh")
    bypass_capacity: float = _file("paths", "bypass_capacity_vph")
    vtt: float = _file("choice", "vtt_per_hour")
    logit_scale: float = _file("choice", "logit_scale_per_min")   # of generalized cost
    # smoothing of the travel time drivers react to
    perception_tau_minutes: float = _file("choice", "perception_tau_minutes")
    k_cr: float = _file("control", "k_cr_vpkmpl")   # control target
    envelope: tuple[float, float, float] = _file("control", "envelope_abc", ((3,), "[a, b, c]"))
    tolling_window: tuple[float, float] = _file("control", "tolling_window_hours", ((2,), "[start, end]"))
    interval_minutes: float = _file("control", "interval_minutes")
    demand_knots: tuple[tuple[float, float], ...] = _file(   # piecewise linear
        "demand", "knots_hour_vph", ((-1, 2), "[[hour, veh/h], ...]"))
    demand_cv: float = _file("demand", "noise_cv")   # replication noise coefficient of variation
    step_seconds: float = _file("simulation", "step_seconds")
    horizon_hours: float = _file("simulation", "horizon_hours")

    def __post_init__(self):
        c = np.size(self.cell_lengths)
        for name in _CELL_ARRAYS:
            arr = np.atleast_1d(np.array(getattr(self, name), dtype=float))
            if arr.size == 1 and c > 1:
                arr = np.full(c, arr[0])
            elif arr.size != c:
                raise ConfigError(f"{name}: expected {c} values, got {arr.size} "
                                  f"(one per entry of cell_lengths)")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "demand_knots", tuple(tuple(k) for k in self.demand_knots))
        self.validate()

    @property
    def n_cells(self) -> int:
        return self.cell_lengths.size

    @property
    def m(self) -> int:
        """Number of tolling intervals."""
        start, end = self.tolling_window
        return int(round((end - start) * 60.0 / self.interval_minutes))

    def validate(self) -> None:
        for name in _CELL_ARRAYS[:5]:   # lengths, lanes, free-flow speeds and both densities
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
            raise ConfigError("k_cr: must be positive and below every jam_density")
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


# (section, key) -> field name, and the per-cell arrays, both in file order
_SCHEMA = {f.metadata["key"]: f.name for f in fields(NetworkConfig)}
_CELL_ARRAYS = tuple(f.name for f in fields(NetworkConfig) if f.metadata["form"] is _CELLS)


def _file_value(form, value):
    """A scenario-file value as a field of ``form`` takes it; a TypeError or
    ValueError says why it is not finite numbers of that form."""
    arr = np.array(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"need finite numbers, got {value!r}")
    if form is _CELLS:
        if arr.ndim > 1:
            raise ValueError(f"need one number or a list of numbers, got {value!r}")
        return arr
    shape, text = form
    if arr.ndim != len(shape) or any(s not in (-1, n) for s, n in zip(shape, arr.shape)):
        raise ValueError(f"need {text}, got {value!r}")
    return tuple(arr.tolist()) if shape else float(arr)


def config_from_dict(doc: dict) -> NetworkConfig:
    if not isinstance(doc, dict) or not isinstance(doc.get("network"), dict):
        present = isinstance(doc, dict) and "network" in doc
        raise ConfigError(f"network: {'must be a mapping' if present else 'missing section'}")
    net = doc["network"]
    kwargs = {}
    for f in fields(NetworkConfig):
        section, key = f.metadata["key"]
        if not isinstance(net.get(section), dict):
            raise ConfigError(f"network.{section}: "
                              + ("must be a mapping" if section in net else "missing section"))
        if key not in net[section]:
            raise ConfigError(f"network.{section}.{key}: missing key")
        try:
            kwargs[f.name] = _file_value(f.metadata["form"], net[section][key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"network.{section}.{key}: {exc}") from exc
    known = {s for s, _ in _SCHEMA}
    for section in net:
        if section not in known:
            raise ConfigError(f"network.{section}: unknown section")
        for key in net[section]:
            if (section, key) not in _SCHEMA:
                raise ConfigError(f"network.{section}.{key}: unknown key")
    try:
        return NetworkConfig(**kwargs)
    except ValueError as exc:
        # NetworkConfig also names any other field a message involves
        keys = {name: f"network.{section}.{key}" for (section, key), name in _SCHEMA.items()}
        raise keyed_error(exc, keys) from exc


def config_to_dict(config: NetworkConfig) -> dict:
    net: dict = {}
    for (section, key), name in _SCHEMA.items():
        net.setdefault(section, {})[key] = np.asarray(getattr(config, name), float).tolist()
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

def zone_choice(toll_rates, zone_time, free_time: float, bypass_time, config: NetworkConfig):
    """Binary logit share of the through-zone route and its trip toll.

    The joint distance and delay toll of one through-zone trip is
    ``v * pz_path_length + w * delay_hours``, where the delay term vanishes
    whenever the zone runs at free flow.  Converted by the value of travel
    time, it adds to the zone travel time to give the through-zone cost in
    time-equivalent minutes; the bypass carries no toll.  Times are in
    minutes; rates and times may be arrays holding one value per lane.
    Returns ``(p_pz, trip_toll)``.
    """
    u, trip_toll = _zone_utility(toll_rates, zone_time, free_time, bypass_time, config)
    with np.errstate(over="ignore"):
        return _logistic(np.reshape(u, -1)).reshape(np.shape(u))[()], trip_toll


def _zone_utility(toll_rates, zone_time, free_time, bypass_time, config: NetworkConfig):
    """``logit_scale * (through-zone cost - bypass_time)``, the argument of
    :func:`_logistic` that gives the zone's share, and the trip toll."""
    v_h, w_h = toll_rates
    delay_hours = np.maximum(0.0, zone_time - free_time) / 60.0
    trip_toll = v_h * config.pz_path_length + w_h * delay_hours
    cost_pz = zone_time + 60.0 * trip_toll / config.vtt
    return config.logit_scale * (cost_pz - bypass_time), trip_toll


def _logistic(u: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(u))`` over a 1-d array, bit for bit ``scipy.special.expit(-u)``.

    numpy's float64 exp runs a SIMD kernel on forward-strided input, which
    differs from the C library's ``exp`` in the last bit on some arguments;
    on a reversed view it runs its scalar loop, which calls the C library's
    ``exp``, as expit does.  An ``exp`` that overflows gives 0, as expit does,
    and warns unless the caller ignores overflow.
    """
    return 1.0 / (1.0 + np.exp(u[::-1])[::-1])


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


def _triangular_flow(k, gap, u_f, wave, crawl):
    """Per-lane triangular fundamental diagram flow (veh/h/lane).

    ``gap`` is k_j - k and ``wave`` the congested-branch wave speed u_f k_c /
    (k_j - k_c).  The ``crawl`` speed floors the congested branch so a jammed
    cell keeps a trickle of movement and gridlock never becomes absorbing.
    """
    tri = np.maximum(np.minimum(u_f * k, wave * gap), 0.0)
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
_HISTORY = ("flow", "speed", "queue", "pz_demand", "arrivals", "exited", "k_cells")
# what the step body carries from one step to the next, one value (or cell
# row) per lane; every other lane array is a (lanes, T, ...) per-step series:
# demand, K, gamma and, for simulate, the history
_TOTALS = ("veh_h_pz", "veh_km_pz", "veh_h_queue", "veh_h_byp", "veh_km_byp")
_STATE = ("veh", "gate_queue", "bypass_veh", "bypass_inflow", "k_ema", "perceived_tt",
          *_TOTALS, "revenue")

# the current optimization run's untolled prefixes: (config, {seed: {name: row}})
_RUN_PREFIXES: ContextVar[tuple[NetworkConfig, dict] | None] = ContextVar(
    "run_prefixes", default=None)


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


def _free_flow(config: NetworkConfig) -> tuple[np.ndarray, float, float, float]:
    """Cell lane-km, their total, the lane-km-weighted free-flow speed and the
    through-zone trip time (min) at that speed."""
    lane_km = _cell_weights(config.cell_lengths, config.cell_lanes)
    total_lane_km = float(np.sum(lane_km))
    mean_free_speed = float(np.sum(config.free_flow_speed * lane_km) / total_lane_km)
    return lane_km, total_lane_km, mean_free_speed, 60.0 * config.pz_path_length / mean_free_speed


@contextlib.contextmanager
def shared_prefixes(config: NetworkConfig):
    """Simulate each seed's untolled prefix once for the whole block.

    Inside the block, :func:`simulate_batch` calls under this same ``config``
    object keep the state each seed reaches at the first tolled step and
    reuse it; the prefixes are dropped when the block ends.
    :func:`tlp.optimize` runs inside one, so a run's common-random-number
    seeds are simulated up to the tolling window once per run.
    """
    token = _RUN_PREFIXES.set((config, {}))
    try:
        yield
    finally:
        _RUN_PREFIXES.reset(token)


def simulate(config: NetworkConfig, toll: TollVector, seed: int) -> SimulationResult:
    """Run one seeded replication of the reservoir model under a toll pattern.

    The step loop of :func:`simulate_batch` with one lane, keeping every
    per-step series; it always simulates its own untolled prefix.
    """
    batch, history = _run(config, toll.as_array()[None], [seed], keep_history=True)
    k, gamma = batch.network_density[0], batch.gamma[0]
    return SimulationResult(
        t=_step_intervals(config)[0] * 3600.0, network_density=k, gamma=gamma,
        deviation=deviation_from_spread(gamma, k, config.envelope),
        **{name: history[name][0] for name in (*_HISTORY, "demand")},
        interval_density=batch.interval_density[0],
        interval_deviation=batch.interval_deviation[0],
        pz_avg_travel_time=float(batch.pz_avg_travel_time[0]),
        net_avg_travel_time=float(batch.net_avg_travel_time[0]),
        toll_revenue=float(batch.toll_revenue[0]), seed=int(seed),
    )


def simulate_batch(config: NetworkConfig, tolls: np.ndarray,
                   seeds: Sequence[int]) -> BatchResult:
    """Run independent seeded replications in one step loop over a lane axis.

    ``tolls`` is a ``(B, 2m)`` stack of toll rows, distance rates first;
    lane ``b`` is bit-for-bit ``simulate`` of row ``b`` under ``seeds[b]``.
    Replications of one point, or several points, share every step's numpy
    calls.  The steps before the tolling window do not depend on the toll,
    so they run once per distinct seed and the lanes start from their
    seed's state at the first tolled step; inside :func:`shared_prefixes`
    that state is reused across calls.
    """
    return _run(config, tolls, seeds, keep_history=False)[0]


def _run(config: NetworkConfig, tolls: np.ndarray, seeds: Sequence[int],
         keep_history: bool) -> tuple[BatchResult, dict | None]:
    """The step loop over B lanes of (toll, seed), split at the first tolled step.

    The untolled prefix runs over the distinct seeds only
    (:func:`_untolled_prefix`), or is taken from the run's
    :func:`shared_prefixes`; row ``b`` of every lane array (the carried
    state and the per-step series) then starts as its seed's prefix.  The
    tolled steps, through the end of the horizon, run over all B lanes.
    ``keep_history`` also returns every lane array, the history series
    included; such calls never share prefixes.
    """
    m = config.m
    tolls = np.asarray(tolls, dtype=float)
    if tolls.ndim != 2 or tolls.shape[1] != 2 * m or not len(tolls):
        raise ValueError(f"tolls must be (B > 0, {2 * m}) rows for {m} intervals, not {tolls.shape}")
    if len(tolls) != len(seeds):
        raise ValueError(f"got {len(tolls)} tolls for {len(seeds)} seeds")
    B = len(tolls)
    step_interval = _step_intervals(config)[1]
    n_prefix = int(np.argmax(step_interval >= 0))

    scope = _RUN_PREFIXES.get()
    prefixes = scope[1] if scope is not None and scope[0] is config and not keep_history else {}
    missing = list(dict.fromkeys(seed for seed in seeds if seed not in prefixes))
    if missing:
        fresh = _untolled_prefix(config, missing, n_prefix, keep_history)
        for u, seed in enumerate(missing):
            prefixes[seed] = {name: lane[u] for name, lane in fresh.items()}
    lanes = {name: np.stack([prefixes[seed][name] for seed in seeds])
             for name in prefixes[seeds[0]]}

    # row -1, a step outside the window, is the untolled rate
    rate_v, rate_w = np.zeros((2, m + 1, B))
    rate_v[:m] = tolls[:, :m].T
    rate_w[:m] = tolls[:, m:].T
    _advance(config, lanes, range(n_prefix, step_interval.size), rate_v, rate_w)
    k_steps, gamma_steps = lanes["k"], lanes["gamma"]

    # interval means per lane; Delta is elementwise in (gamma, K), so it is computed
    # here, and each lane's steps are summed as one contiguous row
    interval_density = np.empty((B, m))
    interval_deviation = np.empty((B, m))
    for h in range(m):
        in_h = step_interval == h
        k_h = np.ascontiguousarray(k_steps[:, in_h])
        gamma_h = np.ascontiguousarray(gamma_steps[:, in_h])
        interval_density[:, h] = np.mean(k_h, axis=-1)
        interval_deviation[:, h] = np.mean(
            deviation_from_spread(gamma_h, k_h, config.envelope), axis=-1)

    veh_h_pz, veh_km_pz = lanes["veh_h_pz"], lanes["veh_km_pz"]
    pz_att = np.divide(60.0 * veh_h_pz, veh_km_pz, out=np.zeros(B), where=veh_km_pz > 0)
    net_hours = veh_h_pz + lanes["veh_h_queue"] + lanes["veh_h_byp"]
    net_km = veh_km_pz + lanes["veh_km_byp"]
    net_att = np.divide(60.0 * net_hours, net_km, out=np.zeros(B), where=net_km > 0)

    batch = BatchResult(
        network_density=k_steps, gamma=gamma_steps,
        interval_density=interval_density, interval_deviation=interval_deviation,
        pz_avg_travel_time=pz_att, net_avg_travel_time=net_att, toll_revenue=lanes["revenue"],
    )
    return batch, lanes if keep_history else None


def _untolled_prefix(config: NetworkConfig, seeds: Sequence[int], n_prefix: int,
                     keep_history: bool) -> dict:
    """One lane per seed, run from the empty network through the ``n_prefix``
    steps before the tolling window.

    Builds each seed's demand series (the knot profile times its per-step
    lognormal, mean-one noise) and runs the step body at the untolled rate.
    Returns the lanes: the carried state, the demand series, and the other
    per-step series with their first ``n_prefix`` steps filled.
    """
    U = len(seeds)
    step_h, _ = _step_intervals(config)
    n_steps = step_h.size
    knot_h, knot_q = zip(*config.demand_knots)
    demand = np.tile(np.interp(step_h, knot_h, knot_q), (U, 1))
    log_sigma = math.sqrt(math.log(1.0 + config.demand_cv ** 2))
    if log_sigma > 0:
        for u, seed in enumerate(seeds):
            draws = np.random.default_rng(seed).normal(
                -0.5 * log_sigma ** 2, log_sigma, size=n_steps)
            # math.exp, not np.exp: the two can differ in the last bit, and
            # fixed-seed runs are pinned (tests/test_golden.py)
            demand[u] *= np.array([math.exp(z) for z in draws])

    lanes = {name: np.zeros(U) for name in _STATE}
    lanes["veh"] = np.zeros((U, config.n_cells))
    lanes["perceived_tt"] = np.full(U, _free_flow(config)[3])
    lanes.update(demand=demand, k=np.zeros((U, n_steps)), gamma=np.zeros((U, n_steps)))
    if keep_history:
        lanes.update({name: np.zeros((U, n_steps, config.n_cells) if name == "k_cells"
                                     else (U, n_steps)) for name in _HISTORY})
    untolled = np.zeros((1, U))
    _advance(config, lanes, range(n_prefix), untolled, untolled)
    return lanes


# an exp that overflows in the logit gives the share 0 (see _logistic); one
# errstate for the whole call, as one per step would cost more than the logit
@np.errstate(over="ignore")
def _advance(config: NetworkConfig, lanes: dict, steps: range,
             rate_v: np.ndarray, rate_w: np.ndarray) -> None:
    """The step body: run ``steps`` over every lane of ``lanes``, in place.

    Each step splits demand between zone and bypass with the current
    generalized costs, loads the zone cells by their inflow shares subject
    to receiving capacity (excess queues at the gate), drains each cell
    through its fundamental diagram (scaled by the drain multipliers while
    the network is unloading), and records the aggregate state.  A step's
    toll is row ``h`` of ``rate_v``/``rate_w``, its tolling interval, and
    row -1 outside the window.  The per-step series are recorded when
    ``lanes`` holds them.  A step costs its numpy calls, not their arithmetic,
    so the calls are few, but each operation is the plain formula's, in order.
    """
    dt_h = config.step_seconds / 3600.0
    lane_km, total_lane_km, mean_free_speed, pz_free_min = _free_flow(config)
    u_f, k_c, k_j = config.free_flow_speed, config.critical_density, config.jam_density
    crawl, cell_lanes, drain = config.crawl_speed, config.cell_lanes, config.drain_multipliers
    cap_flow = u_f * k_c * cell_lanes          # veh/h per cell
    wave = u_f * k_c / (k_j - k_c)
    pz_len, bypass_length = config.pz_path_length, config.bypass_length
    bypass_free_h = bypass_length / config.bypass_free_speed
    base_shares, rebalancing = config.heterogeneity_bias, config.rebalancing
    rebalanced_base = (1.0 - rebalancing) * base_shares
    tau_s = config.perception_tau_minutes * 60.0
    alpha_p = 1.0 if tau_s <= 0 else min(1.0, config.step_seconds / tau_s)
    ema_rate = config.step_seconds / 300.0
    step_interval = _step_intervals(config)[1].tolist()

    bypass_inflow, k_ema, perceived_tt, revenue = (
        lanes[name] for name in ("bypass_inflow", "k_ema", "perceived_tt", "revenue"))
    demand_steps, k_steps, gamma_steps = lanes["demand"], lanes["k"], lanes["gamma"]
    history = [lanes[name] for name in _HISTORY] if _HISTORY[0] in lanes else None
    # one multiply-add adds the step's terms to the five totals; the gate queue
    # and the bypass vehicles carry over in their rows.  One reduction sums
    # each cell pair: veh and its lane-km flow, inflow and spare supply
    n_lanes = len(revenue)
    totals, terms = np.stack([lanes[name] for name in _TOTALS]), np.empty((5, n_lanes))
    accumulation, production, queue, bypass_veh, bypass_km = terms
    queue[:], bypass_veh[:] = lanes["gate_queue"], lanes["bypass_veh"]
    (veh, flow_km), (inflow, spare) = cells, loads = np.empty((2, 2, *lanes["veh"].shape))
    veh[:] = lanes["veh"]
    k, gap, speed = veh / lane_km, np.empty_like(veh), np.empty_like(queue)

    for s in steps:
        demand, h = demand_steps[:, s], step_interval[s]
        # current performance of both routes
        np.subtract(k_j, k, out=gap)
        cell_flow = _triangular_flow(k, gap, u_f, wave, crawl)   # veh/h per lane
        np.multiply(cell_flow, lane_km, out=flow_km)
        np.add.reduce(cells, axis=-1, out=terms[:2])   # accumulation; production, veh km/h
        speed.fill(mean_free_speed)
        np.divide(production, accumulation, out=speed, where=accumulation > 1e-9)
        np.maximum(speed, 1e-3, out=speed)
        perceived_tt += alpha_p * (60.0 * pz_len / speed - perceived_tt)
        # float_power is libm pow, as Python's float ** 2 is; an array's ** 2
        # squares, which differs from pow in the last bit on some inputs
        bypass_tt_h = bypass_free_h * (
            1.0 + 0.15 * np.float_power(bypass_inflow / config.bypass_capacity, 2.0))
        u, trip_toll = _zone_utility((rate_v[h], rate_w[h]), perceived_tt, pz_free_min,
                                     bypass_tt_h * 60.0, config)
        pz_rate = _logistic(u) * demand
        bypass_rate = demand - pz_rate

        # load the zone: queued vehicles plus new arrivals, by inflow share,
        # capped by each cell's receiving capacity; overflow from saturated
        # cells diverts to cells with spare supply (densities equalize as the
        # zone approaches gridlock), anything left queues at the gate
        arrivals = pz_rate * dt_h
        avail = queue + arrivals
        jam_gap = np.maximum(gap, 0.0, out=gap)
        headroom = jam_gap * lane_km
        hr_total = np.add.reduce(headroom, axis=-1)
        shares = base_shares
        if rebalancing > 0:
            has_room = hr_total > 0
            every = np.count_nonzero(has_room) == n_lanes
            shares = rebalanced_base + rebalancing * headroom \
                / (hr_total if every else np.where(has_room, hr_total, 1.0))[:, None]
            if not every:
                shares = np.where(has_room[:, None], shares, base_shares)
        supply = np.minimum(cap_flow, wave * jam_gap * cell_lanes) * dt_h
        np.minimum(avail[:, None] * shares, supply, out=inflow)
        np.subtract(supply, inflow, out=spare)
        entered, spare_total = np.add.reduce(loads, axis=-1)
        short = avail - entered
        top_up = (short > 1e-12) & (spare_total > 1e-12)
        if np.count_nonzero(top_up):
            fill = np.minimum(short, spare_total) / np.where(top_up, spare_total, 1.0)
            np.copyto(inflow, inflow + spare * fill[:, None], where=top_up[:, None])
            entered = np.add.reduce(inflow, axis=-1)
            short = avail - entered
        np.maximum(short, 0.0, out=queue)

        # drain: per-cell completion via the fundamental diagram, slowed by
        # the drain multipliers while the network trend is falling; the
        # deadband keeps demand noise from flapping the phase flag
        unloading = (accumulation > 0) & ((accumulation / total_lane_km) < k_ema - 0.5)
        out_km = flow_km    # (1.0 * cell_flow) * lane_km
        if np.count_nonzero(unloading):
            out_km = np.where(unloading[:, None], drain * cell_flow, cell_flow) * lane_km
        veh_in = veh + inflow
        outflow = np.minimum(out_km / pz_len * dt_h, veh_in)
        np.subtract(veh_in, outflow, out=veh)

        # bypass as a first-order delay reservoir with a BPR-style travel time
        bypass_out = np.minimum(bypass_veh, bypass_veh * dt_h / bypass_tt_h)
        np.subtract(bypass_veh + bypass_rate * dt_h, bypass_out, out=bypass_veh)
        bypass_inflow = bypass_rate

        np.divide(veh, lane_km, out=k)
        gamma, K = _weighted_spread(k, lane_km, total_lane_km)
        k_ema += ema_rate * (K - k_ema)

        revenue += entered * trip_toll
        np.multiply(bypass_veh / bypass_tt_h, bypass_length, out=bypass_km)
        totals += terms * dt_h

        if history is not None:
            for series, value in zip(history, (production / total_lane_km, speed, queue, pz_rate,
                                               arrivals, np.add.reduce(outflow, axis=-1), k)):
                series[:, s] = value
        k_steps[:, s] = K
        gamma_steps[:, s] = gamma

    lanes.update(zip(_TOTALS, totals), veh=veh, gate_queue=queue, bypass_veh=bypass_veh,
                 bypass_inflow=bypass_inflow)


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
