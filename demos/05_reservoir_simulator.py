"""The synthetic pricing-zone simulator: what a toll does to the network.

The zone is a handful of fundamental-diagram cells fed by a peaked demand
profile; traffic splits between the tolled through-zone path and an untolled
bypass by a logit on smoothed generalized costs.  Zero toll lets the zone
saturate; a prohibitive toll empties it.  Heterogeneous cell draining makes
the spread of density higher while the network unloads than while it loads -
the clockwise hysteresis loop.
"""

import numpy as np

from tollopt import TollVector, desk_preset, simulate

config = desk_preset()
m = config.m
print(f"scenario: {config.n_cells} cells, tolling window {config.tolling_window} h, "
      f"{m} intervals of {config.interval_minutes:.0f} min, target density "
      f"{config.k_cr} vpkmpl")

# each run is a one-lane result: row 0 of every array, per-step series in history
zero = simulate(config, TollVector.zero(m), seed=42)
high = simulate(config, TollVector.constant(m, 1.0, 15.0), seed=42)

print(f"\n{'interval':>8} {'K zero-toll':>12} {'K max-toll':>11} "
      f"{'Delta zero':>11} {'Delta max':>10}")
for h in range(m):
    print(f"{h + 1:>8} {zero.interval_density[0, h]:>12.1f} {high.interval_density[0, h]:>11.1f} "
          f"{zero.interval_deviation[0, h]:>11.2f} {high.interval_deviation[0, h]:>10.2f}")

density, gamma = zero.network_density[0], zero.gamma[0]
hours = np.arange(density.size) * config.step_seconds / 3600.0   # step start times
window = hours >= config.tolling_window[0]
share_zero = zero.history["pz_demand"][0, window].sum() / zero.history["demand"][0, window].sum()
share_high = high.history["pz_demand"][0, window].sum() / high.history["demand"][0, window].sum()
print(f"\nzone share of demand in the window: {share_zero:.1%} untolled, "
      f"{share_high:.1%} at the maximum toll")
print(f"zone travel time: {zero.pz_avg_travel_time[0]:.2f} vs "
      f"{high.pz_avg_travel_time[0]:.2f} min/km | revenue {high.toll_revenue[0]:,.0f}")

# hysteresis: compare the spread of density while loading vs unloading at
# matched network densities (unloading detected against a 5-minute trend)
ema, acc = np.empty_like(density), 0.0
for i, k in enumerate(density):
    ema[i] = acc
    acc += (config.step_seconds / 300.0) * (k - acc)
unloading = density < ema - 0.5
bins = (density // 5).astype(int)
print(f"\n{'density bin':>11} {'gamma loading':>14} {'gamma unloading':>16}")
for b in sorted(set(bins)):
    g_load = gamma[(bins == b) & ~unloading]
    g_unload = gamma[(bins == b) & unloading]
    if g_load.size >= 10 and g_unload.size >= 10:
        print(f"{b * 5:>8}-{b * 5 + 5:<3} {np.mean(g_load):>13.1f} {np.mean(g_unload):>16.1f}")
print("(the unloading branch sits above the loading branch: a clockwise loop)")
