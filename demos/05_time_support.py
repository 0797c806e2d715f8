"""Time support of the modal response: energy received over a disk of
radius R is confined to |t| <= R/c, which is what stretches the usable
observation window to T + 2R/c.

Run:  python3 demos/05_time_support.py
"""

import numpy as np

from wavedof import ChannelConfig, effective_time, time_support_check

cfg = ChannelConfig(f0=2.4e9, half_bw=0.5e9, radius=0.1, obs_time=0.0, wave_speed=3e8)
limit = cfg.radius / cfg.wave_speed

print(f"disk radius {cfg.radius} m, expected support edge R/c = {limit*1e9:.4f} ns\n")
print(f"{'order':>5} {'leakage':>10} {'edge [ns]':>10} {'edge/(R/c)':>11}")
for n in (0, 1, 4, 8):
    res = time_support_check(n, cfg.radius, cfg)
    print(f"{n:>5} {res.leakage:>10.3e} {res.edge_time*1e9:>10.4f} "
          f"{res.edge_time/limit:>11.4f}")
print("\nleakage is the energy fraction outside (1+5%) R/c; the edge is "
      "where the energy envelope falls to half its peak")

print("\ndoubling the radius doubles the support edge")
for radius in (0.1, 0.2, 0.4):
    res = time_support_check(0, radius, cfg)
    print(f"  R = {radius:.1f} m: edge {res.edge_time*1e9:.4f} ns "
          f"({res.edge_time * cfg.wave_speed / radius:.4f} R/c)")

res = time_support_check(0, cfg.radius, cfg)
inside = res.energy[np.abs(res.times) <= limit]
print(f"\nenergy profile: {res.times.size} time samples, "
      f"{inside.size} inside the support, peak {res.energy.max():.3e} "
      "(kernel in units where R/c = 1)")
print(f"observation window bonus for this disk: {(effective_time(cfg))*1e9:.4f} ns "
      "added to any T")
