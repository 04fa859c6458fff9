"""Car-following behavior: equilibrium spacing and a braking shockwave.

A 20-vehicle platoon cruises at its equilibrium gap; the leader brakes
hard for four seconds and the disturbance ripples back through the
platoon while everyone stays collision-free.
"""
import numpy as np

from rampmerge.idm import IdmParams, equilibrium_gap, idm_accel

params = IdmParams()
length = 5.0
dt = 0.1

print("equilibrium net gap by speed:")
for v in (10.0, 20.0, 30.0):
    print(f"  v = {v:4.1f} m/s -> {equilibrium_gap(v, params):6.2f} m")

n = 20
v_cruise = 30.0
spacing = equilibrium_gap(v_cruise, params) + length
pos = -spacing * np.arange(n)
v = np.full(n, v_cruise)

min_gap = np.inf
for k in range(int(60.0 / dt)):
    t = k * dt
    acc = np.empty(n)
    acc[0] = -6.0 if 5.0 <= t < 9.0 else idm_accel(v[0], 1e6, 0.0, params)
    gaps = pos[:-1] - pos[1:] - length
    acc[1:] = idm_accel(v[1:], gaps, v[1:] - v[:-1], params)
    acc = np.clip(acc, -6.0, params.a)
    v_next = np.clip(v + acc * dt, 0.0, None)
    pos = pos + 0.5 * (v + v_next) * dt
    v = v_next
    min_gap = min(min_gap, float(gaps.min()))
    if k % 100 == 99:
        print(f"t={t + dt:5.1f}  leader v={v[0]:5.2f}  mid v={v[n // 2]:5.2f}"
              f"  tail v={v[-1]:5.2f}  min net gap={gaps.min():6.2f} m")

print(f"\nsmallest net gap over the whole episode: {min_gap:.2f} m "
      f"({'no collisions' if min_gap > 0 else 'collision!'})")
