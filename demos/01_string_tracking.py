"""Drive a three-vehicle string onto its reference with the LQ tracker.

Shows the pieces in isolation: build the integrator-chain model, expand
scalar weights, solve one finite-horizon pass, then fly the converged
law's clipped closed loop and watch gaps and speeds settle.
"""
import numpy as np

from rampmerge.sequencing import ScoringContext
from rampmerge.statespace import build_model
from rampmerge.tracking import build_reference, converged_law, solve_finite_horizon_batch
from rampmerge.vehicles import ControlLimits, Lane

n = 3
dt = 0.1
model = build_model(n, dt)
lanes = (Lane.MAINLINE, Lane.RAMP, Lane.MAINLINE)
weights = ScoringContext(control_weight=2.0).weights(lanes)

# desired: 36 m net gaps at 30 m/s, i.e. position differences of 41 m
r_vec = build_reference(
    floors=np.array([20.0, 20.0]),
    desired_speed=30.0,
    desired_time_headway=1.2,
    vehicle_length=5.0,
)

[solution] = solve_finite_horizon_batch(model, [weights], np.tile(r_vec, (1, 301, 1)))
print(f"finite horizon N=300: feedback gain K_0 shape {solution.K[0].shape}")

law = converged_law(model, weights, r_vec)
print(f"converged gains within {np.max(np.abs(law.K - solution.K[0])):.2e} of K_0")

# start bunched and slow relative to the reference, and fly the clipped
# closed loop a live string flies
x = np.array([0.0, -28.0, -60.0, 24.0, 26.0, 22.0])
traj = law.forecast(x, 1200, ControlLimits())
print("\n   t |    gap1    gap2 |      v1      v2      v3")
for k in range(200, 1201, 200):
    y = model.C @ traj.x[k]
    print(f"{k * dt:4.0f} | {y[0]:7.2f} {y[1]:7.2f} |"
          f" {y[2]:7.2f} {y[3]:7.2f} {y[4]:7.2f}")

y = model.C @ traj.x[-1]
print(f"\nreference was gaps {r_vec[:2]} speeds {r_vec[2:]}")
print(f"settled to     gaps {np.round(y[:2], 3)} speeds {np.round(y[2:], 3)}")
