"""Pick the cheapest merge order for a mixed mainline/ramp group.

Enumerates every order-preserving interleaving, scores each one by the
fuel its predicted string trajectory burns, and prints the ranking.
"""
import numpy as np

from rampmerge.sequencing import (
    ScoringContext,
    count_sequences,
    enumerate_sequences,
    optimal_sequence,
    score_sequences,
)
from rampmerge.vehicles import Lane, gap_floors

ctx = ScoringContext(horizon=150, control_weight=2.0)

mainline = [1, 2]
ramp = [7, 8]
# one row per member, mainline ids then ramp ids: the decision cycle's
# start state (positions, then speeds) and each member's gap floor from
# the speed recorded at buffer entry
positions = np.array([-30.0, -95.0, -60.0, -130.0])
speeds = np.array([31.0, 30.5, 16.0, 15.0])
x0 = np.concatenate((positions, speeds))
floors = gap_floors(speeds, speeds, ctx.limits)

total = count_sequences(len(mainline), len(ramp))
print(f"{total} admissible interleavings of {len(mainline)} mainline "
      f"and {len(ramp)} ramp vehicles\n")

scores = score_sequences(enumerate_sequences(mainline, ramp, ctx.cap), x0, floors, ctx)
for s in sorted(scores, key=lambda s: s.total_fuel):
    order = " ".join(
        f"{'M' if lane is Lane.MAINLINE else 'R'}{vid}"
        for vid, lane in zip(s.sequence.ids, s.sequence.lanes))
    flag = "  (degraded)" if s.result.degraded else ""
    print(f"  {order:20s} {s.total_fuel:8.3f} mL{flag}")

best = optimal_sequence(mainline, ramp, x0, floors, ctx)
print(f"\noptimal_sequence picks {best.sequence.ids} "
      f"at {best.total_fuel:.3f} mL")
