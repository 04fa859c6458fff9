"""Intelligent Driver Model dynamics for legacy (uncontrolled) vehicles.

Also hosts the ramp-leader pacing controller and the arrival-time
predictor the merge coordinator uses to meter how fast ramp leaders may
reach the decision line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import Checked, param
from .vehicles import ControlLimits, VehicleState


@dataclass(frozen=True)
class IdmParams(Checked):
    """Canonical IDM parameter set.

    ``v0`` desired speed (m/s), ``T`` desired time headway (s), ``a``
    maximum comfortable acceleration, ``b`` comfortable deceleration,
    ``s0`` standstill gap (m), ``delta`` free-flow exponent.
    """

    v0: float = param("speed", bounds="> 0")
    T: float = param("time", 1.5)
    a: float = param("accel", 1.4, "> 0")
    b: float = param("accel", 2.0, "> 0")
    s0: float = param("length", 2.0)
    delta: float = param("plain", 4.0, "> 0")


def idm_accel(speed, gap, closing_speed, params: IdmParams):
    """IDM acceleration; accepts scalars or aligned arrays.

    ``gap`` is the net (bumper-to-bumper) distance to the leader, with
    ``math.inf`` meaning free flow.  ``closing_speed`` is own speed minus
    leader speed.  The desired gap is floored at ``s0`` so a leader
    pulling away never produces a negative spacing target.
    """
    v = np.asarray(speed, dtype=float)
    s = np.asarray(gap, dtype=float)
    dv = np.asarray(closing_speed, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("IDM needs a positive gap; overlap means a collision")
    dynamic = v * params.T + v * dv / (2.0 * math.sqrt(params.a * params.b))
    s_star = params.s0 + np.maximum(dynamic, 0.0)
    accel = params.a * (1.0 - (v / params.v0) ** params.delta - (s_star / s) ** 2)
    if np.isscalar(speed) and np.isscalar(gap) and np.isscalar(closing_speed):
        return float(accel)
    return accel


def equilibrium_gap(speed: float, params: IdmParams) -> float:
    """Steady-state net gap at constant ``speed`` (0 <= speed < v0)."""
    if not 0.0 <= speed < params.v0:
        raise ValueError(f"equilibrium defined for 0 <= v < v0, got v={speed}")
    return (params.s0 + speed * params.T) / math.sqrt(
        1.0 - (speed / params.v0) ** params.delta
    )


def predict_eta(
    leader: VehicleState,
    trigger_point: float,
    params: IdmParams,
    dt: float,
    predecessor: tuple[float, float] | None = None,
    max_time: float = 300.0,
    vehicle_length: float = 5.0,
) -> float:
    """Predicted time for ``leader`` to reach ``trigger_point`` under IDM.

    Forward-Euler at the simulation step with the same speed floor the
    simulation uses.  ``predecessor`` is the vehicle ahead as
    ``(position, speed)``, extrapolated at constant speed.  Returns 0.0
    if already at or past the line and ``math.inf`` if the line is not
    reached within ``max_time``.
    """
    p = leader.position
    v = leader.speed
    if p >= trigger_point:
        return 0.0
    steps = int(round(max_time / dt))
    for k in range(steps):
        if predecessor is None:
            gap, dv = math.inf, 0.0
        else:
            pred_pos, pred_speed = predecessor
            gap = pred_pos + k * dt * pred_speed - p - vehicle_length
            dv = v - pred_speed
            if gap <= 0.0:
                gap = 0.1  # overlapped prediction input; brake hard
        a = idm_accel(v, gap, dv, params)
        v_new = max(0.0, v + a * dt)
        p = p + 0.5 * (v + v_new) * dt
        v = v_new
        if p >= trigger_point:
            return (k + 1) * dt
    return math.inf


def regulate_leader(
    leader: VehicleState,
    idm_accel_now: float,
    distance_to_trigger: float,
    target_time_remaining: float,
    predicted_eta: float,
    k_p: float,
    limits: ControlLimits,
) -> tuple[float, bool]:
    """One-sided pacing of a ramp leader toward its scheduled arrival.

    Returns ``(accel, regulating)``.  A leader on time or late keeps its
    IDM acceleration; an early one is slowed by proportional feedback on
    the speed that would arrive exactly on schedule.  The command never
    exceeds what IDM toward the vehicle ahead allows, and the feedback
    part is clipped to the actuation limits (IDM safety braking is not).
    """
    if target_time_remaining <= 0.0 or predicted_eta >= target_time_remaining:
        return idm_accel_now, False
    v_target = max(0.0, distance_to_trigger) / target_time_remaining
    command = k_p * (v_target - leader.speed)
    command = min(max(command, limits.acc_min), limits.acc_max)
    return min(command, idm_accel_now), True
