"""Intelligent Driver Model dynamics for legacy (uncontrolled) vehicles.

Car-following only: the parameter set, the acceleration law and its
equilibrium gap.  The merge coordinator paces ramp leaders itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import Checked, param


@dataclass(frozen=True)
class IdmParams(Checked):
    """Canonical IDM parameter set; the defaults are the mainline driver.

    ``v0`` desired speed (m/s), ``T`` desired time headway (s), ``a``
    maximum comfortable acceleration, ``b`` comfortable deceleration,
    ``s0`` standstill gap (m), ``delta`` free-flow exponent.
    """

    # a 1.5 s headway puts lane capacity near 1830 veh/h, the basis the
    # suggested inflow works against; keep the accel gentle, aggressive
    # mainline braking-and-sprinting throws waves the coordinated
    # strings cannot absorb
    v0: float = param("speed", 32.99, "> 0")
    T: float = param("time", 1.5, ">= 0")
    a: float = param("accel", 1.4, "> 0")
    b: float = param("accel", 2.0, "> 0")
    s0: float = param("length", 2.0, ">= 0")
    delta: float = param("plain", 4.0, "> 0")


def idm_table(*sets: IdmParams) -> np.ndarray:
    """Parameter sets as the columns of one table for :func:`idm_accel`.

    Its rows are ``v0``, ``T``, ``a``, ``b``, ``s0``, ``delta`` and
    ``2 sqrt(a b)``; ``table.take(k, axis=1)`` gives each vehicle the set
    its entry of ``k`` names.
    """
    return np.array([[p.v0, p.T, p.a, p.b, p.s0, p.delta, 2.0 * math.sqrt(p.a * p.b)]
                     for p in sets]).T.copy()


def idm_accel(speed, gap, closing_speed, params):
    """IDM acceleration; accepts scalars or aligned arrays.

    ``gap`` is the net (bumper-to-bumper) distance to the leader, with
    ``math.inf`` meaning free flow.  ``closing_speed`` is own speed minus
    leader speed.  The desired gap is floored at ``s0`` so a leader
    pulling away never produces a negative spacing target.  ``params`` is
    one :class:`IdmParams`, or, with arrays, per-vehicle columns of an
    :func:`idm_table`; each vehicle's result is the same either way,
    except for a ``delta`` of 2 or 0.5, whose power NumPy takes by a
    shortcut (square, square root) for a scalar exponent only.
    Scalars are computed with Python floats, in the same operations and
    order as NumPy's scalar arithmetic, which they equal bit for bit.
    """
    if np.isscalar(speed) and np.isscalar(gap) and np.isscalar(closing_speed):
        root_ab = 2.0 * math.sqrt(params.a * params.b)
        v, s, dv = float(speed), float(gap), float(closing_speed)
        if s <= 0.0:
            raise ValueError("IDM needs a positive gap; overlap means a collision")
        s_star = params.s0 + max(v * params.T + v * dv / root_ab, 0.0)
        return params.a * (1.0 - (v / params.v0) ** params.delta - (s_star / s) ** 2)
    if isinstance(params, IdmParams):
        params = idm_table(params)[:, 0]
    v0, T, a, _, s0, delta, root_ab = params
    v = np.asarray(speed, dtype=float)
    s = np.asarray(gap, dtype=float)
    dv = np.asarray(closing_speed, dtype=float)
    if (s <= 0.0).any():
        raise ValueError("IDM needs a positive gap; overlap means a collision")
    s_star = s0 + np.maximum(v * T + v * dv / root_ab, 0.0)
    return a * (1.0 - (v / v0) ** delta - (s_star / s) ** 2)


def equilibrium_gap(speed: float, params: IdmParams) -> float:
    """Steady-state net gap at constant ``speed`` (0 <= speed < v0)."""
    if not 0.0 <= speed < params.v0:
        raise ValueError(f"equilibrium defined for 0 <= v < v0, got v={speed}")
    return (params.s0 + speed * params.T) / math.sqrt(
        1.0 - (speed / params.v0) ** params.delta
    )
