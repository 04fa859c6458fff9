"""Instantaneous fuel consumption model and trajectory integration.

The rate model is a cubic polynomial in speed plus an acceleration term
whose weight is itself quadratic in speed:

    f(v, a) = b0 + b1 v + b2 v^2 + b3 v^3 + a (c0 + c1 v + c2 v^2)

with f in mL/s, v in m/s and a in m/s^2.  Negative raw rates (hard
braking, fuel cut) clamp to zero.  The model is only defined for v >= 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import Checked, param

METERS_PER_MILE = 1609.344
ML_PER_GALLON = 3785.411784


@dataclass(frozen=True)
class FuelCoefficients(Checked):
    b0: float = param("plain", 0.1569)
    b1: float = param("plain", 2.450e-2)
    b2: float = param("plain", -7.415e-4)
    b3: float = param("plain", 5.975e-5)
    c0: float = param("plain", 0.07224)
    c1: float = param("plain", 9.681e-2)
    c2: float = param("plain", 1.075e-3)


DEFAULT_COEFFICIENTS = FuelCoefficients()


def fuel_rate(speed, accel, coeffs: FuelCoefficients = DEFAULT_COEFFICIENTS):
    """Instantaneous consumption in mL/s; accepts scalars or arrays.

    Raises ``ValueError`` if any speed is negative.
    """
    v = np.asarray(speed, dtype=float)
    a = np.asarray(accel, dtype=float)
    if np.any(v < 0.0):
        raise ValueError("fuel model undefined for negative speeds")
    cruise = coeffs.b0 + v * (coeffs.b1 + v * (coeffs.b2 + v * coeffs.b3))
    accel_weight = coeffs.c0 + v * (coeffs.c1 + v * coeffs.c2)
    rate = np.maximum(cruise + a * accel_weight, 0.0)
    if np.isscalar(speed) and np.isscalar(accel):
        return float(rate)
    return rate


def trajectory_fuel(speeds, accels, dt: float,
                    coeffs: FuelCoefficients = DEFAULT_COEFFICIENTS) -> float:
    """Left-Riemann integral of the rate over a sampled trajectory (mL).

    ``speeds`` and ``accels`` are sampled at the same instants; each
    sample's rate is held for one ``dt``.  Empty trajectories cost zero.
    """
    v = np.asarray(speeds, dtype=float)
    a = np.asarray(accels, dtype=float)
    if v.shape != a.shape:
        raise ValueError(f"speeds {v.shape} and accels {a.shape} must align")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if v.size == 0:
        return 0.0
    return float(np.sum(fuel_rate(v, a, coeffs)) * dt)


def economy_mpg(distance_m: float, fuel_ml: float) -> float:
    """Fuel economy in miles per gallon.

    Zero distance reports 0 mpg; positive distance on zero fuel reports
    ``math.inf`` as the free-ride sentinel.
    """
    if distance_m < 0.0 or fuel_ml < 0.0:
        raise ValueError("distance and fuel must be non-negative")
    if distance_m == 0.0:
        return 0.0
    if fuel_ml == 0.0:
        return math.inf
    return (distance_m / METERS_PER_MILE) / (fuel_ml / ML_PER_GALLON)
