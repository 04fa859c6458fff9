"""Discrete-time state-space model of an n-vehicle string.

The state stacks positions first, then speeds: ``x = (p_1..p_n, v_1..v_n)``
with vehicle 1 the downstream-most (string leader).  Inputs are the n
accelerations.  The discretization is the exact zero-order-hold map of the
double integrator, so per step

    p_i' = p_i + v_i dt + u_i dt^2 / 2
    v_i' = v_i + u_i dt

The output stacks the n-1 consecutive position differences (leader minus
follower) followed by the n speeds, giving a (2n-1)-dimensional output.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LtiModel:
    """Frozen model matrices for one vehicle string."""

    n: int
    dt: float
    A: np.ndarray  # (2n, 2n)
    B: np.ndarray  # (2n, n)
    C: np.ndarray  # (2n-1, 2n)

    @property
    def state_dim(self) -> int:
        return 2 * self.n

    @property
    def output_dim(self) -> int:
        return 2 * self.n - 1


def build_model(n: int, dt: float) -> LtiModel:
    """Exact zero-order-hold discretization for an ``n``-vehicle string."""
    if n < 1:
        raise ValueError(f"need at least one vehicle, got n={n}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    eye = np.eye(n)
    zero = np.zeros((n, n))
    A = np.block([[eye, dt * eye], [zero, eye]])
    B = np.vstack([0.5 * dt * dt * eye, dt * eye])
    C = np.zeros((2 * n - 1, 2 * n))
    for i in range(n - 1):
        C[i, i] = 1.0
        C[i, i + 1] = -1.0
    C[n - 1:, n:] = eye
    return LtiModel(n=n, dt=dt, A=A, B=B, C=C)
