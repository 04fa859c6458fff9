"""Independent reference computations used to pin down expected values.

Everything here is deliberately written against the problem statement,
not against the library internals: the QP solve stacks the dynamics into
one dense least-squares problem, the Riccati reference is the plain
per-horizon backward recursion, the interleaving counter is a direct
recursion, the quadrature helpers are plain Python loops, the candidate
scorer scores one candidate at a time, one step at a time, the settle
check walks one pair at a time, the coordinator's forecast is its own
clipped step loop under constant gains, the trajectory writer is the
one-``%``-call-per-row ``np.savetxt`` writer, the scalar IDM is the
NumPy-scalar evaluation of the law, a merger's mainline neighbors
come from a scan over every vehicle, and car-following sorts and
evaluates each lane on its own, then the acceleration lane again.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from rampmerge.idm import idm_accel
from rampmerge.simulation import ACCEL_LANE_START, TrajectoryLog
from rampmerge.vehicles import Lane


def qp_control_sequence(model, weights, r, x0) -> np.ndarray:
    """Optimal inputs via one dense equality-free QP over stacked dynamics.

    X = F x0 + G U for X = [x_1 .. x_N]; minimize the tracking cost over
    U directly with a single linear solve.  ``r`` holds the reference
    rows, shape ``(N+1, 2n-1)``.
    """
    A, B, C = model.A, model.B, model.C
    N = r.shape[0] - 1
    nx, nu, ny = model.state_dim, model.n, model.output_dim
    F = np.zeros((N * nx, nx))
    G = np.zeros((N * nx, N * nu))
    Ak = np.eye(nx)
    for k in range(N):
        Ak = A @ Ak
        F[k * nx:(k + 1) * nx] = Ak
    for k in range(N):
        for j in range(k + 1):
            G[k * nx:(k + 1) * nx, j * nu:(j + 1) * nu] = (
                np.linalg.matrix_power(A, k - j) @ B
            )
    Cbar = np.kron(np.eye(N), C)
    Qbar = np.kron(np.eye(N), weights.Q)
    Qbar[-ny:, -ny:] = weights.Q_N
    Rbar = np.kron(np.eye(N), weights.R)
    rstack = r[1:].reshape(-1)
    H = G.T @ Cbar.T @ Qbar @ Cbar @ G + Rbar
    g = G.T @ Cbar.T @ Qbar @ (Cbar @ F @ x0 - rstack)
    return np.linalg.solve(H, -g).reshape(N, nu)


def riccati_recursion(model, weights, r):
    """Backward Riccati recursion over one horizon, solved from scratch.

    The per-horizon recursion the tracker ran before gains were shared
    by time-to-go, over the reference rows ``r`` of shape ``(N+1, 2n-1)``;
    returns ``(K, Ky, S, V)`` with step-indexed rows.
    """
    N = r.shape[0] - 1
    A, B, C = model.A, model.B, model.C
    nx, nu = model.state_dim, model.n
    CtQC = C.T @ weights.Q @ C
    CtQ = C.T @ weights.Q

    S = np.empty((N + 1, nx, nx))
    V = np.empty((N + 1, nx))
    K = np.empty((N, nu, nx))
    Ky = np.empty((N, nu, nx))

    S[N] = C.T @ weights.Q_N @ C
    V[N] = C.T @ (weights.Q_N @ r[N])
    for k in range(N - 1, -1, -1):
        Sn = S[k + 1]
        BtS = B.T @ Sn
        M = weights.R + BtS @ B
        K[k] = np.linalg.solve(M, BtS @ A)
        Ky[k] = np.linalg.solve(M, B.T)
        Acl = A - B @ K[k]
        Sk = CtQC + A.T @ Sn @ Acl
        S[k] = 0.5 * (Sk + Sk.T)
        V[k] = Acl.T @ V[k + 1] + CtQ @ r[k]
    return K, Ky, S, V


def lookahead_by_loop(K, Ky, V_ss, x, dt, limits, steps) -> np.ndarray:
    """Forecast of a string under its converged law, one step at a time.

    The coordinator's short-range forecast (``ConvergedLaw.forecast``)
    written out in plain NumPy: clipped commands ``-K x + Ky V_ss``,
    speeds clamped to ``[0, v_max]``, trapezoid positions.  Returns the
    ``steps`` states after ``x``.
    """
    n = len(x) // 2
    out = np.empty((steps, len(x)))
    xp = x.copy()
    for k in range(steps):
        u = np.clip(-K @ xp + Ky @ V_ss, limits.acc_min, limits.acc_max)
        v = xp[n:]
        v_next = np.clip(v + dt * u, 0.0, limits.v_max)
        xp = np.concatenate([xp[:n] + 0.5 * dt * (v + v_next), v_next])
        out[k] = xp
    return out


def interleaving_count(m: int, n: int) -> int:
    """Number of order-preserving interleavings, by direct recursion."""
    if m == 0 or n == 0:
        return 1
    return interleaving_count(m - 1, n) + interleaving_count(m, n - 1)


def fuel_by_loop(speeds, accels, dt, coeffs) -> float:
    """Left-Riemann fuel integral as an explicit Python loop."""
    total = 0.0
    for v, a in zip(speeds, accels):
        rate = (coeffs.b0 + coeffs.b1 * v + coeffs.b2 * v**2 + coeffs.b3 * v**3
                + a * (coeffs.c0 + coeffs.c1 * v + coeffs.c2 * v**2))
        total += max(rate, 0.0) * dt
    return total


def settled_by_loop(positions, floors, lanes, vehicle_length, dt,
                    activation_line=-50.0, settle_time=1.0):
    """Whether every pair of one string holds its floor once it settles.

    The per-pair loop the tracker ran before the check was stacked: a
    pair is checked at the steps where it applies (a same-lane pair
    always, a cross-lane pair once its follower is at or past
    ``activation_line``), and only the last
    ``settle_time`` of those steps must keep the net gap within a
    millimeter of the floor.  ``positions`` has shape ``(N+1, n)``.
    """
    hold = max(1, int(round(settle_time / dt)))
    for i, floor in enumerate(floors):
        gaps = positions[:, i] - positions[:, i + 1] - vehicle_length
        steps = [
            k for k in range(positions.shape[0])
            if lanes[i] == lanes[i + 1]
            or positions[k, i + 1] >= activation_line
        ]
        if any(gaps[k] < floor - 1e-3 for k in steps[-hold:]):
            return False
    return True


def score_by_loop(sequence, x0, floors, ctx):
    """One candidate scored alone, as the scorer ran before batching.

    The candidate's start state and gap floors are gathered from the
    cycle's member arrays row by row.  Per horizon: the from-scratch recursion above, then the clipped
    closed loop stepped one input at a time; the horizon grows until the
    rollout is clean or capped, and the fuel of every vehicle is summed.
    Returns ``(total_fuel, feasible, horizon, x, u)``.
    """
    from rampmerge.fuel import trajectory_fuel
    from rampmerge.statespace import build_model

    n, m = len(sequence), len(floors)
    model = build_model(n, ctx.dt)
    x0 = np.array([x0[r] for r in sequence.rows] + [x0[m + r] for r in sequence.rows])
    floors = np.array([floors[r] for r in sequence.rows[1:]], dtype=float)
    problem = ctx.problem(sequence.lanes, floors, x0)
    weights, r_vec = problem.weights, problem.r_vec
    limits, dt = ctx.limits, ctx.dt
    N = min(ctx.horizon, ctx.max_horizon)
    while True:
        K, Ky, _, V = riccati_recursion(model, weights, np.tile(r_vec, (N + 1, 1)))
        x = np.empty((N + 1, 2 * n))
        u = np.empty((N, n))
        x[0] = x0
        for k in range(N):
            uk = -K[k] @ x[k] + Ky[k] @ V[k + 1]
            uk = np.clip(uk, limits.acc_min, limits.acc_max)
            u[k] = uk
            v = x[k, n:]
            v_next = np.clip(v + dt * uk, 0.0, limits.v_max)
            x[k + 1, :n] = x[k, :n] + 0.5 * dt * (v + v_next)
            x[k + 1, n:] = v_next
        ok = settled_by_loop(
            x[:, :n], floors, sequence.lanes, ctx.vehicle_length, dt,
            activation_line=-ctx.activation_margin,
        )
        if ok or N >= ctx.max_horizon:
            break
        N = min(int(np.ceil(N * ctx.horizon_growth)), ctx.max_horizon)
    speeds = np.maximum(x[:-1, n:], 0.0)
    total = sum(
        trajectory_fuel(speeds[:, i], u[:, i], dt, ctx.fuel) for i in range(n)
    )
    return float(total), ok, N, x, u


_EXPORT_FMT = ",".join("%d" if dtype is np.int64 else "%.6f"
                       for dtype in TrajectoryLog.FIELDS.values())
_HEADER = ",".join(TrajectoryLog.FIELDS)


def export_trajectories_savetxt(log: dict[str, np.ndarray], path: str | Path) -> Path:
    """Write a trajectory log as CSV, rows sorted by (t, id)."""
    path = Path(path)
    order = np.lexsort((log["id"], log["t"]))
    table = np.column_stack([log[name][order].astype(float)
                             for name in TrajectoryLog.FIELDS])
    try:
        with path.open("w") as handle:
            handle.write(_HEADER + "\n")
            if table.size:
                np.savetxt(handle, table, fmt=_EXPORT_FMT)
    except OSError as exc:
        raise RuntimeError(f"cannot write trajectories to {path}: {exc}") from exc
    return path


def idm_accel_numpy_scalar(speed, gap, closing_speed, params) -> float:
    """IDM acceleration of one vehicle, in NumPy scalar arithmetic."""
    v = np.asarray(speed, dtype=float)
    s = np.asarray(gap, dtype=float)
    dv = np.asarray(closing_speed, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("IDM needs a positive gap; overlap means a collision")
    dynamic = v * params.T + v * dv / (2.0 * math.sqrt(params.a * params.b))
    s_star = params.s0 + np.maximum(dynamic, 0.0)
    accel = params.a * (1.0 - (v / params.v0) ** params.delta - (s_star / s) ** 2)
    return float(accel)


def insertion_neighbors_by_scan(world, pos: float) -> tuple[int, int]:
    """Nearest mainline vehicles at or ahead of, and behind, an axis
    position (-1 for none), by one pass over the world in index order."""
    main = np.nonzero(world.lane == Lane.MAINLINE.code)[0]
    lead = lag = -1
    lead_pos = math.inf
    lag_pos = -math.inf
    for j in main:
        p = world.pos[j]
        if p >= pos and p < lead_pos:
            lead, lead_pos = int(j), p
        elif p < pos and p > lag_pos:
            lag, lag_pos = int(j), p
    return lead, lag


def car_following_by_lane(lanes, pos, v, vehicle_length, mainline_idm, ramp_idm):
    """Each vehicle's IDM acceleration, net gap and same-lane predecessor
    (-1 for none), and each lane's indices downstream first, ties in
    index order: one stable sort and one IDM call per lane, then the
    ramp vehicles at or past ``ACCEL_LANE_START`` again on the mainline
    set, overwriting their ramp result."""
    n = len(lanes)
    acc = np.empty(n)
    gap = np.full(n, np.inf)
    closing = np.zeros(n)
    pred_of = np.full(n, -1, dtype=int)
    chains = {}
    for lane, params in ((Lane.MAINLINE, mainline_idm), (Lane.RAMP, ramp_idm)):
        idx = np.nonzero(lanes == lane.code)[0]
        order = chains[lane] = idx[np.argsort(-pos[idx], kind="stable")]
        if len(order) == 0:
            continue
        pred_of[order[1:]] = order[:-1]
        gap[order[1:]] = pos[order[:-1]] - pos[order[1:]] - vehicle_length
        closing[order[1:]] = v[order[1:]] - v[order[:-1]]
        acc[order] = idm_accel(v[order], np.maximum(gap[order], 1e-3), closing[order], params)
    accel_lane = np.nonzero((lanes == Lane.RAMP.code) & (pos >= ACCEL_LANE_START))[0]
    if len(accel_lane):
        acc[accel_lane] = idm_accel(v[accel_lane], np.maximum(gap[accel_lane], 1e-3),
                                    closing[accel_lane], mainline_idm)
    return acc, gap, pred_of, chains
