"""Finite-horizon LQ tracking for vehicle strings.

Solves the discrete-time tracking problem

    min  sum_{k=0}^{N-1} [ (y_k - r_k)' Q (y_k - r_k) + u_k' R u_k ]
                + (y_N - r_N)' Q_N (y_N - r_N),    y_k = C x_k

by backward Riccati recursion with terminal conditions S_N = C' Q_N C and
V_N = C' Q_N r_N:

    M_k   = (R + B' S_{k+1} B)^{-1}
    K_k   = M_k B' S_{k+1} A
    Ky_k  = M_k B'
    S_k   = C' Q C + A' S_{k+1} (A - B K_k)
    V_k   = (A - B K_k)' V_{k+1} + C' Q r_k

The optimal control applies the feedback gain against the current state
and the feedforward gain against the next-step costate:

    u_k = -K_k x_k + Ky_k V_{k+1}

K_k, Ky_k and S_k depend only on the model, the weights and the steps
left, so they are kept once per (model, weights) in a table indexed by
time-to-go; each solve reads its gains from the table and recurses only
V_k.  A batch's problems share one model (one string size and step) and
are solved, rolled out and checked as one stack, split by :func:`chunks`
only where their tables would outgrow the table cache's whole byte
budget.  The time loops bound their temporary stacks by ``TIME_BLOCK``
steps, so working memory does not grow with the horizon.  A stacked
``matmul`` or ``solve`` makes one BLAS/LAPACK call per problem, so each
batched result is bitwise what the problem gets alone: in a batch of
one, and in the one-problem reference ``tests/oracles.py``.

Receding-horizon use flies the recursion's limit (:func:`converged_law`):
the gains by fixed-point iteration (:func:`converged_gains`), kept once
per (model, weights), and, for a constant reference, the costate as one
linear solve on the tracked outputs (:func:`steady_state_feedforward`).

This module holds the mathematics only.  The policy that applies it,
which weights and reference each string gets and how far its horizon
grows, is ``sequencing.ScoringContext``.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .statespace import LtiModel
from .vehicles import ControlLimits, Lane


@dataclass(frozen=True)
class TrackerWeights:
    """Diagonal output weights, input weight, and terminal output weight."""

    Q: np.ndarray    # (2n-1, 2n-1)
    R: np.ndarray    # (n, n)
    Q_N: np.ndarray  # (2n-1, 2n-1)


#: pad (m) between a pair's gap floor and its reference gap
GAP_MARGIN = 0.5


def build_reference(
    floors: np.ndarray,
    desired_speed: float,
    desired_time_headway: float,
    vehicle_length: float,
) -> np.ndarray:
    """Constant reference ``(2n-1,)``: safe desired gaps for the ``n-1``
    pairwise gap floors, then a uniform desired speed.

    Desired position differences combine the vehicle length with the
    larger of each pair's padded minimum net gap and the desired time
    headway at the target speed.  The pad keeps the settle point strictly
    inside the feasible set; without it the loop converges onto the floor
    itself and its transient undershoot reads as a violation.
    """
    floors = np.asarray(floors, dtype=float)
    gaps = vehicle_length + np.maximum(
        floors + GAP_MARGIN, desired_time_headway * desired_speed
    )
    return np.concatenate([gaps, np.full(len(floors) + 1, desired_speed)])


@dataclass
class LqSolution:
    """Backward-recursion products over one horizon."""

    K: np.ndarray    # (N, n, 2n)   feedback gains
    Ky: np.ndarray   # (N, n, 2n)   feedforward gains
    V: np.ndarray    # (N+1, 2n)    cost-to-go linear terms
    S: np.ndarray    # (N+1, 2n, 2n) cost-to-go quadratic terms

    @property
    def horizon(self) -> int:
        return self.K.shape[0]

    def control(self, k: int, x: np.ndarray) -> np.ndarray:
        """Optimal input at step ``k`` from state ``x``."""
        return -self.K[k] @ x + self.Ky[k] @ self.V[k + 1]


class RiccatiTable:
    """Reference-independent recursion products indexed by time-to-go.

    ``K``, ``Ky``, ``S`` and the closed-loop matrix ``A - B K`` depend
    only on the model, the weights and the number of steps left, so one
    table serves every horizon: entry ``j`` of ``S`` has ``j`` steps to
    go (``S[0]`` is the terminal term) and entry ``j - 1`` of ``K``,
    ``Ky`` and ``Acl`` is the gain applied with ``j`` steps to go.  The
    table grows lazily, one recursion step per missing entry, with the
    operations of the per-horizon recursion in the same order, so every
    entry is bitwise what a fresh solve would compute.
    """

    def __init__(self, model: LtiModel, weights: TrackerWeights) -> None:
        self.R = weights.R
        C = model.C
        self.CtQC = C.T @ weights.Q @ C
        nx, nu = model.state_dim, model.n
        self.size = 0  # time-to-go steps filled
        self.K = np.empty((0, nu, nx))
        self.Ky = np.empty((0, nu, nx))
        self.Acl = np.empty((0, nx, nx))
        self.S = np.empty((1, nx, nx))
        self.S[0] = C.T @ weights.Q_N @ C

    @property
    def nbytes(self) -> int:
        return self.K.nbytes + self.Ky.nbytes + self.Acl.nbytes + self.S.nbytes

    def _grow(self, N: int) -> None:
        for name, extra in (("K", 0), ("Ky", 0), ("Acl", 0), ("S", 1)):
            old = getattr(self, name)
            grown = np.empty((N + extra,) + old.shape[1:])
            grown[:self.size + extra] = old[:self.size + extra]
            setattr(self, name, grown)


def extend_tables(model: LtiModel, tables: list[RiccatiTable], N: int) -> None:
    """Fill ``model``'s tables up to ``N`` steps to go in one stacked recursion.

    The tables advance together, one stacked step per time-to-go; a table
    joins the stack at the step where its own fill ends.  A stacked
    ``matmul`` or ``solve`` makes one BLAS/LAPACK call per table, with the
    operations of the per-table recursion in the same order, so every
    entry is bitwise what the table computes alone.
    """
    sizes = sorted({t.S.shape[1] for t in tables} - {model.state_dim})
    if sizes:
        raise ValueError(f"tables of one fill share the model's state size "
                         f"{model.state_dim}, got {sizes}")
    group = [t for t in dict.fromkeys(tables) if t.size < N]
    starts = sorted({t.size for t in group})
    for t in group:
        t._grow(N)
    for start, stop in zip(starts, starts[1:] + [N]):
        _fill(model, [t for t in group if t.size <= start], start, stop)
    for t in group:
        t.size = N


def table_bytes(n: int, N: int) -> int:
    """Bytes of one ``n``-vehicle string's table filled to ``N`` steps to go."""
    nx = 2 * n
    return 8 * (2 * N * n * nx + (2 * N + 1) * nx * nx)


#: steps per block of the time loops' temporary stacks: a fill flushes its
#: block into the tables, and the costate recursion and the rollout gather
#: a block's gains at once, so their working memory does not grow with the
#: horizon
TIME_BLOCK = 64


def _blocks(start: int, stop: int) -> list[tuple[int, int]]:
    """``(begin, end)`` of each ``TIME_BLOCK`` of the steps ``start`` to ``stop``."""
    begins = range(start, stop, TIME_BLOCK)
    return list(zip(begins, [*begins[1:], stop]))


def _fill(model: LtiModel, tables: list[RiccatiTable], start: int, stop: int) -> None:
    """Recursion steps ``start`` to ``stop`` of tables filled to ``start``."""
    A, B = model.A, model.B
    R = np.stack([t.R for t in tables])
    CtQC = np.stack([t.CtQC for t in tables])
    At, Bt = A.T, B.T
    steps = (len(tables), min(TIME_BLOCK, stop - start))
    K = np.empty(steps + tables[0].K.shape[1:])
    Ky = np.empty_like(K)
    Acl = np.empty(steps + tables[0].Acl.shape[1:])
    S = np.empty_like(Acl)
    nx = model.state_dim
    rhs = np.empty(K.shape[:1] + (K.shape[2], 2 * nx))  # [B'S A | B'], one solve
    rhs[..., nx:] = Bt
    Sn = np.stack([t.S[start] for t in tables])
    for begin, end in _blocks(start, stop):
        for j in range(end - begin):
            BtS = Bt @ Sn
            M = R + BtS @ B
            np.matmul(BtS, A, out=rhs[..., :nx])
            gains = np.linalg.solve(M, rhs)
            K[:, j] = gains[..., :nx]
            Ky[:, j] = gains[..., nx:]
            np.subtract(A, B @ K[:, j], out=Acl[:, j])
            Sk = CtQC + At @ Sn @ Acl[:, j]
            Sn = S[:, j] = 0.5 * (Sk + Sk.swapaxes(1, 2))  # symmetrize against drift
        for g, t in enumerate(tables):
            t.K[begin:end] = K[g, :end - begin]
            t.Ky[begin:end] = Ky[g, :end - begin]
            t.Acl[begin:end] = Acl[g, :end - begin]
            t.S[begin + 1:end + 1] = S[g, :end - begin]


#: bytes of cached Riccati tables a request may leave beside its own; a
#: dropped table is rebuilt exactly
RICCATI_CACHE_BYTES = 128 * 2**20
_riccati_tables: OrderedDict[tuple, RiccatiTable] = OrderedDict()


def _key(model: LtiModel, w: TrackerWeights) -> tuple:
    """Key of ``model`` under the weights ``w`` in the process-wide caches."""
    return tuple(m.tobytes() for m in (model.A, model.B, model.C, w.Q, w.R, w.Q_N))


def _riccati_tables_for(
    model: LtiModel, weights: list[TrackerWeights], N: int
) -> list[RiccatiTable]:
    """Process-wide tables of ``model`` under each weights, filled to ``N`` steps.

    Before the fill, the least recently used tables outside this request
    are dropped until the cache, filled, fits ``RICCATI_CACHE_BYTES``; the
    request's own tables are never dropped, so a request larger than the
    budget holds them all until a later request makes room.  The caller
    must hold the returned tables while it reads them: a later request
    may drop any of them.
    """
    keys = [_key(model, w) for w in weights]
    tables = {}
    for key, w in zip(keys, weights):
        if key not in tables:
            table = _riccati_tables.get(key)
            if table is None:
                table = _riccati_tables[key] = RiccatiTable(model, w)
            _riccati_tables.move_to_end(key)
            tables[key] = table
    held = sum(t.nbytes for t in _riccati_tables.values()) + sum(
        table_bytes(model.n, N) - t.nbytes for t in tables.values() if t.size < N)
    while held > RICCATI_CACHE_BYTES:
        oldest = next(iter(_riccati_tables))
        if oldest in tables:  # the request's own are the most recent
            break
        held -= _riccati_tables.pop(oldest).nbytes
    extend_tables(model, list(tables.values()), N)
    return [tables[key] for key in keys]


def solve_finite_horizon_batch(
    model: LtiModel, weights: list[TrackerWeights], r: np.ndarray
) -> list[LqSolution]:
    """Finite-horizon solutions of one model's problems over one horizon.

    ``r`` stacks each problem's reference rows, shape ``(G, N+1, 2n-1)``
    with ``N >= 1``.  The gains and quadratic terms come from the shared
    time-to-go tables (see :class:`RiccatiTable`), filled by one stacked
    recursion; the linear term ``V`` is recursed for all problems at once,
    one stacked step per time step, with each ``TIME_BLOCK`` of closed-loop
    matrices gathered at once.  The returned ``K``, ``Ky`` and ``S`` are
    read-only views into the tables.
    """
    if r.shape[2:] != (model.output_dim,):
        raise ValueError(f"references {r.shape} do not fit model outputs ({model.output_dim},)")
    N = r.shape[1] - 1
    if N < 1:
        raise ValueError(f"horizon must be >= 1, got {N}")
    tables = _riccati_tables_for(model, weights, N)
    Q = np.stack([w.Q for w in weights])
    Q_N = np.stack([w.Q_N for w in weights])
    Ct = model.C.T
    CtQ = Ct @ Q

    V = np.empty((len(weights), N + 1, model.state_dim))
    V[:, N] = (Ct @ (Q_N @ r[:, N, :, None]))[..., 0]
    for begin, end in _blocks(0, N):  # in steps to go
        AclT = np.stack([t.Acl[begin:end] for t in tables]).swapaxes(2, 3)
        first = N - end  # the block's earliest time step
        forcing = (CtQ[:, None] @ r[:, first:N - begin, :, None])[..., 0]  # C' Q r_k
        for j in range(end - begin):
            k = N - 1 - begin - j
            np.add((AclT[:, j] @ V[:, k + 1, :, None])[..., 0], forcing[:, k - first],
                   out=V[:, k])
    solutions = []
    for table, Vg in zip(tables, V):
        K, Ky, S = table.K[N - 1::-1], table.Ky[N - 1::-1], table.S[N::-1]
        for view in (K, Ky, S):
            view.flags.writeable = False
        solutions.append(LqSolution(K=K, Ky=Ky, S=S, V=Vg))
    return solutions


@dataclass
class Trajectory:
    """Closed-loop rollout record; batched rollouts stack loops in front."""

    x: np.ndarray  # (..., N+1, 2n)
    u: np.ndarray  # (..., N, n)  applied (possibly clipped) inputs


def _step(x: np.ndarray, u: np.ndarray, x_next: np.ndarray, dt: float,
          limits: ControlLimits | None) -> np.ndarray:
    """Step the states ``x`` (``(..., 2n)``) under the inputs ``u`` into
    ``x_next``; returns the inputs applied.  Given limits, each input is
    clipped and speeds are clamped to ``[0, v_max]``, so vehicles neither
    reverse nor run away while a tracking error saturates the actuator.
    Positions integrate the trapezoid of successive speeds, exactly
    ``A @ x + B @ u`` whenever no clamp binds."""
    if limits is not None:
        u = np.minimum(np.maximum(u, limits.acc_min), limits.acc_max)
    n = u.shape[-1]
    v, v_next = x[..., n:], x_next[..., n:]
    np.add(v, dt * u, out=v_next)
    if limits is not None:
        np.minimum(np.maximum(v_next, 0.0, out=v_next), limits.v_max, out=v_next)
    np.add(x[..., :n], 0.5 * dt * (v + v_next), out=x_next[..., :n])
    return u


def rollout_batch(
    model: LtiModel,
    solutions: list[LqSolution],
    x0: np.ndarray,
    limits: ControlLimits | None = None,
) -> Trajectory:
    """Simulate the closed loops of equal-horizon solutions at once.

    ``x0`` stacks the start states, shape ``(G, 2n)``, and the returned
    states and inputs stack the loops the same way.  Each input is
    ``-K_k x_k + Ky_k V_{k+1}``, applied by :func:`_step`; the gains of
    each ``TIME_BLOCK`` of steps are gathered at once.  Each step is one
    stacked update of every loop, so each trajectory is bitwise what it
    would be alone.
    """
    N = solutions[0].horizon
    if any(s.horizon != N for s in solutions):
        raise ValueError("batched rollouts need one horizon")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (len(solutions), model.state_dim):
        raise ValueError(
            f"x0 must have shape ({len(solutions)}, {model.state_dim}), got {x0.shape}"
        )
    x = np.empty((len(solutions), N + 1, model.state_dim))
    u = np.empty((len(solutions), N, model.n))
    x[:, 0] = x0
    for begin, end in _blocks(0, N):
        # np.array lays the solutions' table views out C-contiguously, which
        # keeps every product below on the BLAS path of a lone matvec
        neg_K = np.array([s.K[begin:end] for s in solutions])
        np.negative(neg_K, out=neg_K)
        V_next = np.array([s.V[begin + 1:end + 1] for s in solutions])
        Ky = np.array([s.Ky[begin:end] for s in solutions])
        feedforward = (Ky @ V_next[..., None])[..., 0]
        for j, k in enumerate(range(begin, end)):
            uk = (neg_K[:, j] @ x[:, k, :, None])[..., 0] + feedforward[:, j]
            u[:, k] = _step(x[:, k], uk, x[:, k + 1], model.dt, limits)
    return Trajectory(x=x, u=u)


def cross_lane(lanes: tuple[Lane, ...]) -> np.ndarray:
    """Which consecutive pairs of a string start in different lanes."""
    return np.array([a is not b for a, b in zip(lanes, lanes[1:])], dtype=bool)


def active_pairs(
    positions: np.ndarray, floors: np.ndarray, cross: np.ndarray,
    vehicle_length: float, activation_line: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Which pairs' gap floors apply, and which applying pairs are short of
    them: two ``(..., n-1)`` masks for positions of shape ``(..., n)``.  A
    same-lane pair always applies, a cross-lane pair (``cross``, see
    :func:`cross_lane`) once its follower is at or past ``activation_line``;
    it is short when its net gap, the position difference minus
    ``vehicle_length``, is below its floor."""
    active = ~cross | (positions[..., 1:] >= activation_line)
    gaps = positions[..., :-1] - positions[..., 1:] - vehicle_length
    return active, active & (gaps < floors)


#: span (s) at the end of a pair's active steps over which it must hold
#: its gap floor
SETTLE_TIME = 1.0


def check_constraints(
    positions: np.ndarray,
    floors: np.ndarray,
    cross: np.ndarray,
    vehicle_length: float,
    dt: float,
    activation_line: float,
) -> np.ndarray:
    """Which rolled-out strings end short of a gap floor.

    ``positions`` stacks each string's positions, shape ``(G, N+1, n)``;
    ``floors`` and ``cross`` hold each pair's minimum net gap and
    cross-lane flag, shape ``(G, n-1)``.  Net gaps are held to their
    floors (see :func:`active_pairs`) with settle semantics: a pair must
    hold its floor over the last ``SETTLE_TIME`` of the steps where it is
    active, wherever those steps fall.  Spacing while the string is still
    forming is not punishable (a pre-existing tight gap at step zero
    cannot be fixed by any plan, and a longer horizon can always buy more
    forming time).  Returns a ``(G,)`` mask of the strings with a pair
    short in its settle window.

    Inputs need no check: the rollout clips every applied command to the
    actuation range, so a plan stands or falls on what its physical
    trajectory does to the gaps.  Compliance allows a millimeter of
    slack: when the reference gap coincides with the floor the closed
    loop settles exactly on the bound, and the last-bit side of that
    approach carries no information.
    """
    floors = np.asarray(floors, dtype=float)
    expected = positions.shape[:1] + (positions.shape[2] - 1,)
    if floors.shape != expected or cross.shape != expected:
        raise ValueError(
            f"expected gap floors and lanes of shape {expected}, "
            f"got {floors.shape} and {cross.shape}"
        )
    gap_tol = 1e-3
    hold = max(1, int(round(SETTLE_TIME / dt)))
    active, short = active_pairs(positions, floors[:, None] - gap_tol, cross[:, None],
                                 vehicle_length, activation_line)
    # active steps from each step to the end: the last ``hold`` have 1..hold
    to_go = np.cumsum(active[:, ::-1], axis=1)[:, ::-1]
    return (short & (to_go <= hold)).any(axis=(1, 2))


def chunks(pending: list[int], n: int, N: int) -> list[list[int]]:
    """Split ``pending`` into runs whose tables for ``n``-vehicle strings
    at horizon ``N``, one per problem, fit ``RICCATI_CACHE_BYTES``
    together, so no run outgrows the table cache.  A round that fits is
    one run."""
    size = max(1, RICCATI_CACHE_BYTES // table_bytes(n, N))
    return [pending[c:c + size] for c in range(0, len(pending), size)]


#: max-norm change of the feedback gain at which the gain iteration has
#: converged, and the iteration budget
GAIN_TOL = 1e-10
GAIN_MAX_ITER = 10000


def converged_gains(
    model: LtiModel, weights: TrackerWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Receding-horizon gains: fixed point of the backward recursion.

    Iterates from the terminal condition until the feedback gain changes
    by at most ``GAIN_TOL`` in the max norm.  Raises ``RuntimeError`` if
    the iteration has not settled within ``GAIN_MAX_ITER`` steps.
    """
    A, B, C = model.A, model.B, model.C
    At, Bt = A.T, B.T
    CtQC = C.T @ weights.Q @ C
    S = C.T @ weights.Q_N @ C
    K_prev: np.ndarray | None = None
    for _ in range(GAIN_MAX_ITER):
        BtS = Bt @ S
        M = weights.R + BtS @ B
        K = np.linalg.solve(M, BtS @ A)
        if K_prev is not None and abs(K - K_prev).max() <= GAIN_TOL:
            Ky = np.linalg.solve(M, Bt)
            return K, Ky
        Sk = CtQC + At @ S @ (A - B @ K)
        S = 0.5 * (Sk + Sk.T)
        K_prev = K
    raise RuntimeError(f"gain iteration did not converge within {GAIN_MAX_ITER} steps")


def steady_state_feedforward(
    model: LtiModel,
    weights: TrackerWeights,
    K: np.ndarray,
    r_vec: np.ndarray,
) -> np.ndarray:
    """Converged costate for a constant reference under converged gains.

    The limit of ``V = (A - B K)' V + C' Q r`` from ``V_N = C' Q_N r``.
    The gains see only the outputs (``K = K_y C``) and the outputs evolve
    on their own (``C A = A_y C``, ``C B = B_y``), so
    ``(A - B K)' C' = C' (A_y - B_y K_y)'`` and the recursion never leaves
    the range of ``C'``.  With ``V = C' w`` the fixed point reads
    ``(C' - (A - B K)' C') w = C' Q r``; ``C'`` has full column rank and
    the output loop ``A_y - B_y K_y`` is stable, so ``w`` is unique and a
    least-squares solve returns it.  A uniform translation ``e`` of the
    string is a neutral closed-loop mode, but ``C e = 0``, so ``e' V = 0``
    and the limit carries no translation component.  Iterating is not an
    option: the recursion converges geometrically slowly when the closed
    loop is lightly damped.
    """
    Ct = model.C.T
    lhs = Ct - (model.A - model.B @ K).T @ Ct
    forcing = Ct @ (weights.Q @ np.asarray(r_vec, dtype=float))
    return Ct @ np.linalg.lstsq(lhs, forcing, rcond=None)[0]


@dataclass(frozen=True)
class ConvergedLaw:
    """A receding-horizon law: the gains and costate of every step."""

    model: LtiModel
    K: np.ndarray   # (n, 2n)  feedback gain
    Ky: np.ndarray  # (n, 2n)  feedforward gain
    V: np.ndarray   # (2n,)    costate

    def control(self, x: np.ndarray) -> np.ndarray:
        """The law's input from state ``x``."""
        return -self.K @ x + self.Ky @ self.V

    def forecast(self, x: np.ndarray, steps: int, limits: ControlLimits) -> Trajectory:
        """The closed loop from ``x`` over ``steps`` steps of :func:`_step`."""
        traj = Trajectory(x=np.empty((steps + 1, len(x))), u=np.empty((steps, self.model.n)))
        traj.x[0] = x
        for k in range(steps):
            traj.u[k] = _step(traj.x[k], self.control(traj.x[k]), traj.x[k + 1],
                              self.model.dt, limits)
        return traj


#: converged gains by (model, weights), never trimmed: an entry is one
#: n x 2n gain pair, and a run meets a few hundred lane patterns
_converged_gains: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def converged_law(model: LtiModel, weights: TrackerWeights, r_vec: np.ndarray) -> ConvergedLaw:
    """The law for the constant reference ``r_vec``; its gains are solved
    once per (model, weights) in the process."""
    key = _key(model, weights)
    if key not in _converged_gains:
        _converged_gains[key] = converged_gains(model, weights)
    K, Ky = _converged_gains[key]
    return ConvergedLaw(model, K, Ky, steady_state_feedforward(model, weights, K, r_vec))
