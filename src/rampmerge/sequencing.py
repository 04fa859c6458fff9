"""The planning policy that applies ``tracking``'s LQ mathematics
(:class:`ScoringContext`), and merge-order selection: enumerate
interleavings, score each, keep the cheapest.

A merge sequence is an interleaving of the two lane queues that keeps the
order within each lane (no overtaking on a lane), so for M mainline and N
ramp vehicles there are C(M+N, N) candidates.  Each candidate is scored
by rolling out the string tracker and integrating predicted fuel over
the horizon; the minimum-fuel feasible candidate wins.  A decision
cycle's candidates are solved and rolled out as one batch, and each
candidate's score is bitwise what it gets alone: in a batch of one, and
from the one-problem reference ``tests/oracles.score_by_loop``.

A cycle's inputs are plain arrays over its members, ordered mainline
ids then ramp ids: ``x0``, their string state (positions, then speeds),
and ``floors``, each member's minimum net gap as a follower.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .fuel import DEFAULT_COEFFICIENTS, FuelCoefficients, trajectory_fuel
from .params import Checked, param
from .statespace import build_model
from .tracking import (
    ConvergedLaw,
    LqSolution,
    TrackerWeights,
    Trajectory,
    build_reference,
    check_constraints,
    chunks,
    converged_law,
    cross_lane,
    rollout_batch,
    solve_finite_horizon_batch,
)
from .vehicles import ControlLimits, Lane


class SequenceCapError(ValueError):
    """Raised when the candidate count exceeds the enumeration cap."""


@dataclass(frozen=True)
class MergeSequence:
    """One candidate merge order, downstream-most vehicle first.

    ``rows`` are the vehicles' rows in the cycle's member arrays."""

    ids: tuple[int, ...]
    lanes: tuple[Lane, ...]
    rows: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def first_ramp_index(self) -> int:
        """Position of the earliest ramp vehicle (len(self) if none)."""
        for i, lane in enumerate(self.lanes):
            if lane is Lane.RAMP:
                return i
        return len(self.ids)


def count_sequences(n_mainline: int, n_ramp: int) -> int:
    return math.comb(n_mainline + n_ramp, n_ramp)


def _interleavings(
    main: tuple[int, ...], ramp: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    if not main or not ramp:
        yield main + ramp
        return
    for rest in _interleavings(main[1:], ramp):
        yield (main[0],) + rest
    for rest in _interleavings(main, ramp[1:]):
        yield (ramp[0],) + rest


def enumerate_sequences(
    mainline_ids: list[int],
    ramp_ids: list[int],
    cap: int,
) -> list[MergeSequence]:
    """All order-preserving interleavings, in a deterministic order;
    rows index ``mainline_ids + ramp_ids``.

    Raises ``SequenceCapError`` before enumerating if C(M+N, N) exceeds
    ``cap``; the caller is expected to shrink its membership and retry.
    """
    if not mainline_ids and not ramp_ids:
        raise ValueError("nothing to sequence")
    total = count_sequences(len(mainline_ids), len(ramp_ids))
    if total > cap:
        raise SequenceCapError(
            f"{total} candidate sequences exceed the cap of {cap}"
        )
    ids = list(mainline_ids) + list(ramp_ids)
    m = len(mainline_ids)
    return [
        MergeSequence(
            ids=tuple(ids[r] for r in rows),
            lanes=tuple(Lane.MAINLINE if r < m else Lane.RAMP for r in rows),
            rows=rows,
        )
        for rows in _interleavings(tuple(range(m)), tuple(range(m, len(ids))))
    ]


@dataclass(frozen=True)
class StringProblem:
    """One string to plan under its batch's model: weights, constant
    reference, start state, per-pair gap floors and the members' lanes."""

    weights: TrackerWeights
    r_vec: np.ndarray      # (2n-1,)
    x0: np.ndarray         # (2n,)
    floors: np.ndarray     # (n-1,)
    lanes: tuple[Lane, ...]


@dataclass
class RepairResult:
    solution: LqSolution
    trajectory: Trajectory
    degraded: bool  # still short of a gap floor at ``max_horizon``


@dataclass
class ScoringContext(Checked):
    """The planning policy, bundled once per decision.

    :meth:`weights` and :meth:`problem` turn these fields into a string's
    tracker weights and reference.  :meth:`solve_batch` plans strings with
    horizon repair, to score candidates and re-plan live strings, and
    :meth:`law` is the receding-horizon law each string flies.  The merge
    point is the origin of the axis: a cross-lane pair's gap floor applies
    from ``activation_margin`` upstream of it.
    """

    dt: float = 0.1
    horizon: int = param("plain", 300, ">= 1")
    # a repair that cannot lengthen its horizon never gets anywhere
    horizon_growth: float = param("plain", 1.5, "> 1")
    max_horizon: int = param("plain", 1200, ">= 1")
    limits: ControlLimits = field(default_factory=ControlLimits)
    vehicle_length: float = 5.0
    gap_weight_mainline: float = param("plain", 1.0, ">= 0")
    gap_weight_ramp: float = param("plain", 2.0, ">= 0")
    speed_weight_mainline: float = param("plain", 0.5, ">= 0")
    speed_weight_ramp: float = param("plain", 1.0, ">= 0")
    # heavy control weighting keeps planned accelerations small: strings
    # drift onto their slots instead of sprinting, which is where the
    # fuel advantage over the baselines comes from
    control_weight: float = param("plain", 100.0, "> 0")
    terminal_factor: float = param("plain", 10.0, ">= 0")
    desired_speed: float = param("speed", 30.0, "> 0")
    desired_time_headway: float = param("time", 1.2, ">= 0")
    activation_margin: float = param("length", 50.0, ">= 0")
    fuel: FuelCoefficients = DEFAULT_COEFFICIENTS
    cap: int = param("plain", 252, ">= 1")

    def issues(self) -> list[tuple[str, str]]:
        out = super().issues()
        if self.horizon > self.max_horizon and "max_horizon" not in dict(out):
            out.append(("horizon", "must be <= max_horizon"))
        return out

    def weights(self, lanes: tuple[Lane, ...]) -> TrackerWeights:
        """Diagonal weights of the string with these lanes.

        Each gap row is weighted by the lane of its follower (the vehicle
        that has to close the gap); each speed row by the vehicle's own lane.
        """
        if not lanes:
            raise ValueError("need at least one vehicle")
        ramp = np.array([lane is Lane.RAMP for lane in lanes])
        Q = np.diag(np.concatenate([
            np.where(ramp[1:], self.gap_weight_ramp, self.gap_weight_mainline),
            np.where(ramp, self.speed_weight_ramp, self.speed_weight_mainline),
        ]).astype(float))
        return TrackerWeights(Q=Q, R=self.control_weight * np.eye(len(lanes)),
                              Q_N=self.terminal_factor * Q)

    def problem(
        self, lanes: tuple[Lane, ...], floors: np.ndarray, x0: np.ndarray
    ) -> StringProblem:
        """The string with these lanes, gap floors and start state."""
        r_vec = build_reference(
            floors, self.desired_speed, self.desired_time_headway, self.vehicle_length
        )
        return StringProblem(self.weights(lanes), r_vec, x0, floors, lanes)

    def law(self, problem: StringProblem) -> ConvergedLaw:
        """The receding-horizon law the string flies (``tracking.converged_law``)."""
        model = build_model(len(problem.lanes), self.dt)
        return converged_law(model, problem.weights, problem.r_vec)

    def solve_batch(self, problems: list[StringProblem]) -> list[RepairResult]:
        """Plan strings of one length: solve, roll out clipped, and re-solve
        over longer horizons until clean.

        The applied inputs respect the actuation range by construction, so
        what can go wrong is the physical trajectory: under clipping a
        short horizon may not leave enough time to form the required gaps.
        The horizon grows geometrically until the clipped rollout is clean;
        if ``max_horizon`` is reached with a pair still short, the
        longest-horizon solution is returned flagged as degraded (still
        executable, since its inputs are clipped).

        Repair runs in rounds: every problem starts at ``horizon``, each
        round solves, rolls out and checks its problems as one stack
        (split by ``tracking.chunks`` only where its tables would outgrow
        the table cache), and the problems whose rollout is still short of
        a gap floor go on to the next horizon together.  Each result is
        bitwise what the problem gets alone.  The context is validated
        once, before the first round.
        """
        self.validate()
        model = build_model(len(problems[0].lanes), self.dt)
        results: list[RepairResult | None] = [None] * len(problems)
        pending = list(range(len(problems)))
        N = self.horizon
        while pending:
            retry = []
            for chunk in chunks(pending, model.n, N):
                batch = [problems[i] for i in chunk]
                r_vecs = np.stack([np.asarray(p.r_vec, dtype=float) for p in batch])
                solutions = solve_finite_horizon_batch(
                    model, [p.weights for p in batch],
                    np.broadcast_to(r_vecs[:, None], (len(batch), N + 1, r_vecs.shape[1])),
                )
                traj = rollout_batch(
                    model, solutions, np.stack([p.x0 for p in batch]), self.limits)
                short = check_constraints(
                    traj.x[..., :model.n], np.stack([p.floors for p in batch]),
                    np.stack([cross_lane(p.lanes) for p in batch]), self.vehicle_length,
                    model.dt, -self.activation_margin,
                )
                for g, i in enumerate(chunk):
                    if short[g] and N < self.max_horizon:
                        retry.append(i)
                    else:
                        results[i] = RepairResult(
                            solutions[g], Trajectory(x=traj.x[g], u=traj.u[g]),
                            degraded=bool(short[g]),
                        )
            pending = retry
            N = min(int(np.ceil(N * self.horizon_growth)), self.max_horizon)
        return results


@dataclass
class SequenceScore:
    sequence: MergeSequence
    total_fuel: float
    result: RepairResult
    problem: StringProblem


def score_sequences(
    sequences: list[MergeSequence],
    x0: np.ndarray,
    floors: np.ndarray,
    ctx: ScoringContext,
) -> list[SequenceScore]:
    """Roll out candidate orders of one string length as one batch and
    integrate each one's predicted fuel."""
    n = len(sequences[0])
    m = len(floors)
    problems = []
    for sequence in sequences:
        rows = np.array(sequence.rows)
        problems.append(ctx.problem(
            sequence.lanes, floors[rows[1:]], x0[np.concatenate((rows, rows + m))]
        ))
    scores = []
    results = ctx.solve_batch(problems)
    for sequence, problem, result in zip(sequences, problems, results):
        speeds = np.maximum(result.trajectory.x[:-1, n:], 0.0)
        total = sum(
            trajectory_fuel(speeds[:, i], result.trajectory.u[:, i], ctx.dt, ctx.fuel)
            for i in range(n)
        )
        scores.append(SequenceScore(sequence, float(total), result, problem))
    return scores


def _selection_key(score: SequenceScore) -> tuple:
    return (score.total_fuel, score.sequence.first_ramp_index, score.sequence.ids)


def optimal_sequence(
    mainline_ids: list[int],
    ramp_ids: list[int],
    x0: np.ndarray,
    floors: np.ndarray,
    ctx: ScoringContext,
) -> SequenceScore:
    """Score every admissible interleaving and return the cheapest.

    Feasible candidates always beat degraded ones.  Exact fuel ties break
    toward the sequence whose first ramp vehicle merges earliest, then by
    vehicle ids, so the choice is reproducible.
    """
    candidates = enumerate_sequences(mainline_ids, ramp_ids, cap=ctx.cap)
    scores = score_sequences(candidates, x0, floors, ctx)
    feasible = [s for s in scores if not s.result.degraded]
    return min(feasible if feasible else scores, key=_selection_key)
