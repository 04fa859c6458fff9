"""Decision-cycle coordination of cooperative merging.

The coordinator owns the control loop that turns individual vehicles into
jointly controlled merge strings:

* it watches the ramp for the next *leader* (the first ramp vehicle
  never controlled) and paces that leader so ramp inflow never exceeds
  the suggested rate;
* it times everything by arrival at a line with one estimate,
  :func:`travel_time_estimate`: the pending leader's at the trigger
  line under the ramp IDM, and each cycle member's at the merge toward
  the desired speed;
* when the leader crosses the trigger line it opens a *decision cycle*:
  it collects the leader, the ramp vehicles right behind it in the
  buffer zone and a flow-proportional share of mainline traffic, picks
  the cheapest merge order, and keeps the winner's string problem
  (lanes, gap floors, weights and reference) in a :class:`ControlSet`;
* every step it issues one acceleration command per controlled vehicle
  from the string's law (:meth:`ScoringContext.law`), watches short-range
  predictions for developing gap violations (re-planning the same
  problem from the current state when needed), and releases vehicles
  once they clear the merge zone, leaving the suffix of the problem.

The merge point is the origin of the merge axis: a vehicle at or past it
has merged, and ``-position`` is its distance to the merge.

All functions here are pure with respect to the traffic world: the
simulation hands in a :class:`WorldSnapshot` each step and applies the
returned commands itself.
"""
from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .idm import IdmParams, idm_accel
from .sequencing import ScoringContext, StringProblem, count_sequences, optimal_sequence
from .tracking import ConvergedLaw, LqSolution, active_pairs, cross_lane
from .vehicles import Lane, MergeGeometry, gap_floors

#: Hard deceleration available to safety interventions (m/s^2).  Comfort
#: limits bound planned commands; holds and last-resort braking may use this.
HARD_BRAKE = -6.0
#: proportional gain pacing an early ramp leader toward its arrival (1/s)
K_P = 0.5
#: distance upstream of the trigger line (m) where an early leader is held
GATE_WINDOW = 40.0
#: steps of each string's short-range forecast
LOOKAHEAD_STEPS = 30
#: interval (s) between forecasts
LOOKAHEAD_CADENCE = 1.0
#: a forecast gap below this share of its floor triggers a re-plan
REPAIR_GAP_FRACTION = 0.6
#: a string is forecast only while a gap is below this share of its floor:
#: a screen that spares formed strings the rollout, not a safety bound
SCREEN_GAP_FRACTION = 1.5
#: minimum interval (s) between re-plans of one string
REPAIR_COOLDOWN = 5.0
#: span (s) of the moving-average mainline density
DENSITY_WINDOW = 10.0
#: mainline vehicles arriving up to this long (s) before the ramp leader
#: still join its cycle
PARTNER_MARGIN = 2.0
#: shortest roadway (m) a cycle's mainline share may span
BUFFER_MIN_LENGTH = 50.0
#: rolling window (s) over which ramp inflow keeps the suggested rate, and
#: the share of that window's count an admission burst may overshoot it by
INFLOW_WINDOW = 300.0
INFLOW_TOLERANCE = 0.05


@dataclass
class WorldSnapshot:
    """Read-only view of the traffic world at one instant.

    Positions live on the shared merge axis.  ``entry_speeds`` carries
    NaN until a vehicle's buffer-entry speed has been recorded.
    ``q_mainline`` and ``q_suggested`` are flows in veh/s.
    """

    t: float
    q_mainline: float
    q_suggested: float
    ids: np.ndarray
    lanes: np.ndarray
    positions: np.ndarray
    speeds: np.ndarray
    entry_speeds: np.ndarray
    orders: dict[Lane, np.ndarray]  # lane_orders(lanes, positions): downstream first

    def __post_init__(self) -> None:
        self._index = {int(v): i for i, v in enumerate(self.ids)}

    def index_of(self, vehicle_id: int) -> int:
        return self._index[vehicle_id]

    def has(self, vehicle_id: int) -> bool:
        return vehicle_id in self._index

    def state(self, ids: Sequence[int]) -> np.ndarray:
        """String state of these vehicles: positions, then speeds."""
        idx = [self._index[vid] for vid in ids]
        return np.concatenate((self.positions[idx], self.speeds[idx]))


def mainline_buffer_length(
    q_mainline: float,
    q_suggested: float,
    n_ramp: int,
    density: float,
    upper: float,
) -> float:
    """Roadway length holding the mainline's flow-proportional share.

    For every ramp vehicle admitted, the mainline contributes
    ``q_mainline / q_suggested`` partners; dividing that vehicle count by
    the measured density converts it to meters.  Clamped to
    ``[BUFFER_MIN_LENGTH, upper]``; a zero density (empty road) clamps high.
    """
    if q_suggested <= 0.0:
        raise ValueError("q_suggested must be positive")
    if density <= 0.0:
        return upper
    length = (q_mainline / q_suggested) * n_ramp / density
    return float(min(max(length, BUFFER_MIN_LENGTH), upper))


def proper_arrival_time(n_ramp_prev: int, q_suggested: float) -> float:
    """Earliest admissible headway to the next cycle's leader (s).

    The previous cycle admitted ``n_ramp_prev`` ramp vehicles; at the
    suggested rate they occupy ``n / q`` seconds of ramp inflow, so the
    next leader may not cross before that much time has passed.
    """
    if q_suggested <= 0.0:
        raise ValueError("q_suggested must be positive")
    if n_ramp_prev < 0:
        raise ValueError("n_ramp_prev must be nonnegative")
    return n_ramp_prev / q_suggested


def inflow_group_cap(q_suggested: float) -> int:
    """Largest admission burst that keeps every rolling window compliant.

    Admitting ``n`` vehicles at once and then holding the next leader for
    ``n / q`` seconds realizes the suggested rate on average, but a
    rolling window of length ``W`` (``INFLOW_WINDOW``) can still catch
    one unpaid burst at its edge: worst case it sees ``W * q + n``
    vehicles.  Keeping the overshoot within ``INFLOW_TOLERANCE * W * q``
    bounds the burst size; at least one vehicle must always be admissible.
    """
    return max(1, math.floor(INFLOW_TOLERANCE * q_suggested * INFLOW_WINDOW))


def travel_time_estimate(
    distance: float,
    speed: float,
    acc_max: float,
    v_target: float,
) -> float:
    """Time to cover ``distance`` accelerating toward ``v_target``."""
    if distance <= 0.0:
        return 0.0
    v = max(speed, 0.0)
    if v >= v_target or acc_max <= 0.0:
        return distance / max(v, 0.1)
    d_accel = (v_target**2 - v**2) / (2.0 * acc_max)
    if d_accel >= distance:
        return (-v + math.sqrt(v**2 + 2.0 * acc_max * distance)) / acc_max
    return (v_target - v) / acc_max + (distance - d_accel) / v_target


@dataclass
class ControlSet:
    """One decision cycle's string problem and live controller state."""

    cycle_id: int
    ids: tuple[int, ...]
    problem: StringProblem  # the members' lanes, floors, weights, reference
    law: ConvergedLaw  # flown whenever no re-plan is
    repair: LqSolution | None = None
    repair_k: int = 0
    last_repair_t: float = -math.inf


class EventKind(Enum):
    """What a coordinator decision was, and so which keys its data holds."""

    #: a decision cycle: ``ramp_ids``, ``mainline_ids``, ``sequence_ids``,
    #: ``total_fuel``, ``horizon``, ``degraded`` and ``release_time``
    CYCLE = "cycle"
    #: a vehicle the enumeration cap shed from a cycle: ``lane``, ``vehicle``
    CAP = "cap"
    #: a live string re-planned on a forecast gap breach: ``horizon``, ``degraded``
    REPLAN = "replan"


@dataclass(frozen=True)
class Event:
    """One coordinator decision at time ``t``, for decision cycle ``cycle``."""

    t: float
    kind: EventKind
    cycle: int
    data: dict


class MergeCoordinator:
    """Runs decision cycles and serves per-step acceleration commands."""

    def __init__(
        self,
        geometry: MergeGeometry,
        scoring: ScoringContext,
        ramp_idm: IdmParams,
    ) -> None:
        geometry.validate()
        scoring.limits.validate()
        self.geometry = geometry
        self.scoring = scoring
        self.ramp_idm = ramp_idm

        #: live sets in creation order; a set leaves with its last member
        self.sets: list[ControlSet] = []
        self.ever_controlled: set[int] = set()
        #: every decision, in the order taken
        self.events: list[Event] = []
        #: the pending leader may not cross the trigger line before this
        self.release_time = -math.inf
        #: the pending leader when this step's pacing commands it
        self.regulated_leader: int | None = None
        self._cycle_count = 0
        self._density_samples: deque[tuple[float, float]] = deque()
        self._last_lookahead = -math.inf

    # -- main entry ----------------------------------------------------

    def step(self, snap: WorldSnapshot) -> dict[int, float]:
        """Advance one control step; returns accel commands by vehicle id.

        Controlled ramp vehicles always form a downstream prefix of the
        ramp queue: a cycle takes the first never-controlled vehicle and
        the ones right behind it, the enumeration cap sheds only from the
        group's tail, arrivals join the queue at its tail, and a lane has
        no overtaking.  So one scan finds rank ``k``, the first
        never-controlled vehicle.  If it is at or past the trigger line a
        cycle admits it and the ranks behind it, and ``k`` moves past
        them; the vehicle then at rank ``k`` is the pending leader.
        """
        self._observe_density(snap)
        self._retire_and_shrink(snap)
        order = snap.orders[Lane.RAMP]
        k = 0
        while k < len(order) and int(snap.ids[order[k]]) in self.ever_controlled:
            k += 1
        if k < len(order) and snap.positions[order[k]] >= self.geometry.trigger_point:
            k += self._on_trigger(k, snap)
        commands = self._leader_command(k, snap)
        commands.update(self._set_commands(snap))
        return commands

    # -- density estimate ----------------------------------------------

    def _observe_density(self, snap: WorldSnapshot) -> None:
        zone = self.geometry.mainline_control_zone_len
        on_main = snap.lanes == Lane.MAINLINE.code
        in_zone = on_main & (snap.positions >= -zone) & (snap.positions < 0.0)
        self._density_samples.append((snap.t, float(np.count_nonzero(in_zone)) / zone))
        cutoff = snap.t - DENSITY_WINDOW
        while self._density_samples and self._density_samples[0][0] < cutoff:
            self._density_samples.popleft()

    def _density_estimate(self) -> float:
        """Mean of the samples in the window; ``step`` observes the
        current sample before any cycle reads this, so it is never
        empty there."""
        return float(np.mean([d for _, d in self._density_samples]))

    # -- leader tracking and the admission gate ------------------------

    def _leader_command(self, k: int, snap: WorldSnapshot) -> dict[int, float]:
        """Pace the pending leader, rank ``k`` of the ramp queue, toward
        its admission time.

        Two layers: proportional speed pacing toward an on-time arrival,
        and a hard hold just upstream of the trigger line that a leader
        cannot pass before its release time.  The hold is what guarantees
        consecutive cycles stay separated by the proper arrival time.

        The pacing is one-sided: a leader whose unpaced arrival, driving
        by the ramp IDM, is on time or late keeps its IDM acceleration.
        An early one gets proportional feedback on the speed that would
        arrive exactly on schedule, clipped to the actuation limits and
        never above what IDM toward the vehicle ahead allows.
        """
        self.regulated_leader = None
        order = snap.orders[Lane.RAMP]
        if k >= len(order):
            return {}
        idx = int(order[k])
        pos = float(snap.positions[idx])
        distance = self.geometry.trigger_point - pos
        remaining = self.release_time - snap.t
        if distance <= 0.0 or remaining <= 0.0:
            return {}
        leader = int(snap.ids[idx])
        v = float(snap.speeds[idx])
        eta = travel_time_estimate(distance, v, self.ramp_idm.a, self.ramp_idm.v0)
        regulating = eta < remaining
        if not regulating and distance > GATE_WINDOW:
            return {}

        # IDM toward the actual ramp predecessor
        gap, dv = math.inf, 0.0
        if k > 0:
            pred_idx = int(order[k - 1])
            gap = float(snap.positions[pred_idx] - pos) - self.scoring.vehicle_length
            dv = v - float(snap.speeds[pred_idx])
        command = idm_accel(v, max(gap, 0.1), dv, self.ramp_idm)
        if regulating:
            limits = self.scoring.limits
            paced = K_P * (distance / remaining - v)
            paced = min(max(paced, limits.acc_min), limits.acc_max)
            command = min(paced, command)
        # hard hold: do not let an early leader reach the line
        if distance <= GATE_WINDOW:
            stop_dist = max(distance - 0.5, 0.3)
            hold = -(v * v) / (2.0 * stop_dist)
            if hold < command:
                command = max(hold, HARD_BRAKE)
                regulating = True
        if not regulating:
            return {}
        self.regulated_leader = leader
        return {leader: float(command)}

    # -- decision cycle ------------------------------------------------

    def _collect_ramp_members(self, k: int, snap: WorldSnapshot) -> list[int]:
        """The leader at rank ``k`` of the ramp queue and the ranks right
        behind it, up to the buffer-zone start and the inflow cap."""
        order = snap.orders[Lane.RAMP]
        members = [int(snap.ids[order[k]])]
        for idx in order[k + 1:k + inflow_group_cap(snap.q_suggested)]:
            if snap.positions[idx] < self.geometry.ramp_buffer_start:
                break
            members.append(int(snap.ids[idx]))
        return members

    def _collect_mainline_members(
        self, ramp_members: list[int], snap: WorldSnapshot
    ) -> list[int]:
        """Mainline vehicles that will share the merge with this group.

        Selection is by arrival time at the merge, estimated for every
        vehicle, ramp or mainline, as the plan will drive it: from its
        speed toward ``desired_speed`` at ``acc_max``.  Anything reaching
        the merge between just before the ramp leader and one buffer
        span after the ramp tail gets planned.  Time alignment matters
        because a slowed mainline vehicle that a pure distance window
        would skip does not clear the merge before the group arrives.
        """
        v_des = self.scoring.desired_speed
        zone = self.geometry.mainline_control_zone_len

        def group_eta(vid: int) -> float:
            idx = snap.index_of(vid)
            return travel_time_estimate(
                -float(snap.positions[idx]),
                float(snap.speeds[idx]),
                self.scoring.limits.acc_max,
                v_des,
            )

        leader_eta = group_eta(ramp_members[0])
        tail_eta = group_eta(ramp_members[-1])
        length = mainline_buffer_length(
            snap.q_mainline,
            snap.q_suggested,
            len(ramp_members),
            self._density_estimate(),
            upper=zone,
        )
        lo = max(leader_eta - PARTNER_MARGIN, 0.0)
        hi = tail_eta + self.scoring.desired_time_headway + length / v_des
        out: list[int] = []
        for idx in snap.orders[Lane.MAINLINE]:
            vid = int(snap.ids[idx])
            pos = float(snap.positions[idx])
            if pos >= 0.0:
                continue
            if pos < -zone:
                break
            if vid in self.ever_controlled:
                if out:
                    break  # never span an active string
                continue
            eta = group_eta(vid)
            if eta < lo:
                continue
            if eta > hi:
                break
            out.append(vid)
        return out

    def _on_trigger(self, k: int, snap: WorldSnapshot) -> int:
        """Run a decision cycle led by rank ``k`` of the ramp queue;
        returns how many ramp vehicles it admitted."""
        ramp_ids = self._collect_ramp_members(k, snap)
        main_ids = self._collect_mainline_members(ramp_ids, snap)
        # enumeration budget: shed upstream ramp vehicles first (they can
        # lead the next cycle), then upstream mainline vehicles; the
        # leader alone always fits, since the cap is at least one
        while count_sequences(len(main_ids), len(ramp_ids)) > self.scoring.cap:
            lane, group = ((Lane.RAMP, ramp_ids) if len(ramp_ids) > 1
                           else (Lane.MAINLINE, main_ids))
            self.events.append(Event(snap.t, EventKind.CAP, self._cycle_count,
                                     {"lane": lane, "vehicle": group.pop()}))

        members = main_ids + ramp_ids
        idx = [snap.index_of(vid) for vid in members]
        floors = gap_floors(snap.speeds[idx], snap.entry_speeds[idx], self.scoring.limits)
        best = optimal_sequence(
            main_ids, ramp_ids, snap.state(members), floors, self.scoring
        )
        seq, result = best.sequence, best.result
        self.sets.append(ControlSet(
            cycle_id=self._cycle_count, ids=seq.ids, problem=best.problem,
            law=self.scoring.law(best.problem),
        ))
        self.ever_controlled.update(seq.ids)

        self.release_time = snap.t + proper_arrival_time(len(ramp_ids), snap.q_suggested)
        self.events.append(Event(snap.t, EventKind.CYCLE, self._cycle_count, {
            "ramp_ids": tuple(ramp_ids), "mainline_ids": tuple(main_ids),
            "sequence_ids": seq.ids, "total_fuel": best.total_fuel,
            "horizon": result.solution.horizon, "degraded": result.degraded,
            "release_time": self.release_time,
        }))
        self._cycle_count += 1
        return len(ramp_ids)

    # -- releases ------------------------------------------------------

    def _retire_and_shrink(self, snap: WorldSnapshot) -> None:
        """Release the members at the front of each string that cleared
        the merge zone or left the network; the rest fly the suffix of
        the string's problem from their current state."""
        end = self.geometry.merge_zone_end
        live = []
        for cset in self.sets:
            gone = 0
            for vid in cset.ids:
                if snap.has(vid) and snap.positions[snap.index_of(vid)] < end:
                    break
                gone += 1
            if gone == len(cset.ids):
                continue  # the last member left: the set is done
            if gone:
                cset.ids = cset.ids[gone:]
                problem = cset.problem
                cset.problem = self.scoring.problem(
                    problem.lanes[gone:], problem.floors[gone:],
                    snap.state(cset.ids),
                )
                cset.law = self.scoring.law(cset.problem)
                cset.repair = None
                cset.repair_k = 0
            live.append(cset)
        self.sets = live

    # -- per-step commands ---------------------------------------------

    def _set_commands(self, snap: WorldSnapshot) -> dict[int, float]:
        commands: dict[int, float] = {}
        limits = self.scoring.limits
        run_lookahead = snap.t - self._last_lookahead >= LOOKAHEAD_CADENCE - 1e-9
        if run_lookahead:
            self._last_lookahead = snap.t
        for cset in self.sets:
            x = snap.state(cset.ids)
            if cset.repair is not None and cset.repair_k >= cset.repair.horizon:
                cset.repair = None
            if cset.repair is None and run_lookahead and len(cset.ids) > 1:
                self._check_prediction(cset, x, snap)
            if cset.repair is not None:
                u = cset.repair.control(cset.repair_k, x)
                cset.repair_k += 1
            else:
                u = cset.law.control(x)
            u = np.clip(u, limits.acc_min, limits.acc_max)
            for i, vid in enumerate(cset.ids):
                commands[vid] = float(u[i])
        return commands

    def _check_prediction(
        self, cset: ControlSet, x: np.ndarray, snap: WorldSnapshot
    ) -> None:
        """Re-plan when the short-range forecast shows a developing breach."""
        if snap.t - cset.last_repair_t < REPAIR_COOLDOWN:
            return
        n = len(cset.ids)
        cross = cross_lane(cset.problem.lanes)

        def breaches(positions: np.ndarray, share: float) -> bool:
            return active_pairs(positions, share * cset.problem.floors, cross,
                                self.scoring.vehicle_length,
                                -self.scoring.activation_margin)[1].any()

        if not breaches(x[:n], SCREEN_GAP_FRACTION):
            return
        forecast = cset.law.forecast(x, LOOKAHEAD_STEPS, self.scoring.limits)
        if breaches(forecast.x[1:, :n], REPAIR_GAP_FRACTION):
            self._repair_set(cset, x, snap)

    def _repair_set(
        self, cset: ControlSet, x: np.ndarray, snap: WorldSnapshot
    ) -> None:
        [result] = self.scoring.solve_batch([replace(cset.problem, x0=x)])
        cset.repair = result.solution
        cset.repair_k = 0
        cset.last_repair_t = snap.t
        self.events.append(Event(snap.t, EventKind.REPLAN, cset.cycle_id, {
            "horizon": result.solution.horizon, "degraded": result.degraded,
        }))
