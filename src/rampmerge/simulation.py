"""Microscopic merge-corridor simulation.

A single mainline lane and a single on-ramp meet at position 0 of the
shared axis.  Vehicles arrive by Poisson processes (per demand phase),
drive by IDM unless a control layer overrides them, and leave the
network downstream of the merge.  Three modes are supported:

* ``OPTIMAL`` runs the decision-cycle coordinator: ramp inflow is paced
  at the suggested rate and merge strings track jointly planned gaps;
* ``METERING`` holds ramp vehicles at a stop bar near the ramp end and
  releases one per green at the suggested rate;
* ``NONE`` leaves everyone on IDM; ramp vehicles hunt for an acceptable
  mainline gap through the merge zone and force their way in after a
  timeout, which is what produces the familiar merge shockwaves.

Whatever the mode asks for, every vehicle then passes one safety layer,
a stopping-distance bound (:func:`safe_next_speed`), at hard braking, and
a commanded vehicle passes it first at comfort braking: it may not outrun
its ability to stop behind its same-lane predecessor, so from a state
inside the bound no plan or car-following model can steer two vehicles
into contact.

The trajectory log quantizes every float to six decimals when it is
read back, so that an exported CSV reproduces the log, and therefore the
metrics, exactly.
"""
from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .coordinator import HARD_BRAKE, EventKind, MergeCoordinator, WorldSnapshot
from .fuel import (
    DEFAULT_COEFFICIENTS,
    METERS_PER_MILE,
    FuelCoefficients,
    economy_mpg,
    fuel_rate,
)
from .idm import IdmParams, idm_accel, idm_table
from .params import Checked, param, parts
from .sequencing import ScoringContext
from .vehicles import ControlLimits, ControlStatus, Lane, MergeGeometry, lane_orders

#: net gap (m) required at a lane entrance before a queued arrival spawns
SPAWN_CLEARANCE = 8.0
#: shortest headway (s) between two arrivals in one lane
ARRIVAL_MIN_HEADWAY = 1.0
#: stop position of an unmerged ramp vehicle, short of the merge zone end
MERGE_STOP_SETBACK = 3.0
#: stop bar position for ramp metering, upstream of the merge point
METERING_BAR = -8.0
#: standing this long without an acceptable gap turns insertion pushy
FORCE_TIMEOUT = 5.0
#: reaction margin a human merger leaves to each neighbor (s)
ACCEPT_TAU = 0.5
#: deceleration a merger is willing to impose on the vehicle behind
ACCEPT_YIELD = 3.0
#: uncontrolled ramp vehicles adopt mainline behavior from here on
ACCEL_LANE_START = -30.0
#: net gap (m) the stopping-distance bound keeps to a stopped predecessor
STOP_MARGIN = 0.5
#: braking rate (m/s^2) and stopped net gap (m) of the bound commanded
#: vehicles pass first, and of a planned merger's stop at the merge bar
COMFORT_BRAKE = 2.0
COMFORT_MARGIN = 2.0


class ControlMode(Enum):
    OPTIMAL = "optimal"
    METERING = "metering"
    NONE = "none"


@dataclass
class DemandPhase(Checked):
    """One stretch of constant demand.  Rates are veh/s."""

    duration: float = param("time", bounds="> 0")
    mainline: float = param("rate", bounds=">= 0")
    ramp: float = param("rate", bounds=">= 0")
    suggested: float = param("rate", bounds="> 0")


@dataclass
class ScenarioConfig(Checked):
    phases: list[DemandPhase]
    mode: ControlMode = ControlMode.OPTIMAL
    seed: int = param("plain", 0, ">= 0")
    dt: float = param("time", 0.1, "> 0")
    geometry: MergeGeometry = field(default_factory=MergeGeometry)
    limits: ControlLimits = field(default_factory=ControlLimits)
    mainline_idm: IdmParams = field(default_factory=IdmParams)
    # ramp drivers queue sportier: quicker launches and later braking
    # make the stop-and-creep cycle burn what it really burns
    ramp_idm: IdmParams = field(
        default_factory=lambda: IdmParams(v0=14.98, T=1.0, a=2.0, b=2.8)
    )
    scoring: ScoringContext = field(default_factory=ScoringContext)
    fuel: FuelCoefficients = DEFAULT_COEFFICIENTS
    vehicle_length: float = param("length", 5.0, "> 0")
    name: str = ""

    def issues(self) -> list[tuple[str, str]]:
        """Every field out of range, by its path (``demand[0].duration``)."""
        out = super().issues()
        if not self.phases:
            out.append(("demand", "needs at least one phase"))
        named = parts(self) + [(f"demand[{i}]", p) for i, p in enumerate(self.phases)]
        for path, part in named:
            out += [(f"{path}.{name}", problem) for name, problem in part.issues()]
        # an unmerged ramp vehicle stops about s0 short of the merge bar,
        # which must still lie downstream of the merge point
        if self.geometry.merge_zone_len < MERGE_STOP_SETBACK + self.ramp_idm.s0:
            out.append(("geometry.merge_zone_len",
                        "too short for a ramp vehicle to stop past the merge point"))
        # the planner would score braking that integration clips away
        if self.limits.acc_min < HARD_BRAKE:
            out.append(("limits.acc_min", f"must be >= {HARD_BRAKE} (hard braking)"))
        return out

    @property
    def total_duration(self) -> float:
        return sum(p.duration for p in self.phases)

    def phase_at(self, t: float) -> DemandPhase:
        edge = 0.0
        for phase in self.phases:
            edge += phase.duration
            if t < edge:
                return phase
        return self.phases[-1]


def generate_arrivals(
    rate: float,
    duration: float,
    rng: np.random.Generator,
    t0: float = 0.0,
) -> np.ndarray:
    """Poisson arrival times with a minimum headway.

    Draws a Poisson count, spreads it uniformly, then pushes each
    arrival just far enough forward to respect ``ARRIVAL_MIN_HEADWAY``
    (arrivals shifted past the end of the interval are dropped).  The
    expected count stays essentially ``rate * duration`` at the rates
    studied.
    """
    if rate < 0.0 or duration <= 0.0:
        raise ValueError("need rate >= 0 and duration > 0")
    count = int(rng.poisson(rate * duration))
    times = np.sort(rng.uniform(0.0, duration, size=count))
    return t0 + _keep_headway(times, duration)


def _keep_headway(times: np.ndarray, end: float) -> np.ndarray:
    """Push each sorted arrival forward to ``ARRIVAL_MIN_HEADWAY`` behind the
    one before it, dropping every arrival that lands at or after ``end``."""
    kept = []
    prev = -math.inf
    for raw in times:
        t = max(float(raw), prev + ARRIVAL_MIN_HEADWAY)
        if t >= end:
            break
        kept.append(t)
        prev = t
    return np.asarray(kept, dtype=float)


class CollisionError(RuntimeError):
    """Two vehicles in one lane overlapped (net gap <= 0)."""

    def __init__(self, t: float, lead_id: int, rear_id: int, gap: float,
                 log: dict[str, np.ndarray] | None = None):
        self.t = t
        self.lead_id = lead_id
        self.rear_id = rear_id
        self.gap = gap
        self.log = log  # partial trajectory history for post-mortems
        super().__init__(
            f"collision at t={t:.1f}s: vehicle {rear_id} overlapped "
            f"vehicle {lead_id} (net gap {gap:.3f} m)"
        )

    def __reduce__(self):
        # rebuild from the constructor's arguments, so the error survives
        # the pickling that carries it out of a worker process
        return type(self), (self.t, self.lead_id, self.rear_id, self.gap, self.log)


class TrajectoryLog:
    """Per-step, per-vehicle rows, read back with every float quantized
    to six decimals."""

    #: each column's name and dtype, in export order
    FIELDS = {
        "t": float, "id": np.int64, "lane": np.int64, "position": float,
        "speed": float, "accel": float, "status": np.int64, "fuel_rate": float,
    }

    #: the columns a step stores together, in one block per dtype
    BLOCKS = (("id", "lane", "status"), ("position", "speed", "accel", "fuel_rate"))

    def __init__(self) -> None:
        self._steps: list[tuple[float, np.ndarray, np.ndarray]] = []

    def append_step(self, t, ids, lanes, pos, speed, accel, status, fuel) -> None:
        # copies: the caller may write to its arrays in place later
        self._steps.append((t, np.array((ids, lanes, status), dtype=np.int64),
                            np.array((pos, speed, accel, fuel), dtype=float)))

    def arrays(self) -> dict[str, np.ndarray]:
        if not self._steps:
            return {name: np.empty(0, dtype=dtype) for name, dtype in self.FIELDS.items()}
        times, *blocks = zip(*self._steps)
        rows = [len(ints[0]) for ints in blocks[0]]
        columns = {"t": np.repeat(np.array(times, dtype=float), rows)}
        for names, block in zip(self.BLOCKS, blocks):
            columns.update(zip(names, np.concatenate(block, axis=1)))
        out = {name: columns[name] for name in self.FIELDS}
        # rounding is element by element: once per run equals once per step
        for name, dtype in self.FIELDS.items():
            if dtype is float:
                np.round(out[name], 6, out=out[name])
        return out


@dataclass
class GroupMetrics:
    n_vehicles: int
    vmt_miles: float
    vht_hours: float
    q_mph: float
    fuel_ml: float
    economy_mpg: float


@dataclass
class RunMetrics:
    overall: GroupMetrics
    mainline: GroupMetrics
    ramp: GroupMetrics


def _per_vehicle(log: dict[str, np.ndarray], *names: str):
    """The named columns sorted by vehicle id, each vehicle's rows kept in
    time order, and the bounds of every vehicle's run of rows."""
    order = np.argsort(log["id"], kind="stable")  # stable keeps time order per id
    _, starts = np.unique(log["id"][order], return_index=True)
    return np.append(starts, len(order)), [log[name][order] for name in names]


def compute_metrics(log: dict[str, np.ndarray], dt: float) -> RunMetrics:
    """Traffic metrics from a trajectory log.

    A vehicle's origin is the lane of its first logged row, so metrics
    rebuilt from an exported log match the live run exactly.
    """
    if len(log["id"]) == 0:
        empty = GroupMetrics(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return RunMetrics(overall=empty, mainline=empty, ramp=empty)
    bounds, (pos, lane, fuel) = _per_vehicle(log, "position", "lane", "fuel_rate")
    starts = bounds[:-1]
    first_pos = pos[starts]
    last_pos = pos[bounds[1:] - 1]
    origin = lane[starts]
    rows_per_id = np.diff(bounds)
    fuel_per_id = np.add.reduceat(fuel * dt, starts)

    def group(mask: np.ndarray) -> GroupMetrics:
        first = first_pos[mask]
        distance = float(np.sum(last_pos[mask] - first))
        fuel_ml = float(np.sum(fuel_per_id[mask]))
        vmt = distance / METERS_PER_MILE
        vht = int(np.sum(rows_per_id[mask])) * dt / 3600.0
        q = vmt / vht if vht > 0.0 else 0.0
        return GroupMetrics(
            n_vehicles=len(first),
            vmt_miles=vmt,
            vht_hours=vht,
            q_mph=q,
            fuel_ml=fuel_ml,
            economy_mpg=economy_mpg(distance, fuel_ml),
        )

    all_mask = np.ones(len(starts), dtype=bool)
    return RunMetrics(
        overall=group(all_mask),
        mainline=group(origin == Lane.MAINLINE.code),
        ramp=group(origin == Lane.RAMP.code),
    )


def ramp_crossing_times(log: dict[str, np.ndarray], trigger_point: float) -> np.ndarray:
    """First time each ramp-origin vehicle reached the trigger line."""
    if len(log["id"]) == 0:
        return np.empty(0)
    bounds, (pos, lane, t) = _per_vehicle(log, "position", "lane", "t")
    out = []
    for s, e in zip(bounds[:-1], bounds[1:]):
        if lane[s] != Lane.RAMP.code:
            continue
        past = np.nonzero(pos[s:e] >= trigger_point)[0]
        if len(past):
            out.append(t[s + past[0]])
    return np.sort(np.asarray(out))


@dataclass
class SimCounters:
    arrived: int = 0
    spawned: int = 0
    exited: int = 0
    coordinator_commands: int = 0
    #: vehicle-steps whose acceleration the stopping-distance bound lowered,
    #: per pass: comfort braking on commanded vehicles, hard braking on all
    envelope_interventions: int = 0
    forced_merges: int = 0
    meter_releases: int = 0
    degraded_plans: int = 0
    #: vehicle-steps of mainline set members standing (below 0.1 m/s)
    #: with their lane clear ahead for a stop from the desired speed
    stalls: int = 0
    #: vehicles that crossed the merge zone's end still in the ramp lane
    ramp_overruns: int = 0


@dataclass
class RunResult:
    config: ScenarioConfig
    metrics: RunMetrics
    log: dict[str, np.ndarray]
    counters: SimCounters
    final_vehicle_count: int
    coordinator: MergeCoordinator | None = None
    #: host seconds spent in each step phase, summed over the run
    profile: dict[str, float] = field(default_factory=dict)


class _World:
    """Structure-of-arrays vehicle population."""

    #: one array per field: its dtype and the value a new vehicle starts with
    #: (``None`` for the values :meth:`add` takes)
    FIELDS = {
        "ids": (np.int64, None),
        "lane": (np.int64, None),
        "origin": (np.int64, None),
        "pos": (float, None),
        "v": (float, None),
        "entry": (float, np.nan),
        "stand": (float, 0.0),
        "released": (bool, False),
    }

    def __init__(self) -> None:
        for name, (dtype, _) in self.FIELDS.items():
            setattr(self, name, np.empty(0, dtype=dtype))

    def __len__(self) -> int:
        return len(self.ids)

    def add(self, vid: int, lane_code: int, pos: float, speed: float) -> None:
        given = {"ids": vid, "lane": lane_code, "origin": lane_code, "pos": pos, "v": speed}
        for name, (_, start) in self.FIELDS.items():
            setattr(self, name, np.append(getattr(self, name), given.get(name, start)))

    def remove(self, mask: np.ndarray) -> None:
        keep = ~mask
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name)[keep])


def _safe_entry_speed(v_pred: float, net_gap: float, params: IdmParams) -> float:
    """Fastest spawn speed from which comfortable braking matches the
    predecessor within the available gap."""
    usable = max(net_gap - params.s0, 0.0)
    return math.sqrt(max(v_pred, 0.0) ** 2 + 2.0 * params.b * usable)


def _chain_neighbors(chain: list[int], key: list[float], x: float):
    """A lane chain's nearest vehicles at or ahead of ``x`` and behind it
    (-1 for none, the lowest index among equal positions), and the rank
    at which a vehicle at ``x`` joins the chain; ``key`` holds the chain's
    negated positions."""
    k = bisect.bisect_right(key, -x)  # vehicles at or ahead of x
    lead = min(chain[bisect.bisect_left(key, key[k - 1]):k]) if k else -1
    lag = min(chain[k:bisect.bisect_right(key, key[k])]) if k < len(chain) else -1
    return lead, lag, k


def stopping_distance(v, dt: float, brake: float):
    """Distance a vehicle covers braking at ``brake`` (m/s^2) from speed
    ``v`` to a stop, under the simulator's update (speeds clipped at zero,
    positions advanced by the trapezoid of successive speeds).

    With ``u = brake dt`` and ``v = j u + r`` (``0 <= r < u``) the speed
    falls by ``u`` for ``j`` steps and by ``r`` in the last one, so the
    distance is ``dt (u j^2 / 2 + r (j + 1/2))``.
    """
    u = brake * dt
    j = np.floor(np.divide(v, u))
    r = v - j * u
    return dt * (0.5 * u * j * j + r * (j + 0.5))


def safe_next_speed(net_gap, v, v_lead, dt: float, brake: float, margin: float):
    """Fastest speed a follower may reach this step and still stop behind
    its predecessor (Gipps 1981; RSS, Shalev-Shwartz et al. 2017).

    The predecessor is assumed to brake at ``brake`` (m/s^2) from now on,
    the follower to drive this step at its chosen acceleration and brake
    at ``brake`` from the next, and both to stop ``margin`` apart.  Both
    stopping distances use the simulator's own update, so a follower
    inside the bound can always meet it again on the next step by braking
    at ``brake``.  The result is negative when even a stop this step
    cannot keep the margin.
    """
    u = brake * dt
    # z dt is the room for the stop from the next speed w plus w's half
    # of this step's trapezoid (the current speed's half is taken out).
    # For w = j u + r that distance is dt (u j (j + 1) / 2 + r (j + 1)),
    # piecewise linear in w with knots where z / u is a triangular
    # number, so j comes from the triangular root of z / u
    z = (net_gap - margin + stopping_distance(v_lead, dt, brake)) / dt - 0.5 * v
    j = np.floor(0.5 * np.sqrt(np.maximum(8.0 / u * z + 1.0, 1.0)) - 0.5)
    return 0.5 * u * j + z / (j + 1.0)


def stopping_bound(acc, net_gap, v, v_lead, dt: float, brake: float, margin: float):
    """Cap followers' accelerations at the stopping-distance bound.

    Returns the capped accelerations and how many the bound lowered.
    """
    # cheap screen first: the bound cannot bind where the requested next
    # speed w fits with room to spare under outer estimates of both
    # stopping distances, v^2 / 2b <= D(v) <= v^2 / 2b + b dt^2 / 8
    w = v + acc * dt
    need = 0.5 * (v + w) * dt + (w * w - v_lead * v_lead) / (2.0 * brake)
    if (net_gap >= need + (margin + brake * dt * dt / 8.0)).all():
        return acc, 0
    bound = (safe_next_speed(net_gap, v, v_lead, dt, brake, margin) - v) / dt
    tight = bound < acc
    return np.where(tight, bound, acc), int(np.count_nonzero(tight))


def _can_stop(net_gap: float, v: float, v_lead: float, dt: float) -> bool:
    """True if a follower in this state can meet the hard-braking bound."""
    next_speed = safe_next_speed(net_gap, v, v_lead, dt, -HARD_BRAKE, STOP_MARGIN)
    return bool(next_speed >= max(v + HARD_BRAKE * dt, 0.0))


def _bar_hold(v: float, distance: float, params: IdmParams) -> float:
    """IDM braking toward a stop line ``distance`` ahead."""
    return idm_accel(v, max(distance, 1e-3), v, params)


def _forced_gap(closing: float) -> float:
    # smallest gap the pushed party can honor with hard braking
    rel = max(closing, 0.0)
    return max(1.0, 0.3 * rel + rel * rel / (2.0 * abs(HARD_BRAKE))) + 1.0


@dataclass
class _Entrance:
    """One lane's arrival queue and the point where its vehicles spawn."""

    times: np.ndarray
    pos: float
    params: IdmParams
    next: int = 0  # the first arrival still waiting off-network


#: the step's timed phases in order, each the ``_Run`` method of its name;
#: the spawn before them counts toward the first
STEP_PHASES = ("car_following", "mode_layer", "stopping_bound", "integrate_and_log",
               "lane_transfers", "collision_audit")


class _Run:
    """One run's state; :meth:`step` spawns, then advances it one time
    step phase by phase, and sums each phase's host time in ``spent_ns``.
    Per-vehicle facts that car-following and the mode layer work out stay
    on the run for the later phases of the same step."""

    def __init__(self, config: ScenarioConfig) -> None:
        config.validate()
        self.config = config
        geo = config.geometry
        rng = np.random.default_rng(config.seed)

        # arrival schedules: per-phase draws, then one pass to keep the
        # minimum headway across phase boundaries too
        def lane_arrivals(rate_of) -> np.ndarray:
            pieces = []
            t0 = 0.0
            for phase in config.phases:
                pieces.append(generate_arrivals(rate_of(phase), phase.duration, rng, t0=t0))
                t0 += phase.duration
            merged = np.concatenate(pieces) if pieces else np.empty(0)
            return _keep_headway(merged, config.total_duration)

        # indexed by lane code
        self.entrances = (
            _Entrance(lane_arrivals(lambda p: p.mainline), -geo.upstream_extent,
                      config.mainline_idm),
            _Entrance(lane_arrivals(lambda p: p.ramp), -geo.ramp_length, config.ramp_idm),
        )
        self.world = _World()
        self.log = TrajectoryLog()
        self.counters = SimCounters(arrived=sum(len(e.times) for e in self.entrances))
        self.coordinator = None
        if config.mode is ControlMode.OPTIMAL:
            # read at run start: the config is mutable, and the planner must
            # share the world's step, limits, length and fuel
            scoring = replace(config.scoring, dt=config.dt, limits=config.limits,
                              vehicle_length=config.vehicle_length, fuel=config.fuel)
            self.coordinator = MergeCoordinator(geo, scoring, config.ramp_idm)
        self.meter_next_green = 0.0
        # under coordination the advisory rate is broadcast upstream, so
        # excess ramp demand waits off-network at the entrance instead of
        # stacking up inside the corridor
        self.ramp_entry_release = -math.inf
        self.merge_bar = geo.merge_zone_end - MERGE_STOP_SETBACK
        self.stall_room = stopping_distance(config.scoring.desired_speed, config.dt, -HARD_BRAKE)
        # column 0 the mainline IDM, column 1 the ramp IDM
        self.idm_sets = idm_table(config.mainline_idm, config.ramp_idm)
        self.spent_ns = dict.fromkeys(STEP_PHASES, 0)
        self.phase_methods = [(name, getattr(self, "_" + name)) for name in STEP_PHASES]

    def step(self, t: float) -> None:
        self.t = t
        self.phase = self.config.phase_at(t)
        clock, spent = time.perf_counter_ns, self.spent_ns
        last = clock()
        self._spawn()
        if len(self.world) == 0:
            return
        for name, method in self.phase_methods:
            method()
            now = clock()
            spent[name] += now - last
            last = now

    def _spawn(self) -> None:
        # a new vehicle blocks its own entrance: one spawn per lane and step
        world, t = self.world, self.t
        for code, gate in enumerate(self.entrances):
            if gate.next >= len(gate.times) or gate.times[gate.next] > t:
                continue
            paced = self.coordinator is not None and code == Lane.RAMP.code
            if paced and t < self.ramp_entry_release:
                continue  # advisory pacing: demand above it queues off-network
            chain = np.nonzero(world.lane == code)[0]
            v_spawn = gate.params.v0
            if len(chain):
                rear = chain[np.argmin(world.pos[chain])]
                net = world.pos[rear] - gate.pos - self.config.vehicle_length
                if net < SPAWN_CLEARANCE:
                    continue  # entrance blocked; arrival waits off-network
                v_spawn = min(
                    gate.params.v0,
                    _safe_entry_speed(float(world.v[rear]), net, gate.params),
                )
            world.add(self.counters.spawned, code, gate.pos, v_spawn)  # id: spawn count
            self.counters.spawned += 1
            gate.next += 1
            if paced:
                self.ramp_entry_release = t + 1.0 / self.phase.suggested

    def _car_following(self) -> None:
        """Ramp vehicles' buffer-entry speeds; each vehicle's same-lane
        predecessor, net gap and closing speed from one pass over the
        lanes' order, then its IDM acceleration."""
        world, n = self.world, len(self.world)
        # lanes change only in the transfer phase, so this holds until then
        self.on_ramp = world.lane == Lane.RAMP.code
        crossed = (
            self.on_ramp
            & np.isnan(world.entry)
            & (world.pos >= self.config.geometry.ramp_buffer_start)
        )
        world.entry[crossed] = world.v[crossed]
        self.chains = lane_orders(world.lane, world.pos)
        order = np.concatenate(tuple(self.chains.values()))
        rear, front = order[1:], order[:-1]
        same = world.lane[rear] == world.lane[front]  # not across the lane boundary
        rear, front = rear[same], front[same]
        self.pred_of = np.full(n, -1)
        self.pred_of[rear] = front
        self.gap = np.full(n, np.inf)
        self.gap[rear] = world.pos[front] - world.pos[rear] - self.config.vehicle_length
        closing = np.zeros(n)
        closing[rear] = world.v[rear] - world.v[front]
        # the ramp IDM, except in the acceleration lane: an uncontrolled
        # ramp vehicle close to the merge drives to mainline norms while
        # hunting for a slot
        ramp_idm = self.on_ramp & (world.pos < ACCEL_LANE_START)
        self.acc = idm_accel(world.v, np.maximum(self.gap, 1e-3), closing,
                             self.idm_sets.take(ramp_idm.view(np.int8), axis=1))

    def _mode_layer(self) -> None:
        """Coordinator commands, or the metering hold, then the holds at the
        merge bar; writes each vehicle's control status code."""
        world, t = self.world, self.t
        self.status = np.zeros(len(world), dtype=np.int64)
        if self.coordinator is not None:
            snap = WorldSnapshot(
                t=t,
                q_mainline=self.phase.mainline,
                q_suggested=self.phase.suggested,
                ids=world.ids,
                lanes=world.lane,
                positions=world.pos,
                speeds=world.v,
                entry_speeds=world.entry,
                orders=self.chains,
            )
            commands = self.coordinator.step(snap)
            self.counters.coordinator_commands += len(commands)
            leader = self.coordinator.regulated_leader
            for vid, u in commands.items():
                i = snap.index_of(vid)
                self.status[i] = (ControlStatus.RAMP_LEADER_REGULATED if vid == leader
                                  else ControlStatus.OPTIMAL_CONTROLLED).code
                self.acc[i] = u
        elif self.config.mode is ControlMode.METERING:
            # hold the first unreleased vehicle at the stop bar
            for j in self.chains[Lane.RAMP]:
                if world.pos[j] >= METERING_BAR:
                    continue
                if not world.released[j]:
                    gap = METERING_BAR - world.pos[j]
                    standing = gap <= 12.0 and world.v[j] <= 0.5
                    if standing and t >= self.meter_next_green:
                        world.released[j] = True
                        self.counters.meter_releases += 1
                        self.meter_next_green = t + 1.0 / self.phase.suggested
                    else:
                        hold = _bar_hold(world.v[j], gap, self.config.ramp_idm)
                        self.acc[j] = min(self.acc[j], hold)
                    break
        # unmerged ramp vehicles must not run off the lane end
        bar = self.merge_bar
        for j in self.chains[Lane.RAMP]:
            if world.pos[j] >= bar:
                continue  # past the stop point; the transfer logic owns it
            if self.config.mode is ControlMode.METERING and not world.released[j]:
                break  # still held upstream at the metering bar
            v, distance = world.v[j], bar - world.pos[j]
            if self.status[j] == ControlStatus.UNCONTROLLED.code:
                self.acc[j] = min(self.acc[j], _bar_hold(v, distance, self.config.ramp_idm))
            elif world.pos[j] > bar - 25.0:
                # a planned merge deferred this long is an anomaly: stop at the
                # bar as behind a stopped vehicle, not override the plan early
                stop = safe_next_speed(distance, v, 0.0, self.config.dt,
                                       COMFORT_BRAKE, COMFORT_MARGIN)
                self.acc[j] = min(self.acc[j], (stop - v) / self.config.dt)
            break

    def _stopping_bound(self) -> None:
        # whatever the layers above asked for, no vehicle may outrun its
        # ability to stop behind its predecessor: a commanded one at
        # comfort braking, then every one at hard braking
        v, led = self.world.v, self.pred_of >= 0
        commanded = self.status != ControlStatus.UNCONTROLLED.code
        for rows, brake, margin in ((led & commanded, COMFORT_BRAKE, COMFORT_MARGIN),
                                    (led, -HARD_BRAKE, STOP_MARGIN)):
            rows = np.nonzero(rows)[0]
            if len(rows) == 0:
                continue
            self.acc[rows], hits = stopping_bound(
                self.acc[rows], self.gap[rows], v[rows], v[self.pred_of[rows]],
                self.config.dt, brake, margin,
            )
            self.counters.envelope_interventions += hits
        if self.coordinator is not None:
            stalled = ((self.status == ControlStatus.OPTIMAL_CONTROLLED.code)
                       & (self.gap >= self.stall_room))
            self.counters.stalls += int(np.count_nonzero(
                stalled & (self.world.lane == Lane.MAINLINE.code) & (v < 0.1)))

    def _integrate_and_log(self) -> None:
        world, dt, limits = self.world, self.config.dt, self.config.limits
        # clips as the maximum-then-minimum pair, which picks the same values
        acc = np.minimum(np.maximum(self.acc, HARD_BRAKE), limits.acc_max)
        v_next = np.minimum(np.maximum(world.v + acc * dt, 0.0), limits.v_max)
        a_real = (v_next - world.v) / dt
        fuel = fuel_rate(world.v, a_real, self.config.fuel)
        # a ramp vehicle on the mainline (none leaves the mainline), uncommanded
        merged = (world.origin != world.lane) & (self.status == 0)
        status = np.where(merged, ControlStatus.MERGED.code, self.status)
        self.log.append_step(
            self.t, world.ids, world.lane, world.pos, world.v, a_real, status, fuel
        )
        pos_next = world.pos + 0.5 * (world.v + v_next) * dt
        end = self.config.geometry.merge_zone_end
        self.counters.ramp_overruns += int(np.count_nonzero(
            self.on_ramp & (world.pos < end) & (pos_next >= end)))
        world.pos, world.v = pos_next, v_next

    def _lane_transfers(self) -> None:
        world, dt, L = self.world, self.config.dt, self.config.vehicle_length
        # standing timers for pushy insertion
        waiting = (
            self.on_ramp
            & (world.pos > self.config.geometry.merge_zone_end - 40.0)
            & (world.v < 0.5)
        )
        world.stand[waiting] += dt
        world.stand[~waiting] = 0.0

        # a swap since car-following is a collision the audit reports
        ramp = self.chains[Lane.RAMP]
        movers = ramp[world.pos[ramp] >= 0.0]
        if len(movers) == 0:
            return
        chain = self.chains[Lane.MAINLINE].tolist()
        key = (-world.pos[chain]).tolist()
        for j in movers:
            lead, lag, rank = _chain_neighbors(chain, key, world.pos[j])
            front = world.pos[lead] - world.pos[j] - L if lead >= 0 else math.inf
            rear = world.pos[j] - world.pos[lag] - L if lag >= 0 else math.inf
            v_j = world.v[j]
            closing_front = v_j - world.v[lead] if lead >= 0 else 0.0
            closing_rear = world.v[lag] - v_j if lag >= 0 else 0.0
            if self.status[j] == ControlStatus.OPTIMAL_CONTROLLED.code:
                # planned merge, but never into an unsurvivable slot, nor
                # one where the merger or its new follower starts outside
                # the stopping bound; an unsafe slot defers the lane change
                # along the acceleration lane
                merge = (
                    front >= _forced_gap(closing_front) and rear >= _forced_gap(closing_rear)
                    and (lead < 0 or _can_stop(front, v_j, world.v[lead], dt))
                    and (lag < 0 or _can_stop(rear, world.v[lag], v_j, dt))
                )
            else:
                merge = front > 0.5 and rear > 0.5 and (
                    lead < 0 or front >= v_j * ACCEPT_TAU
                    + max(closing_front, 0.0) ** 2 / (2.0 * ACCEPT_YIELD)
                ) and (
                    lag < 0 or rear >= world.v[lag] * ACCEPT_TAU
                    + max(closing_rear, 0.0) ** 2 / (2.0 * ACCEPT_YIELD)
                )
                # a mover that stood FORCE_TIMEOUT takes any survivable slot
                if (not merge and world.stand[j] >= FORCE_TIMEOUT
                        and front >= _forced_gap(closing_front)
                        and rear >= _forced_gap(closing_rear)):
                    merge, world.stand[j] = True, 0.0
                    self.counters.forced_merges += 1
            if merge:  # in place, so later movers of this step see it
                world.lane[j] = Lane.MAINLINE.code
                chain.insert(rank, int(j))
                key.insert(rank, -world.pos[j])
        # new arrays: the coordinator's snapshot holds the old ones
        self.chains = {Lane.MAINLINE: np.array(chain, dtype=np.int64),
                       Lane.RAMP: ramp[world.lane[ramp] == Lane.RAMP.code]}

    def _collision_audit(self) -> None:
        world, L = self.world, self.config.vehicle_length
        # consecutive gaps along the step's chains: any same-lane swap
        # this step shows as a non-positive gap
        for order in self.chains.values():
            pos = world.pos[order]
            gaps = pos[:-1] - pos[1:] - L
            if (gaps <= 0.0).any():
                b = int(np.argmax(gaps <= 0.0))  # the first overlap downstream
                raise CollisionError(self.t, int(world.ids[order[b]]), int(world.ids[order[b + 1]]),
                                     float(gaps[b]), log=self.log.arrays())
        gone = world.pos > self.config.geometry.downstream_extent
        if gone.any():
            self.counters.exited += int(np.count_nonzero(gone))
            world.remove(gone)


def run_scenario(config: ScenarioConfig) -> RunResult:
    run = _Run(config)
    for k in range(int(round(config.total_duration / config.dt))):
        run.step(k * config.dt)
    if run.coordinator is not None:
        run.counters.degraded_plans = sum(
            e.kind is EventKind.CYCLE and e.data["degraded"] for e in run.coordinator.events)
    arrays = run.log.arrays()
    return RunResult(
        config=config,
        metrics=compute_metrics(arrays, config.dt),
        log=arrays,
        counters=run.counters,
        final_vehicle_count=len(run.world),
        coordinator=run.coordinator,
        profile={name: ns / 1e9 for name, ns in run.spent_ns.items()},
    )

