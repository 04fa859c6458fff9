"""Traffic simulation: arrivals, mechanics, logging, metrics, modes."""
import concurrent.futures
import math
import pickle
import types
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import car_following_by_lane, insertion_neighbors_by_scan
from rampmerge.cli import load_config
from rampmerge.coordinator import HARD_BRAKE, EventKind
from rampmerge.fuel import METERS_PER_MILE, ML_PER_GALLON, fuel_rate
from rampmerge.idm import IdmParams
from rampmerge.simulation import (
    ACCEL_LANE_START,
    ARRIVAL_MIN_HEADWAY,
    COMFORT_BRAKE,
    COMFORT_MARGIN,
    CollisionError,
    ControlMode,
    DemandPhase,
    STEP_PHASES,
    STOP_MARGIN,
    ScenarioConfig,
    TrajectoryLog,
    _Run,
    _World,
    _can_stop,
    _chain_neighbors,
    _forced_gap,
    compute_metrics,
    generate_arrivals,
    ramp_crossing_times,
    run_scenario,
    safe_next_speed,
    stopping_bound,
    stopping_distance,
)
from rampmerge.vehicles import ControlLimits, ControlStatus, Lane, lane_orders

#: the stopping bound's (braking rate, margin) pairs: every vehicle's,
#: and the one commanded vehicles pass first
BOUNDS = ((-HARD_BRAKE, STOP_MARGIN), (COMFORT_BRAKE, COMFORT_MARGIN))
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SMOKE = CONFIGS / "smoke.yaml"


def small_config(duration=120.0, mainline=900.0, ramp=200.0, q_sug=600.0,
                 mode=ControlMode.NONE, seed=7) -> ScenarioConfig:
    return ScenarioConfig(
        phases=[DemandPhase(duration, mainline / 3600.0, ramp / 3600.0,
                            q_sug / 3600.0)],
        mode=mode,
        seed=seed,
    )


class TestArrivals:
    def test_counts_track_rate(self):
        rng = np.random.default_rng(0)
        expected = 0.5 * 1200.0
        for _ in range(5):
            times = generate_arrivals(0.5, 1200.0, rng)
            assert abs(len(times) - expected) <= 3.0 * math.sqrt(expected)

    def test_min_headway_enforced(self):
        rng = np.random.default_rng(1)
        times = generate_arrivals(2.0, 300.0, rng)
        assert np.all(np.diff(times) >= ARRIVAL_MIN_HEADWAY - 1e-12)

    def test_deterministic_per_seed(self):
        a = generate_arrivals(0.4, 600.0, np.random.default_rng(42))
        b = generate_arrivals(0.4, 600.0, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_offset_applied(self):
        times = generate_arrivals(0.3, 100.0, np.random.default_rng(3), t0=500.0)
        assert np.all(times >= 500.0)
        assert np.all(times < 600.0)

    def test_zero_rate_empty(self):
        times = generate_arrivals(0.0, 100.0, np.random.default_rng(4))
        assert len(times) == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_arrivals(-0.1, 100.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            generate_arrivals(0.5, 0.0, np.random.default_rng(0))


class TestConfig:
    def test_phase_lookup(self):
        cfg = ScenarioConfig(phases=[
            DemandPhase(600.0, 0.4, 0.1, 0.1),
            DemandPhase(600.0, 0.3, 0.05, 0.2),
        ])
        assert cfg.total_duration == 1200.0
        assert cfg.phase_at(0.0).mainline == 0.4
        assert cfg.phase_at(599.9).mainline == 0.4
        assert cfg.phase_at(600.0).mainline == 0.3
        assert cfg.phase_at(5000.0).mainline == 0.3

    def test_validate_rejects_bad_phases(self):
        with pytest.raises(ValueError):
            ScenarioConfig(phases=[]).validate()
        with pytest.raises(ValueError):
            ScenarioConfig(phases=[DemandPhase(0.0, 0.1, 0.1, 0.1)]).validate()
        with pytest.raises(ValueError):
            ScenarioConfig(phases=[DemandPhase(10.0, -0.1, 0.1, 0.1)]).validate()
        with pytest.raises(ValueError):
            ScenarioConfig(phases=[DemandPhase(10.0, 0.1, 0.1, 0.0)]).validate()

    def test_scoring_synced_to_run_settings(self):
        cfg = small_config(mode=ControlMode.OPTIMAL)
        scoring = _Run(cfg).coordinator.scoring
        assert scoring.dt == cfg.dt
        assert scoring.limits is cfg.limits
        assert scoring.vehicle_length == cfg.vehicle_length
        assert scoring.fuel is cfg.fuel

    def test_scoring_follows_settings_changed_after_construction(self):
        # the config is mutable: the planner reads the settings the run has
        cfg = small_config(duration=20.0, mode=ControlMode.OPTIMAL)
        cfg.dt = 0.2
        cfg.vehicle_length = 4.0
        cfg.limits = ControlLimits(v_max=33.0)
        scoring = run_scenario(cfg).coordinator.scoring
        assert (scoring.dt, scoring.vehicle_length) == (0.2, 4.0)
        assert scoring.limits is cfg.limits


class TestLogAndMetrics:
    def test_quantized_at_append(self):
        log = TrajectoryLog()
        log.append_step(0.1, [3], [0], np.array([1.23456789]),
                        np.array([2.000000049]), np.array([-0.1]),
                        [2], np.array([0.5]))
        arr = log.arrays()
        assert arr["position"][0] == 1.234568
        assert arr["speed"][0] == 2.0

    def test_append_copies_its_inputs(self):
        columns = [np.array([3]), np.array([0]), np.array([1.5]), np.array([2.0]),
                   np.array([-0.1]), np.array([2]), np.array([0.5])]
        log = TrajectoryLog()
        log.append_step(0.1, *columns)
        before = log.arrays()
        for column in columns:
            column += 1  # the caller writes to its arrays in place
        after = log.arrays()
        for name, values in before.items():
            assert np.array_equal(after[name], values), name

    def test_empty_log(self):
        metrics = compute_metrics(TrajectoryLog().arrays(), 0.1)
        assert metrics.overall.vmt_miles == 0.0
        assert metrics.overall.q_mph == 0.0

    def test_hand_computed_two_vehicles(self):
        # one mainline vehicle at 30 m/s, one ramp vehicle at 10 m/s,
        # 100 steps of 0.1 s each, constant speed so accel = 0
        log = TrajectoryLog()
        dt = 0.1
        for k in range(100):
            t = k * dt
            log.append_step(
                t,
                [1, 2],
                [Lane.MAINLINE.code, Lane.RAMP.code],
                np.array([30.0 * t, 10.0 * t]),
                np.array([30.0, 10.0]),
                np.zeros(2),
                [0, 0],
                np.array([fuel_rate(30.0, 0.0), fuel_rate(10.0, 0.0)]),
            )
        m = compute_metrics(log.arrays(), dt)
        # last positions are at k=99, so distance covers 99 steps
        vmt_main = 30.0 * 9.9 / METERS_PER_MILE
        vmt_ramp = 10.0 * 9.9 / METERS_PER_MILE
        assert abs(m.mainline.vmt_miles - vmt_main) < 1e-9
        assert abs(m.ramp.vmt_miles - vmt_ramp) < 1e-9
        assert abs(m.overall.vht_hours - 200 * dt / 3600.0) < 1e-12
        fuel_ml = 100 * dt * (fuel_rate(30.0, 0.0) + fuel_rate(10.0, 0.0))
        assert abs(m.overall.fuel_ml - fuel_ml) < 1e-6
        expect_q = (vmt_main + vmt_ramp) / (200 * dt / 3600.0)
        assert abs(m.overall.q_mph - expect_q) < 1e-9
        expect_mpg = (vmt_main + vmt_ramp) / (fuel_ml / ML_PER_GALLON)
        assert abs(m.overall.economy_mpg - expect_mpg) < 1e-6

    def test_origin_is_first_logged_lane(self):
        log = TrajectoryLog()
        log.append_step(0.0, [5], [Lane.RAMP.code], np.array([-10.0]),
                        np.array([10.0]), np.zeros(1), [0], np.zeros(1))
        log.append_step(0.1, [5], [Lane.MAINLINE.code], np.array([-9.0]),
                        np.array([10.0]), np.zeros(1), [3], np.zeros(1))
        m = compute_metrics(log.arrays(), 0.1)
        assert m.ramp.n_vehicles == 1
        assert m.mainline.n_vehicles == 0


class TestFreeFlow:
    def test_zero_ramp_near_desired_speed(self):
        cfg = small_config(duration=240.0, mainline=400.0, ramp=0.0)
        res = run_scenario(cfg)
        # mainline-only light traffic cruises close to its desired speed
        desired_mph = cfg.mainline_idm.v0 * 3600.0 / METERS_PER_MILE
        assert res.metrics.overall.q_mph > 0.95 * desired_mph
        assert res.metrics.overall.q_mph < 1.02 * desired_mph
        assert res.metrics.ramp.n_vehicles == 0
        # and burns like a steady cruise at its average speed
        mean_v = res.metrics.overall.q_mph * METERS_PER_MILE / 3600.0
        cruise_mpg = (mean_v / METERS_PER_MILE) / (
            fuel_rate(mean_v, 0.0) / ML_PER_GALLON
        )
        assert abs(res.metrics.overall.economy_mpg - cruise_mpg) < 0.05 * cruise_mpg

    def test_zero_ramp_modes_agree_exactly(self):
        logs = []
        for mode in (ControlMode.NONE, ControlMode.OPTIMAL):
            cfg = small_config(duration=180.0, mainline=800.0, ramp=0.0,
                               mode=mode, seed=11)
            res = run_scenario(cfg)
            logs.append(res.log)
            if mode is ControlMode.OPTIMAL:
                assert res.counters.coordinator_commands == 0
        for key in logs[0]:
            assert np.array_equal(logs[0][key], logs[1][key])


class TestDeterminismAndConservation:
    def test_same_seed_identical_log(self):
        runs = [run_scenario(small_config(mode=ControlMode.OPTIMAL, seed=5))
                for _ in range(2)]
        for key in runs[0].log:
            assert np.array_equal(runs[0].log[key], runs[1].log[key])

    def test_different_seed_differs(self):
        a = run_scenario(small_config(seed=5))
        b = run_scenario(small_config(seed=6))
        assert len(a.log["t"]) != len(b.log["t"]) or not np.array_equal(
            a.log["position"], b.log["position"]
        )

    def test_vehicle_conservation(self):
        res = run_scenario(small_config(duration=200.0, seed=9))
        assert res.counters.spawned == res.counters.exited + res.final_vehicle_count
        assert res.counters.spawned <= res.counters.arrived
        logged_ids = set(np.unique(res.log["id"]).tolist())
        assert len(logged_ids) == res.counters.spawned


class TestModes:
    def test_metering_releases_and_merges(self):
        cfg = small_config(duration=300.0, mainline=700.0, ramp=300.0,
                           q_sug=400.0, mode=ControlMode.METERING)
        res = run_scenario(cfg)
        assert res.counters.meter_releases > 0
        assert np.any(res.log["status"] == 3)  # merged vehicles exist
        assert res.counters.ramp_overruns == 0
        # released rate is bounded by the suggestion
        assert res.counters.meter_releases <= 400.0 / 3600.0 * 300.0 + 2

    def test_none_mode_merges_without_coordinator(self):
        cfg = small_config(duration=300.0, mainline=700.0, ramp=300.0)
        res = run_scenario(cfg)
        assert res.coordinator is None
        assert res.counters.coordinator_commands == 0
        assert np.any(res.log["status"] == 3)
        assert res.counters.ramp_overruns == 0

    def test_optimal_mode_runs_cycles(self):
        cfg = small_config(duration=240.0, mainline=900.0, ramp=300.0,
                           q_sug=600.0, mode=ControlMode.OPTIMAL)
        res = run_scenario(cfg)
        assert sum(e.kind is EventKind.CYCLE for e in res.coordinator.events) >= 3
        assert res.counters.coordinator_commands > 0
        assert np.any(res.log["status"] == 2)
        assert np.any(res.log["status"] == 3)

    def test_ramp_overrun_is_counted_once(self):
        # a ramp vehicle boxed in by a mainline one beside it cannot merge
        # and drives past the lane's end; the mainline vehicle and a ramp
        # vehicle short of the merge are no overruns
        run = _Run(small_config(mainline=0.0, ramp=0.0))
        end = run.config.geometry.merge_zone_end
        for vid, (lane, x) in enumerate([(Lane.RAMP, end - 1.0), (Lane.MAINLINE, end - 1.0),
                                         (Lane.RAMP, -50.0)]):
            run.world.add(vid, lane.code, x, 25.0)
        for k in range(5):
            run.step(k * run.config.dt)
        assert run.world.lane.tolist() == [Lane.RAMP.code, Lane.MAINLINE.code, Lane.RAMP.code]
        assert run.world.pos[0] > end + 5.0
        assert run.counters.ramp_overruns == 1

    def test_optimal_trigger_spacing_respects_suggestion(self):
        cfg = small_config(duration=300.0, mainline=900.0, ramp=500.0,
                           q_sug=400.0, mode=ControlMode.OPTIMAL)
        res = run_scenario(cfg)
        cross = ramp_crossing_times(res.log, cfg.geometry.trigger_point)
        assert len(cross) >= 5
        window = 150.0
        allowed = 400.0 / 3600.0 * window
        for start in np.arange(0.0, 300.0 - window, 5.0):
            n = int(np.sum((cross >= start) & (cross < start + window)))
            assert n <= 1.05 * allowed + 1.0


class TestScenarioBuilders:
    def test_phase_tables(self):
        s1 = load_config(CONFIGS / "scenario1.yaml")
        assert len(s1.phases) == 2
        assert s1.phases[0].mainline == pytest.approx(1600.0 / 3600.0)
        assert s1.phases[0].ramp == pytest.approx(500.0 / 3600.0)
        assert s1.phases[0].suggested == pytest.approx(200.0 / 3600.0)
        assert s1.phases[1].suggested == pytest.approx(600.0 / 3600.0)
        s2 = load_config(CONFIGS / "scenario2.yaml", mode="metering", seed=3)
        assert s2.phases[0].ramp == pytest.approx(300.0 / 3600.0)
        assert s2.phases[1].ramp == pytest.approx(500.0 / 3600.0)
        assert s2.mode is ControlMode.METERING
        assert s2.seed == 3

    def test_total_duration(self):
        for name in ("scenario1", "scenario2"):
            assert load_config(CONFIGS / f"{name}.yaml").total_duration == 1200.0


def _collide(t):
    """A worker task that ends in a collision, carrying a partial log."""
    raise CollisionError(t, 1, 2, -0.5, log={"t": np.array([0.0, t])})


class TestCollisionGuard:
    def test_collision_error_survives_pickling(self):
        err = CollisionError(1.0, 2, 3, -0.1, log={"t": np.array([0.5, 1.0])})
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is CollisionError
        assert (back.t, back.lead_id, back.rear_id, back.gap) == (1.0, 2, 3, -0.1)
        assert back.log["t"].tolist() == [0.5, 1.0]
        assert str(back) == str(err)

    def test_collision_in_a_worker_reaches_the_parent(self):
        with concurrent.futures.ProcessPoolExecutor(2) as pool:
            with pytest.raises(CollisionError) as caught:
                list(pool.map(_collide, [4.0, 5.0]))
        assert (caught.value.t, caught.value.lead_id, caught.value.rear_id) == (4.0, 1, 2)
        assert caught.value.log["t"].tolist() == [0.0, 4.0]

    def test_overlap_aborts_with_diagnostics(self, monkeypatch):
        # a stopping bound that waves every follower through at full
        # throttle lets a dense mainline stream run into itself
        monkeypatch.setattr(
            "rampmerge.simulation.stopping_bound",
            lambda acc, *args: (np.full_like(acc, 10.0), 0),
        )
        cfg = small_config(duration=60.0, mainline=1800.0, ramp=0.0, seed=7)
        with pytest.raises(CollisionError) as caught:
            run_scenario(cfg)
        err = caught.value
        assert err.gap <= 0.0
        assert err.lead_id != err.rear_id
        # the partial log runs up to the colliding step and holds both cars
        assert err.log["t"].max() == pytest.approx(err.t)
        last = err.log["id"][err.log["t"] == err.log["t"].max()]
        assert {err.lead_id, err.rear_id} <= set(last.tolist())

    def test_coarse_step_completes_without_overlap(self):
        # a 2.5 s step is far coarser than car-following assumes; the run
        # must still finish with every logged same-lane gap open
        cfg = small_config(duration=60.0, mainline=1800.0, ramp=0.0, seed=2)
        cfg.dt = 2.5
        log = run_scenario(cfg).log
        order = np.lexsort((log["position"], log["lane"], log["t"]))
        t, lane, pos = (log[k][order] for k in ("t", "lane", "position"))
        same = (np.diff(t) == 0.0) & (np.diff(lane) == 0)
        assert same.any()
        assert np.all(np.diff(pos)[same] - cfg.vehicle_length > 0.0)


def brake_replay(net_gap, v_follow, v_lead, command, brake=-HARD_BRAKE,
                 margin=STOP_MARGIN, dt=0.1, length=5.0, seconds=30.0):
    """Net gaps while a leader brakes at ``brake`` (m/s^2) to a stop.

    The follower asks for ``command`` every step; the ask passes the
    stopping bound at ``brake`` and ``margin`` and the actuation clip,
    and both vehicles move by the simulator's update (speeds clipped to
    ``[0, v_max]``, positions by the trapezoid of successive speeds).
    """
    limits = ControlLimits(v_max=34.65)
    x = np.array([net_gap + length, 0.0])
    v = np.array([v_lead, v_follow], dtype=float)
    gaps = [net_gap]
    for _ in range(int(round(seconds / dt))):
        acc = np.array([-brake, command])
        acc[1:], _ = stopping_bound(
            acc[1:], np.array([x[0] - x[1] - length]), v[1:], v[:1], dt, brake, margin)
        acc = np.clip(acc, HARD_BRAKE, limits.acc_max)
        v_next = np.clip(v + acc * dt, 0.0, limits.v_max)
        x = x + 0.5 * (v + v_next) * dt
        v = v_next
        gaps.append(x[0] - x[1] - length)
    return np.array(gaps), v


class TestStoppingBound:
    DT = 0.1

    def test_distance_matches_stepped_braking(self):
        for brake, _ in BOUNDS:
            for v0 in (0.0, 0.3, 0.6, 5.0, 17.8, 25.8, 34.65):
                v, travelled = v0, 0.0
                while v > 0.0:
                    v_next = max(v - brake * self.DT, 0.0)
                    travelled += 0.5 * (v + v_next) * self.DT
                    v = v_next
                assert stopping_distance(v0, self.DT, brake) == pytest.approx(travelled, abs=1e-9)

    def test_string_member_stops_behind_hard_braking_leader(self):
        # scenario-1 seed 4 at t=773.9 s: a commanded mainline vehicle
        # 37 m behind a string-mate that brakes hard into a standing
        # queue; the plan still asks for acceleration toward 30 m/s
        gaps, v = brake_replay(37.0, 25.8, 25.8, command=2.5)
        assert gaps.min() > 0.0
        assert np.all(v == 0.0)

    @pytest.mark.parametrize("v_lead", [0.0, 8.0, 17.8, 25.8, 34.65])
    @pytest.mark.parametrize("v_follow", [0.0, 0.4, 12.0, 25.4, 34.65])
    def test_no_overlap_from_inside_the_bound(self, v_follow, v_lead):
        # tightest follower state the bound admits: braking at its rate
        # this step lands on it, up to a rounding allowance
        dt = self.DT
        for brake, margin in BOUNDS:
            w = max(v_follow - brake * dt, 0.0)
            tight = (margin - stopping_distance(v_lead, dt, brake)
                     + 0.5 * (v_follow + w) * dt + stopping_distance(w, dt, brake))
            net_gap = max(tight + 1e-9, 0.1)
            assert safe_next_speed(net_gap, v_follow, v_lead, dt, brake, margin) >= w
            if brake == -HARD_BRAKE:
                assert _can_stop(net_gap, v_follow, v_lead, dt)
            gaps, _ = brake_replay(net_gap, v_follow, v_lead, 2.5, brake, margin)
            assert gaps.min() > 0.0
            assert gaps[-1] >= margin - 1e-9

    def test_bound_binds_only_when_needed(self):
        acc = np.array([1.0, 1.0])
        capped, hits = stopping_bound(
            acc, np.array([200.0, 10.0]), np.array([30.0, 30.0]),
            np.array([30.0, 0.0]), self.DT, -HARD_BRAKE, STOP_MARGIN)
        assert hits == 1
        assert capped[0] == 1.0
        assert capped[1] < HARD_BRAKE

    def test_screen_never_skips_a_binding_bound(self):
        # one follower per call, so the outer screen decides each alone;
        # half the cases sit just inside the screen's edge, where the
        # requested speed is mid-way between braking knots and the
        # stopping distance exceeds v^2 / 2b the most
        for brake, margin in BOUNDS:
            dt, u = self.DT, brake * self.DT
            knots = int(35.0 / u)
            rng = np.random.default_rng(3)
            for case in range(2000):
                acc = np.array([rng.uniform(-7.0, 3.0)])
                if case % 2:
                    gap, v, v_lead = rng.uniform(0.0, 120.0), *rng.uniform(0.0, 35.0, 2)
                else:
                    w = (rng.integers(0, knots - 3) + 0.5) * u
                    v, v_lead = w - acc[0] * dt, rng.integers(0, knots) * u
                    if v < 0.0:
                        continue
                    gap = (margin + 0.5 * (v + w) * dt
                           + (w * w - v_lead * v_lead) / (2.0 * brake)
                           + rng.uniform(0.0, u * dt / 8.0))
                exact = (safe_next_speed(gap, v, v_lead, dt, brake, margin) - v) / dt
                capped, hits = stopping_bound(
                    acc, np.array([gap]), np.array([v]), np.array([v_lead]), dt, brake, margin)
                assert capped[0] == min(acc[0], exact)
                assert hits == int(exact < acc[0])

    def test_negative_when_no_stop_keeps_the_margin(self):
        for brake, margin in BOUNDS:
            assert safe_next_speed(0.2, 0.0, 0.0, self.DT, brake, margin) < 0.0

    def test_commanded_merge_needs_stopping_room(self):
        # a 30 m/s follower behind a 20 m/s merger: the hard-braking gap
        # of the closing speed alone is far short of a stop
        rear = _forced_gap(10.0) + 1.0
        assert not _can_stop(rear, 30.0, 20.0, self.DT)
        assert _can_stop(45.0, 30.0, 20.0, self.DT)


class TestSafetyLayer:
    def test_commanded_followers_keep_the_comfort_bound(self, monkeypatch):
        """Over smoke.yaml coordinated, each commanded follower's final
        acceleration is at most its stopping bound at comfort braking."""
        original = _Run._integrate_and_log
        seen = {"checked": 0, "binding": 0}

        def checked(run):
            rows = np.nonzero((run.status != ControlStatus.UNCONTROLLED.code)
                              & (run.pred_of >= 0))[0]
            v, dt = run.world.v[rows], run.config.dt
            bound = (safe_next_speed(run.gap[rows], v, run.world.v[run.pred_of[rows]], dt,
                                     COMFORT_BRAKE, COMFORT_MARGIN) - v) / dt
            assert np.all(run.acc[rows] <= bound), run.t
            seen["checked"] += len(rows)
            seen["binding"] += int(np.count_nonzero(run.acc[rows] == bound))
            original(run)

        monkeypatch.setattr(_Run, "_integrate_and_log", checked)
        run_scenario(load_config(SMOKE, mode="optimal"))
        assert seen["checked"] > 0
        assert seen["binding"] > 0  # the run exercises the bound

    @staticmethod
    def stalls(vehicles):
        """The stall count of one step over hand-placed mainline vehicles,
        each given as (position, speed, lane, status)."""
        run = _Run(small_config(mode=ControlMode.OPTIMAL))
        for vid, (x, v, lane, _) in enumerate(vehicles):
            run.world.add(vid, lane.code, x, v)
        run._car_following()
        run.status = np.array([status.code for *_, status in vehicles])
        run._stopping_bound()
        return run.counters.stalls

    def test_standing_member_with_an_empty_lane_ahead_is_stalled(self):
        member = ControlStatus.OPTIMAL_CONTROLLED
        assert self.stalls([(100.0, 0.0, Lane.MAINLINE, member)]) == 1
        # moving, or on the ramp waiting for a mainline slot: not stalled
        assert self.stalls([(100.0, 0.2, Lane.MAINLINE, member)]) == 0
        assert self.stalls([(100.0, 0.0, Lane.RAMP, member)]) == 0

    def test_member_standing_behind_a_stopped_vehicle_is_not_stalled(self):
        assert self.stalls([
            (100.0, 0.0, Lane.MAINLINE, ControlStatus.OPTIMAL_CONTROLLED),
            (115.0, 0.0, Lane.MAINLINE, ControlStatus.UNCONTROLLED),  # 10 m ahead
        ]) == 0


class TestCarFollowing:
    """The one-pass car-following phase equals the per-lane loop with its
    second acceleration-lane pass (``oracles.car_following_by_lane``)."""

    #: mainline and ramp IDM sets: the studies' pair, and a pair that
    #: differs in every field
    IDM_SETS = (
        (IdmParams(), IdmParams(v0=14.98, T=1.0, a=2.0, b=2.8)),
        (IdmParams(T=1.2, s0=1.5, delta=3.0),
         IdmParams(v0=16.0, T=0.8, a=2.2, b=3.1, s0=2.5, delta=4.5)),
    )

    def test_one_pass_equals_the_per_lane_loop(self):
        rng = np.random.default_rng(30)
        seen = Counter()
        for k in range(200):
            config = small_config()
            config.mainline_idm, config.ramp_idm = self.IDM_SETS[k % 2]
            run = _Run(config)
            world = run.world
            counts = rng.integers(0, 9, size=2) * (rng.random(2) < 0.9)
            for code, count in enumerate(counts):
                for _ in range(count):
                    # a coarse grid around the acceleration lane's start puts
                    # vehicles on one position and on the start itself
                    x = (ACCEL_LANE_START + 2.5 * float(rng.integers(-12, 13))
                         if rng.random() < 0.7 else float(rng.uniform(-400.0, 200.0)))
                    world.add(len(world), code, x, float(rng.uniform(0.0, 36.0)))
            run._car_following()
            acc, gap, pred_of, chains = car_following_by_lane(
                world.lane, world.pos, world.v, config.vehicle_length,
                config.mainline_idm, config.ramp_idm)
            assert run.acc.tobytes() == acc.tobytes(), k
            assert run.gap.tobytes() == gap.tobytes(), k
            assert np.array_equal(run.pred_of, pred_of), k
            for lane in Lane:
                assert np.array_equal(run.chains[lane], chains[lane]), (k, lane)
            seen["empty lane"] += int(min(counts) == 0 < max(counts))
            seen["lone vehicle"] += int(1 in counts)
            seen["equal positions"] += int(any(
                len(np.unique(world.pos[order])) < len(order) for order in chains.values()))
            seen["on the acceleration lane's start"] += int(np.any(
                run.on_ramp & (world.pos == ACCEL_LANE_START)))
        assert min(seen.values()) >= 5, seen


class TestLaneChains:
    """Each step sorts lane order once: a merger's mainline neighbors come
    from bisecting the step's chain, and the audit walks the chains."""

    def test_bisection_picks_the_scanned_neighbors(self):
        # positions on a coarse grid, so that many vehicles share one
        rng = np.random.default_rng(16)
        for _ in range(300):
            world = _World()
            for vid in range(int(rng.integers(0, 12))):
                lane = Lane.MAINLINE if rng.random() < 0.6 else Lane.RAMP
                world.add(vid, lane.code, 2.5 * float(rng.integers(-4, 5)), 10.0)
            orders = lane_orders(world.lane, world.pos)
            chain = orders[Lane.MAINLINE].tolist()
            key = (-world.pos[chain]).tolist()
            grid = np.arange(-12.5, 12.6, 1.25)
            for x in grid:
                assert _chain_neighbors(chain, key, x)[:2] == insertion_neighbors_by_scan(world, x)
            # mergers join in place, and each later one sees them
            for j in orders[Lane.RAMP]:
                lead, lag, rank = _chain_neighbors(chain, key, world.pos[j])
                assert (lead, lag) == insertion_neighbors_by_scan(world, world.pos[j])
                world.lane[j] = Lane.MAINLINE.code
                chain.insert(rank, int(j))
                key.insert(rank, -world.pos[j])
            assert sorted(chain) == np.nonzero(world.lane == Lane.MAINLINE.code)[0].tolist()
            assert key == sorted(key)
            # a merger that joined a group of equal positions last may hold
            # its lowest index
            for x in grid:
                assert _chain_neighbors(chain, key, x)[:2] == insertion_neighbors_by_scan(world, x)

    @pytest.mark.parametrize("case", ["optimal", "metering", "none", "forced-merge"])
    def test_chains_are_the_lane_order_at_every_audit(self, case, monkeypatch):
        """Over the smoke run of each mode and the forced-merge window of
        test_exports.py, the chains the audit walks are a fresh sort of
        the lanes, and the step sorts once."""
        if case == "forced-merge":
            config = load_config(CONFIGS / "scenario1.yaml", mode="none", seed=1)
            config.phases = [replace(config.phases[0], duration=300.0)]
        else:
            config = load_config(SMOKE, mode=case)
        sorts, audited = [], []
        monkeypatch.setattr("rampmerge.simulation.lane_orders",
                            lambda *args: sorts.append(1) or lane_orders(*args))
        original = _Run._collision_audit

        def checked(run):
            fresh = lane_orders(run.world.lane, run.world.pos)
            for lane in Lane:
                assert np.array_equal(run.chains[lane], fresh[lane]), (run.t, lane)
            audited.append(run.t)
            original(run)

        monkeypatch.setattr(_Run, "_collision_audit", checked)
        result = run_scenario(config)
        assert len(sorts) == len(audited) > 0
        assert result.counters.forced_merges > 0 or case != "forced-merge"

    def test_audit_catches_a_swap_wider_than_a_vehicle(self):
        run = _Run(small_config())
        run.t = 0.0
        run.world.add(0, Lane.MAINLINE.code, 100.0, 10.0)
        run.world.add(1, Lane.MAINLINE.code, 80.0, 10.0)
        run._car_following()
        L = run.config.vehicle_length
        # the follower ends the step clear ahead of its leader: re-sorted,
        # the pair shows a positive gap, but it passed through the leader
        run.world.pos[1] = 100.0 + L + 1.0
        with pytest.raises(CollisionError) as caught:
            run._collision_audit()
        assert (caught.value.lead_id, caught.value.rear_id) == (0, 1)
        assert caught.value.gap == -(2.0 * L + 1.0)


class TestStepPhases:
    """A step spawns, then times its phases in one loop: one clock read
    to start and one after each phase."""

    def test_a_step_reads_the_clock_once_per_phase_and_once_more(self, monkeypatch):
        reads = []
        clock = types.SimpleNamespace(perf_counter_ns=lambda: reads.append(1) or len(reads))
        monkeypatch.setattr("rampmerge.simulation.time", clock)
        config = load_config(SMOKE)
        run = _Run(config)
        per_step = Counter()
        for k in range(int(round(config.total_duration / config.dt))):
            logged, before = len(run.log._steps), len(reads)
            run.step(k * config.dt)
            if len(run.log._steps) > logged:  # a step with vehicles logs once
                per_step[len(reads) - before] += 1
        assert len(STEP_PHASES) <= 6
        assert list(per_step) == [len(STEP_PHASES) + 1]
        assert per_step[len(STEP_PHASES) + 1] > 1000

    def test_an_empty_world_ends_the_step_after_the_spawn(self):
        run = _Run(small_config(mainline=0.0, ramp=0.0, mode=ControlMode.OPTIMAL))
        for k in range(20):
            run.step(k * run.config.dt)
        assert run.spent_ns == dict.fromkeys(STEP_PHASES, 0)
        assert not run.coordinator._density_samples
        assert not run.log._steps
