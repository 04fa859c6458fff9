"""Decision-cycle coordinator behavior."""
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import lookahead_by_loop
from rampmerge import coordinator
from rampmerge.coordinator import (
    HARD_BRAKE,
    LOOKAHEAD_STEPS,
    REPAIR_GAP_FRACTION,
    EventKind,
    MergeCoordinator,
    WorldSnapshot,
    inflow_group_cap,
    mainline_buffer_length,
    proper_arrival_time,
    travel_time_estimate,
)
from rampmerge.cli import load_config
from rampmerge.idm import IdmParams, idm_accel
from rampmerge.sequencing import ScoringContext, count_sequences, optimal_sequence
from rampmerge.simulation import run_scenario
from rampmerge.tracking import ConvergedLaw, Trajectory
from rampmerge.vehicles import (
    ControlLimits,
    ControlStatus,
    Lane,
    MergeGeometry,
    lane_orders,
)

LIMITS = ControlLimits()
GEO = MergeGeometry()
RAMP_IDM = IdmParams(v0=14.98)


def make_snapshot(t, rows, q_main=1600 / 3600, q_sug=200 / 3600):
    """rows: (id, lane, position, speed[, entry_speed])"""
    ids, lanes, pos, spd, entry = [], [], [], [], []
    for row in rows:
        ids.append(row[0])
        lanes.append(row[1].code)
        pos.append(row[2])
        spd.append(row[3])
        entry.append(row[4] if len(row) > 4 else math.nan)
    lanes = np.array(lanes, dtype=int)
    pos = np.array(pos, dtype=float)
    return WorldSnapshot(
        t=t,
        q_mainline=q_main,
        q_suggested=q_sug,
        ids=np.array(ids, dtype=int),
        lanes=lanes,
        positions=pos,
        speeds=np.array(spd, dtype=float),
        entry_speeds=np.array(entry, dtype=float),
        orders=lane_orders(lanes, pos),
    )


def make_coordinator(q_cap=252):
    ctx = ScoringContext(limits=LIMITS, cap=q_cap)
    return MergeCoordinator(GEO, ctx, RAMP_IDM)


def cycles(events):
    """The decision-cycle events among ``events``."""
    return [e for e in events if e.kind is EventKind.CYCLE]


class TestBufferLength:
    def test_heavy_mainline_two_ramp(self):
        assert mainline_buffer_length(1600 / 3600, 400 / 3600, 2, 0.02, 1000.0) == 400.0

    def test_zero_ramp_clamps_low(self):
        assert mainline_buffer_length(1600 / 3600, 400 / 3600, 0, 0.02, 1000.0) == 50.0

    def test_equal_flows(self):
        length = mainline_buffer_length(400 / 3600, 400 / 3600, 3, 0.03, 1000.0)
        assert length == pytest.approx(100.0)

    def test_empty_road_clamps_high(self):
        assert mainline_buffer_length(1600 / 3600, 400 / 3600, 2, 0.0, 1000.0) == 1000.0

    def test_custom_upper(self):
        assert mainline_buffer_length(1.0, 0.1, 5, 1e-9, upper=800.0) == 800.0

    def test_bad_suggestion_rate(self):
        with pytest.raises(ValueError):
            mainline_buffer_length(1.0, 0.0, 2, 0.02, 1000.0)


class TestProperArrival:
    def test_five_vehicles(self):
        assert proper_arrival_time(5, 600 / 3600) == pytest.approx(30.0)

    def test_zero_vehicles(self):
        assert proper_arrival_time(0, 600 / 3600) == 0.0

    def test_three_at_light_rate(self):
        assert proper_arrival_time(3, 300 / 3600) == pytest.approx(36.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            proper_arrival_time(3, 0.0)
        with pytest.raises(ValueError):
            proper_arrival_time(-1, 1.0)


class TestInflowCap:
    def test_light_rate_still_admits_one(self):
        assert inflow_group_cap(200 / 3600) == 1

    def test_moderate_rate(self):
        assert inflow_group_cap(600 / 3600) == 2

    def test_heavy_rate(self):
        assert inflow_group_cap(3600 / 3600) == 15

    def test_burst_keeps_every_window_within_tolerance(self):
        # admit bursts of the cap size back to back at the paced spacing
        # and slide a 5-minute window over the crossings
        for q in (200 / 3600, 600 / 3600, 1200 / 3600):
            n = inflow_group_cap(q)
            spacing = n / q
            crossings = np.arange(0.0, 3600.0, spacing)
            counts = []
            for start in np.arange(0.0, 3000.0, 0.25):
                inside = (crossings >= start) & (crossings < start + 300.0)
                counts.append(np.count_nonzero(inside) * n)
            assert max(counts) <= 1.05 * q * 300.0 + 1e-9


class TestTravelTime:
    def test_zero_distance(self):
        assert travel_time_estimate(0.0, 10.0, 2.5, 33.0) == 0.0

    def test_cruise(self):
        assert travel_time_estimate(330.0, 33.0, 2.5, 33.0) == pytest.approx(10.0)

    def test_accelerating(self):
        # 15 -> 33 at 2.5 m/s^2 covers 172.8 m in 7.2 s, remainder at 33
        t = travel_time_estimate(300.0, 15.0, 2.5, 33.0)
        assert t == pytest.approx(7.2 + (300.0 - 172.8) / 33.0)

    def test_short_hop_entirely_inside_accel_phase(self):
        t = travel_time_estimate(20.0, 10.0, 2.0, 40.0)
        # solve 10 t + t^2 = 20
        assert t == pytest.approx((-10 + math.sqrt(100 + 4 * 20.0 * 2.0 / 2.0)) / 2.0)


class TestFindRampLeader:
    """The pending leader, the one a step paces, is the first
    never-controlled vehicle of the ramp queue after any cycle the step
    opens."""

    def paced_step(self, rows, controlled=()):
        coord = make_coordinator()
        coord.ever_controlled.update(controlled)
        # an early schedule: every pending leader gets paced
        coord.release_time = 100.0
        cmds = coord.step(make_snapshot(50.0, rows))
        return coord, cmds

    def test_no_control_yet_picks_leading_vehicle(self):
        coord, cmds = self.paced_step([
            (4, Lane.RAMP, -310.0, 10.0), (7, Lane.RAMP, -350.0, 10.0),
            (9, Lane.RAMP, -420.0, 10.0),
        ])
        assert coord.regulated_leader == 4
        assert set(cmds) == {4}

    def test_first_vehicle_behind_last_controlled(self):
        coord, cmds = self.paced_step([
            (2, Lane.RAMP, -250.0, 10.0), (4, Lane.RAMP, -310.0, 10.0),
            (7, Lane.RAMP, -350.0, 10.0), (9, Lane.RAMP, -420.0, 10.0),
        ], controlled={2, 4})
        assert coord.regulated_leader == 7
        assert set(cmds) == {7}

    def test_all_controlled(self):
        coord, cmds = self.paced_step(
            [(2, Lane.RAMP, -250.0, 10.0), (4, Lane.RAMP, -310.0, 10.0)],
            controlled={2, 4},
        )
        assert coord.regulated_leader is None
        assert cmds == {}
        assert coord.events == []

    def test_vehicle_already_past_line_is_not_a_candidate(self):
        coord = make_coordinator()
        cmds = coord.step(make_snapshot(0.0, [
            (5, Lane.RAMP, -290.0, 10.0, 10.0), (6, Lane.RAMP, -320.0, 10.0),
        ]))
        # 200 veh/h admits one vehicle per cycle and holds the next 18 s
        assert [e.data["ramp_ids"] for e in cycles(coord.events)] == [(5,)]
        assert coord.regulated_leader == 6
        assert set(cmds) == {5, 6}

    def test_empty_ramp(self):
        coord, cmds = self.paced_step([(1, Lane.MAINLINE, -500.0, 33.0)])
        assert coord.regulated_leader is None
        assert cmds == {}


@pytest.mark.parametrize("suggested", [None, 800 / 3600])
def test_controlled_ramp_vehicles_stay_a_queue_prefix(monkeypatch, suggested):
    """Over a coordinated run, the ramp vehicles ever controlled are the
    downstream ranks of the ramp queue at every step, and each cycle
    admits consecutive ranks.  smoke.yaml's 400 veh/h admits one ramp
    vehicle per cycle; 800 veh/h admits groups of up to three."""
    original = MergeCoordinator.step
    seen = {"cycles": 0}

    def ramp_queue(coord, snap):
        queue = [int(v) for v in snap.ids[snap.ordered(Lane.RAMP)]]
        controlled = [vid in coord.ever_controlled for vid in queue]
        assert controlled == sorted(controlled, reverse=True), (snap.t, queue)
        return queue

    def checked_step(coord, snap):
        ramp_queue(coord, snap)
        n_events = len(coord.events)
        commands = original(coord, snap)
        queue = ramp_queue(coord, snap)
        for event in cycles(coord.events[n_events:]):
            ramp_ids = event.data["ramp_ids"]
            rank = queue.index(ramp_ids[0])
            assert tuple(queue[rank:rank + len(ramp_ids)]) == ramp_ids
            seen["cycles"] += 1
        return commands

    monkeypatch.setattr(MergeCoordinator, "step", checked_step)
    config = load_config(Path(__file__).parents[1] / "configs" / "smoke.yaml", mode="optimal")
    if suggested is not None:
        config.phases = [replace(p, suggested=suggested) for p in config.phases]
    result = run_scenario(config)
    events = cycles(result.coordinator.events)
    assert seen["cycles"] == len(events) >= 2
    assert (suggested is None) == all(len(e.data["ramp_ids"]) == 1 for e in events)
    assert np.any(result.log["status"] == ControlStatus.RAMP_LEADER_REGULATED.code)


def test_smoke_run_events_are_consistent():
    """Each cycle orders exactly its members, the admission schedule
    never moves back, and the degraded-plan counter counts the degraded
    cycles."""
    config = load_config(Path(__file__).parents[1] / "configs" / "smoke.yaml", mode="optimal")
    result = run_scenario(config)
    events = cycles(result.coordinator.events)
    assert len(events) >= 2
    for e in events:
        assert sorted(e.data["sequence_ids"]) == sorted(
            e.data["mainline_ids"] + e.data["ramp_ids"])
    releases = [e.data["release_time"] for e in events]
    assert releases == sorted(releases)
    assert result.counters.degraded_plans == sum(e.data["degraded"] for e in events)


class TestDecisionCycle:
    def trigger_snapshot(self, t=0.0):
        return make_snapshot(
            t,
            [
                (1, Lane.RAMP, -299.5, 15.0, 15.0),
                (2, Lane.MAINLINE, -560.0, 32.99),
                (3, Lane.MAINLINE, -630.0, 32.99),
            ],
        )

    def test_trigger_builds_active_set(self):
        coord = make_coordinator()
        cmds = coord.step(self.trigger_snapshot())
        [cset] = coord.sets
        assert set(cset.ids) == {1, 2, 3}
        assert coord.active_member_ids == {1, 2, 3}
        assert set(cmds) == {1, 2, 3}
        for u in cmds.values():
            assert LIMITS.acc_min - 1e-12 <= u <= LIMITS.acc_max + 1e-12

    def test_cycle_record_and_release_schedule(self):
        coord = make_coordinator()
        coord.step(self.trigger_snapshot(t=12.0))
        [event] = coord.events
        assert (event.t, event.kind, event.cycle) == (12.0, EventKind.CYCLE, 0)
        data = event.data
        assert data["ramp_ids"] == (1,)
        assert data["mainline_ids"] == (2, 3)
        assert count_sequences(len(data["mainline_ids"]), len(data["ramp_ids"])) == 3
        # one admitted vehicle at 200 veh/h holds the next leader 18 s
        assert data["release_time"] == pytest.approx(12.0 + 18.0)
        assert coord.release_time == pytest.approx(30.0)

    def test_sets_stay_disjoint(self):
        coord = make_coordinator()
        coord.step(self.trigger_snapshot())
        snap2 = make_snapshot(
            20.0,
            [
                (1, Lane.RAMP, 80.0, 30.0, 15.0),
                (2, Lane.MAINLINE, 10.0, 33.0),
                (3, Lane.MAINLINE, -60.0, 33.0),
                (9, Lane.RAMP, -299.0, 14.0, 14.0),
                (11, Lane.MAINLINE, -500.0, 33.0),
            ],
        )
        coord.step(snap2)
        assert len(coord.sets) == 2
        first, second = coord.sets
        assert set(first.ids).isdisjoint(second.ids)
        assert 9 in second.ids
        assert 11 in second.ids

    def test_enumeration_cap_sheds_upstream_ramp_first(self):
        # C(3+2,2)=10 exceeds a cap of 4; dropping one ramp vehicle gives
        # C(3+1,1)=4 which fits
        coord = make_coordinator(q_cap=4)
        snap = make_snapshot(
            0.0,
            [
                (1, Lane.RAMP, -299.5, 15.0, 15.0),
                (2, Lane.RAMP, -330.0, 14.0, 14.0),
                (5, Lane.MAINLINE, -520.0, 33.0),
                (6, Lane.MAINLINE, -590.0, 33.0),
                (7, Lane.MAINLINE, -660.0, 33.0),
            ],
            q_sug=600 / 3600,
        )
        coord.step(snap)
        [cap, cycle] = coord.events
        assert (cap.kind, cap.cycle, cap.data) == (
            EventKind.CAP, 0, {"lane": Lane.RAMP, "vehicle": 2})
        assert cycle.data["ramp_ids"] == (1,)
        assert len(cycle.data["mainline_ids"]) == 3
        assert 2 not in coord.ever_controlled

    def test_cycle_inputs_are_the_snapshot_rows(self, monkeypatch):
        seen = []

        def spy(main_ids, ramp_ids, x0, floors, ctx):
            seen.append((main_ids, ramp_ids, x0, floors))
            return optimal_sequence(main_ids, ramp_ids, x0, floors, ctx)

        monkeypatch.setattr(coordinator, "optimal_sequence", spy)
        coord = make_coordinator()
        coord.step(make_snapshot(0.0, [
            (1, Lane.RAMP, -299.5, 15.0, 14.0),
            (2, Lane.MAINLINE, -560.0, 32.99),
            (3, Lane.MAINLINE, -630.0, 2.0),
        ]))
        [(main_ids, ramp_ids, x0, floors)] = seen
        assert (main_ids, ramp_ids) == ([2, 3], [1])
        assert np.array_equal(x0, [-560.0, -630.0, -299.5, 32.99, 2.0, 15.0])
        # the ramp member's entry speed, else the current speed, times 2 s
        # and floored at 5 m
        assert np.array_equal(floors, [2.0 * 32.99, 5.0, 2.0 * 14.0])

    def test_m_zero_ramp_only_cycle(self):
        coord = make_coordinator()
        snap = make_snapshot(0.0, [(1, Lane.RAMP, -299.5, 15.0, 15.0)])
        cmds = coord.step(snap)
        assert coord.sets[0].ids == (1,)
        assert 1 in cmds

    def test_release_flies_the_suffix_of_the_problem(self):
        coord = make_coordinator()
        coord.step(self.trigger_snapshot())
        [cset] = coord.sets
        ids, problem = cset.ids, cset.problem
        # the front member past the merge zone end, the others short of it
        lanes = dict(zip(ids, problem.lanes))
        snap = make_snapshot(30.0, [
            (ids[0], Lane.MAINLINE, 260.0, 33.0, 15.0),
            (ids[1], lanes[ids[1]], -100.0, 30.0, 15.0),
            (ids[2], lanes[ids[2]], -160.0, 30.0, 15.0),
        ])
        coord.step(snap)
        assert cset.ids == ids[1:]
        assert cset.problem.lanes == problem.lanes[1:]
        assert np.array_equal(cset.problem.floors, problem.floors[1:])
        assert np.array_equal(cset.problem.x0, snap.state(cset.ids))
        assert cset.law.model.n == 2 and cset.law.K.shape == (2, 4)

    def test_release_and_completion(self):
        coord = make_coordinator()
        coord.step(self.trigger_snapshot())
        [cset] = coord.sets
        problem = cset.problem
        # everyone well past the merge zone end
        snap = make_snapshot(
            60.0,
            [
                (1, Lane.MAINLINE, 260.0, 33.0, 15.0),
                (2, Lane.MAINLINE, 210.0, 33.0),
                (3, Lane.MAINLINE, 140.0, 33.0),
            ],
        )
        cmds = coord.step(snap)
        assert cset.ids == (3,)
        assert cset.problem.lanes == problem.lanes[2:]
        assert np.array_equal(cset.problem.floors, problem.floors[2:])
        assert coord.sets == [cset]
        assert set(cmds) == {3}
        assert coord.active_member_ids == {3}
        snap2 = make_snapshot(70.0, [(3, Lane.MAINLINE, 260.0, 33.0)])
        cmds2 = coord.step(snap2)
        assert coord.sets == []
        assert cmds2 == {}
        assert coord.active_member_ids == set()

    def test_slow_mainline_vehicle_ahead_of_the_window_is_not_enrolled(self):
        # 200 m from the merge at 12 m/s: 16.7 s at constant speed, inside
        # the window, but 8.7 s accelerating toward the desired speed,
        # before the ramp leader's 11.0 s less the 2 s margin
        coord = make_coordinator()
        coord.step(make_snapshot(0.0, [
            (1, Lane.RAMP, -299.5, 15.0, 15.0),
            (2, Lane.MAINLINE, -200.0, 12.0),
            (3, Lane.MAINLINE, -600.0, 32.99),
        ]))
        assert cycles(coord.events)[0].data["mainline_ids"] == (3,)

    def test_member_exit_from_network_completes_set(self):
        coord = make_coordinator()
        coord.step(self.trigger_snapshot())
        coord.step(make_snapshot(90.0, [(99, Lane.MAINLINE, -900.0, 33.0)]))
        assert coord.sets == []


class TestLeaderRegulation:
    def paced(self, rows, remaining, controlled=()):
        """One step at t = 50 s with the pending leader due in
        ``remaining`` s, more than the gate window short of the line."""
        coord = make_coordinator()
        coord.ever_controlled.update(controlled)
        coord.release_time = 50.0 + remaining
        cmds = coord.step(make_snapshot(50.0, rows))
        return coord, cmds

    def test_on_schedule_keeps_idm(self):
        # 120 m at 14 m/s takes 8.0 s under the ramp IDM; due in 7 s
        coord, cmds = self.paced([(4, Lane.RAMP, -420.0, 14.0, 14.0)], 7.0)
        assert cmds == {}
        assert coord.regulated_leader is None

    def test_early_arrival_slows_down(self):
        # would arrive in 6.7 s, wanted in 20 s: pace toward 5 m/s
        coord, cmds = self.paced([(4, Lane.RAMP, -400.0, 15.0, 15.0)], 20.0)
        assert coord.regulated_leader == 4
        assert cmds[4] == pytest.approx(LIMITS.acc_min)

    def test_gentle_when_nearly_on_pace(self):
        # would arrive in 7.2 s, wanted in 10 s: pace toward 10 m/s
        coord, cmds = self.paced([(4, Lane.RAMP, -400.0, 10.5, 10.5)], 10.0)
        assert coord.regulated_leader == 4
        assert cmds[4] == pytest.approx(0.5 * (10.0 - 10.5))

    def test_never_overrides_idm_safety_braking(self):
        # an early leader 32 m behind a controlled vehicle 6 m/s slower
        coord, cmds = self.paced([
            (2, Lane.RAMP, -363.0, 9.0, 9.0), (4, Lane.RAMP, -400.0, 15.0, 15.0),
        ], 20.0, controlled={2})
        braking = idm_accel(15.0, 32.0, 6.0, RAMP_IDM)
        assert braking < LIMITS.acc_min
        assert coord.regulated_leader == 4
        assert cmds == {4: braking}

    def test_idm_only_where_it_can_command(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return idm_accel(*args)

        monkeypatch.setattr(coordinator, "idm_accel", counted)
        # 100 m short of the line at 14 m/s takes about 7 s; due in 5 s
        coord, cmds = self.paced([(4, Lane.RAMP, -400.0, 14.0, 14.0)], 5.0)
        assert cmds == {} and calls == []
        # due in 20 s: early, so paced below the IDM command
        coord, cmds = self.paced([(4, Lane.RAMP, -400.0, 14.0, 14.0)], 20.0)
        assert set(cmds) == {4} and len(calls) == 1

    def test_expired_schedule_releases(self):
        coord, cmds = self.paced([(4, Lane.RAMP, -350.0, 12.0, 12.0)], 0.0)
        assert cmds == {}
        assert coord.regulated_leader is None

    def test_gate_holds_early_leader_at_line(self):
        coord = make_coordinator()
        coord.release_time = 100.0
        snap = make_snapshot(50.0, [(4, Lane.RAMP, -312.0, 10.0, 10.0)])
        cmds = coord.step(snap)
        assert coord.regulated_leader == 4
        # must be braking to stop short of the line
        assert cmds[4] < LIMITS.acc_min
        assert cmds[4] >= HARD_BRAKE

    def test_far_leader_with_no_schedule_is_left_alone(self):
        coord = make_coordinator()
        snap = make_snapshot(0.0, [(4, Lane.RAMP, -700.0, 14.0, 14.0)])
        cmds = coord.step(snap)
        assert cmds == {}
        assert coord.regulated_leader is None

    def closed_loop_crossing_time(self, release_offset):
        """Integrate a lone ramp leader until it crosses the trigger."""
        coord = make_coordinator()
        coord.release_time = release_offset
        dt = 0.1
        pos, v = -600.0, 14.98
        t = 0.0
        while t < 120.0:
            snap = make_snapshot(t, [(4, Lane.RAMP, pos, v, 14.98)])
            if pos >= GEO.trigger_point:
                return t
            cmds = coord.step(snap)
            if 4 in cmds:
                a = cmds[4]
            else:
                a = idm_accel(v, math.inf, 0.0, RAMP_IDM)
            v_next = min(max(v + a * dt, 0.0), LIMITS.v_max)
            pos += 0.5 * (v + v_next) * dt
            v = v_next
            t += dt
        raise AssertionError("leader never crossed")

    def test_unscheduled_leader_crosses_at_free_flow_time(self):
        # 300 m at the ramp desired speed of 14.98 m/s is almost exactly
        # a 20 s approach
        t_cross = self.closed_loop_crossing_time(-math.inf)
        assert t_cross == pytest.approx(300.0 / 14.98, abs=1.0)

    def test_scheduled_leader_arrives_on_time_never_early(self):
        target = 32.0
        t_cross = self.closed_loop_crossing_time(target)
        assert t_cross >= target
        assert t_cross <= target + 3.0

    def test_lightly_delayed_leader_tracks_target_closely(self):
        target = 24.0
        t_cross = self.closed_loop_crossing_time(target)
        assert t_cross >= target
        assert t_cross <= target + 3.0


class TestPredictionRepair:
    def test_imminent_breach_triggers_replan(self, monkeypatch):
        coord = make_coordinator()
        snap = make_snapshot(
            0.0,
            [
                (1, Lane.RAMP, -299.5, 15.0, 15.0),
                (2, Lane.MAINLINE, -560.0, 32.99),
            ],
        )
        coord.step(snap)
        cset = coord.sets[0]
        assert cset.repair is None
        # stage the string's follower right on its leader's bumper inside
        # the activation window, still closing hard
        lead_id, follow_id = cset.ids
        lanes = {1: Lane.RAMP, 2: Lane.MAINLINE}
        tight = make_snapshot(
            1.5,
            [
                (lead_id, lanes[lead_id], -20.0, 14.0, 15.0),
                (follow_id, lanes[follow_id], -28.0, 19.0, 15.0),
            ],
        )
        solved = []
        solve_batch = coord.scoring.solve_batch

        def spy(problems):
            solved.append(problems)
            return solve_batch(problems)

        monkeypatch.setattr(coord.scoring, "solve_batch", spy)
        cmds = coord.step(tight)
        assert cset.repair is not None
        [_, replan] = coord.events
        assert (replan.t, replan.kind, replan.cycle) == (1.5, EventKind.REPLAN, cset.cycle_id)
        assert replan.data["horizon"] == cset.repair.horizon
        # the re-plan solves the set's own problem from the current state
        [[replanned]] = solved
        assert np.array_equal(replanned.x0, tight.state(cset.ids))
        for name in ("weights", "r_vec", "floors", "lanes"):
            assert getattr(replanned, name) is getattr(cset.problem, name)
        for u in cmds.values():
            assert LIMITS.acc_min - 1e-12 <= u <= LIMITS.acc_max + 1e-12

    @pytest.mark.parametrize("offset,replans", [(-1e-6, True), (1e-6, False)])
    def test_forecast_gap_at_the_repair_fraction(self, monkeypatch, offset, replans):
        # a forecast net gap just below REPAIR_GAP_FRACTION of its floor
        # re-plans, one just above it does not
        coord = make_coordinator()
        coord.step(make_snapshot(0.0, [
            (1, Lane.RAMP, -299.5, 15.0, 15.0), (2, Lane.MAINLINE, -560.0, 32.99),
        ]))
        [cset] = coord.sets
        gap = REPAIR_GAP_FRACTION * float(cset.problem.floors[0]) + offset
        # leader at the merge, its follower inside the activation window
        x = np.array([0.0, -(coord.scoring.vehicle_length + gap), 20.0, 20.0])
        assert x[1] >= -coord.scoring.activation_margin
        forecasts = []

        def flat_forecast(law, x, steps, limits):
            forecasts.append(steps)
            return Trajectory(x=np.tile(x, (steps + 1, 1)), u=np.zeros((steps, 2)))

        monkeypatch.setattr(ConvergedLaw, "forecast", flat_forecast)
        coord._check_prediction(cset, x, make_snapshot(1.0, []))
        assert forecasts == [LOOKAHEAD_STEPS]
        assert (cset.repair is not None) == replans


class TestStringLaw:
    @pytest.mark.parametrize("clipped", [True, False])
    def test_forecast_is_the_step_loop(self, clipped):
        coord = make_coordinator()
        snap = TestDecisionCycle().trigger_snapshot()
        coord.step(snap)
        cset = coord.sets[0]
        law = cset.law
        n = len(cset.ids)
        assert law.K.shape == law.Ky.shape == (n, 2 * n) and law.V.shape == (2 * n,)
        if clipped:
            # the string as the cycle found it: a 15 m/s ramp vehicle
            # among 33 m/s mainline traffic saturates the commands
            x = snap.state(cset.ids)
        else:
            # formed on its reference, just off the desired speed
            gaps = cset.problem.r_vec[:n - 1]
            positions = -100.0 - np.concatenate([[0.0], np.cumsum(gaps)])
            x = np.concatenate([positions, cset.problem.r_vec[n - 1:] - 0.5])
        forecast = law.forecast(x, LOOKAHEAD_STEPS, LIMITS)
        want = lookahead_by_loop(law.K, law.Ky, law.V, x, law.model.dt, LIMITS, LOOKAHEAD_STEPS)
        assert np.array_equal(forecast.x[0], x)
        assert np.array_equal(forecast.x[1:], want)
        # the recorded inputs are the law's commands as applied
        commands = np.array([law.control(state) for state in forecast.x[:-1]])
        assert np.array_equal(forecast.u, np.clip(commands, LIMITS.acc_min, LIMITS.acc_max))
        inside = (forecast.u > LIMITS.acc_min) & (forecast.u < LIMITS.acc_max)
        assert inside.all() != clipped

    def test_live_law_is_the_policy_law(self):
        # a set flies the law the policy hands out for its problem, after
        # the cycle and after a release leaves the suffix of the problem
        coord = make_coordinator()
        coord.step(TestDecisionCycle().trigger_snapshot())
        [cset] = coord.sets

        def assert_policy_law():
            want = coord.scoring.law(cset.problem)
            for name in ("K", "Ky", "V"):
                assert getattr(cset.law, name).tobytes() == getattr(want, name).tobytes()

        assert_policy_law()
        ids, lanes = cset.ids, cset.problem.lanes
        coord.step(make_snapshot(30.0, [
            (ids[0], Lane.MAINLINE, 260.0, 33.0, 15.0),
            (ids[1], lanes[1], -100.0, 30.0, 15.0),
            (ids[2], lanes[2], -160.0, 30.0, 15.0),
        ]))
        assert cset.ids == ids[1:]
        assert_policy_law()


class TestDensityEstimate:
    def test_moving_average_over_window(self):
        coord = make_coordinator()
        rows3 = [(i, Lane.MAINLINE, -100.0 * (i + 1), 33.0) for i in range(3)]
        rows5 = [(i, Lane.MAINLINE, -100.0 * (i + 1), 33.0) for i in range(5)]
        for t in np.arange(0.0, 5.0, 1.0):
            coord._observe_density(make_snapshot(t, rows3))
        for t in np.arange(5.0, 10.0, 1.0):
            coord._observe_density(make_snapshot(t, rows5))
        est = coord._density_estimate()
        assert est == pytest.approx((5 * 3 + 5 * 5) / 10.0 / 1000.0)

    def test_old_samples_age_out(self):
        coord = make_coordinator()
        rows = [(1, Lane.MAINLINE, -500.0, 33.0)]
        coord._observe_density(make_snapshot(0.0, rows))
        for t in np.arange(11.0, 16.0, 1.0):
            coord._observe_density(make_snapshot(t, []))
        est = coord._density_estimate()
        assert est == 0.0
