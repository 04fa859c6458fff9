import math

import numpy as np
import pytest

from rampmerge.idm import (
    IdmParams,
    equilibrium_gap,
    idm_accel,
    predict_eta,
    regulate_leader,
)
from rampmerge.vehicles import ControlLimits, Lane, VehicleState

PARAMS = IdmParams(v0=33.0)


class TestAccel:
    def test_free_flow_below_desired_speed(self):
        a = idm_accel(10.0, math.inf, 0.0, PARAMS)
        assert a == pytest.approx(1.4 * (1.0 - (10.0 / 33.0) ** 4))
        assert a > 0

    def test_free_flow_at_desired_speed(self):
        assert idm_accel(33.0, math.inf, 0.0, PARAMS) == pytest.approx(0.0, abs=1e-12)

    def test_equilibrium_is_a_fixed_point(self):
        v = 16.5
        s = equilibrium_gap(v, PARAMS)
        assert idm_accel(v, s, 0.0, PARAMS) == pytest.approx(0.0, abs=1e-12)

    def test_short_gap_brakes(self):
        v = 16.5
        s = equilibrium_gap(v, PARAMS)
        assert idm_accel(v, 0.5 * s, 0.0, PARAMS) < -0.5

    def test_closing_speed_brakes_harder(self):
        calm = idm_accel(20.0, 30.0, 0.0, PARAMS)
        closing = idm_accel(20.0, 30.0, 8.0, PARAMS)
        assert closing < calm - 1.0

    def test_receding_leader_floors_desired_gap(self):
        # once the dynamic term is negative the exact recede rate is irrelevant
        a1 = idm_accel(10.0, 20.0, -50.0, PARAMS)
        a2 = idm_accel(10.0, 20.0, -100.0, PARAMS)
        assert a1 == pytest.approx(a2, abs=1e-14)

    def test_nonpositive_gap_rejected(self):
        with pytest.raises(ValueError):
            idm_accel(10.0, 0.0, 0.0, PARAMS)

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(3)
        v = np.abs(rng.normal(15.0, 6.0, size=12))
        s = np.abs(rng.normal(30.0, 10.0, size=12)) + 1.0
        dv = rng.normal(0.0, 4.0, size=12)
        vec = idm_accel(v, s, dv, PARAMS)
        for i in range(12):
            assert vec[i] == pytest.approx(
                idm_accel(float(v[i]), float(s[i]), float(dv[i]), PARAMS), rel=1e-13
            )


class TestEquilibriumGap:
    def test_half_desired_speed(self):
        assert equilibrium_gap(16.5, PARAMS) == pytest.approx(27.6272, abs=1e-3)

    def test_standstill(self):
        assert equilibrium_gap(0.0, PARAMS) == pytest.approx(PARAMS.s0)

    def test_monotone_in_speed(self):
        gaps = [equilibrium_gap(v, PARAMS) for v in np.linspace(0.0, 30.0, 16)]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_diverges_near_desired_speed(self):
        assert equilibrium_gap(32.99, PARAMS) > 500.0
        with pytest.raises(ValueError):
            equilibrium_gap(33.0, PARAMS)


def _leader(position, speed):
    return VehicleState(9, Lane.RAMP, position, speed, entry_speed=speed)


class TestPredictEta:
    def test_free_flow_cruise_is_distance_over_speed(self):
        params = IdmParams(v0=15.0)
        eta = predict_eta(_leader(-150.0, 15.0), 0.0, params, 0.1)
        assert eta == pytest.approx(10.0, rel=1e-12)

    def test_already_past_line(self):
        assert predict_eta(_leader(2.0, 10.0), 0.0, PARAMS, 0.1) == 0.0

    def test_accelerating_arrives_sooner_than_cruise(self):
        eta = predict_eta(_leader(-150.0, 15.0), 0.0, PARAMS, 0.1)
        assert eta < 10.0

    def test_blocked_by_stopped_car_times_out(self):
        pred = (-148.0, 0.0)
        eta = predict_eta(
            _leader(-150.0, 0.0), 0.0, PARAMS, 0.1, predecessor=pred, max_time=30.0
        )
        assert math.isinf(eta)

    def test_slow_predecessor_delays_arrival(self):
        params = IdmParams(v0=15.0)
        free = predict_eta(_leader(-150.0, 15.0), 0.0, params, 0.1)
        pred = (-130.0, 6.0)
        held = predict_eta(_leader(-150.0, 15.0), 0.0, params, 0.1, predecessor=pred)
        assert held > free + 2.0

    def test_eta_consistent_across_dt(self):
        coarse = predict_eta(_leader(-200.0, 12.0), 0.0, PARAMS, 0.2)
        fine = predict_eta(_leader(-200.0, 12.0), 0.0, PARAMS, 0.05)
        assert coarse == pytest.approx(fine, abs=0.3)


class TestLeaderRegulation:
    LIMITS = ControlLimits()

    def test_on_schedule_keeps_idm(self):
        accel, regulating = regulate_leader(
            _leader(-120.0, 14.0), 0.7, 120.0, 9.0, predicted_eta=9.5,
            k_p=0.5, limits=self.LIMITS,
        )
        assert accel == 0.7
        assert not regulating

    def test_early_arrival_slows_down(self):
        # would arrive in 8 s, wanted in 20 s: pace toward 5 m/s
        accel, regulating = regulate_leader(
            _leader(-100.0, 15.0), 0.4, 100.0, 20.0, predicted_eta=8.0,
            k_p=0.5, limits=self.LIMITS,
        )
        assert regulating
        assert accel == pytest.approx(self.LIMITS.acc_min)

    def test_gentle_when_nearly_on_pace(self):
        accel, regulating = regulate_leader(
            _leader(-100.0, 10.5), 0.9, 100.0, 10.0, predicted_eta=9.4,
            k_p=0.5, limits=self.LIMITS,
        )
        assert regulating
        assert accel == pytest.approx(0.5 * (10.0 - 10.5))

    def test_never_overrides_idm_safety_braking(self):
        accel, regulating = regulate_leader(
            _leader(-100.0, 15.0), -3.6, 100.0, 20.0, predicted_eta=8.0,
            k_p=0.5, limits=self.LIMITS,
        )
        assert regulating
        assert accel == -3.6

    def test_expired_schedule_releases(self):
        accel, regulating = regulate_leader(
            _leader(-50.0, 12.0), 1.1, 50.0, 0.0, predicted_eta=4.0,
            k_p=0.5, limits=self.LIMITS,
        )
        assert accel == 1.1
        assert not regulating
