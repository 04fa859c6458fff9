import math

import numpy as np
import pytest

from oracles import idm_accel_numpy_scalar
from rampmerge.idm import IdmParams, equilibrium_gap, idm_accel

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

    def test_scalar_path_is_numpy_scalar_arithmetic(self):
        # the Python-float path equals the NumPy-scalar evaluation bit for bit
        rng = np.random.default_rng(15)
        n = 200_000
        params = [PARAMS, IdmParams(v0=22.0, T=1.2, a=1.0, b=1.5, s0=1.5),
                  IdmParams(v0=31.3, T=1.7, a=0.73, b=2.9, s0=2.4, delta=3.7)]
        v = rng.uniform(0.0, 40.0, n)
        v[::50] = 0.0
        s = rng.exponential(40.0, n) + 1e-3
        s[::40] = math.inf
        dv = rng.normal(0.0, 5.0, n)
        which = rng.integers(0, len(params), n)
        for i in range(n):
            p = params[which[i]]
            a, b, c = float(v[i]), float(s[i]), float(dv[i])
            got = idm_accel(a, b, c, p)
            assert type(got) is float
            assert got == idm_accel_numpy_scalar(a, b, c, p), (a, b, c, p)

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

