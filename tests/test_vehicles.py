import numpy as np
import pytest

from rampmerge.vehicles import ControlLimits, MergeGeometry, gap_floors


class TestGapMin:
    def test_scales_with_entry_speed(self):
        floors = gap_floors(np.array([12.0]), np.array([15.0]), ControlLimits())
        assert floors[0] == pytest.approx(30.0)

    def test_standstill_floor(self):
        floors = gap_floors(np.array([0.0]), np.array([0.0]), ControlLimits())
        assert floors[0] == pytest.approx(5.0)

    def test_ramp_entry_speed_value(self):
        # 33.5 mph recorded at buffer entry
        floors = gap_floors(np.array([14.9758]), np.array([14.9758]), ControlLimits())
        assert floors[0] == pytest.approx(29.95, abs=0.01)

    def test_monotone_in_entry_speed(self):
        speeds = np.array([0.0, 1.0, 2.6, 10.0, 20.0, 33.0])
        gaps = gap_floors(np.full(6, 20.0), speeds, ControlLimits())
        assert np.all(np.diff(gaps) >= 0.0)


class TestValidation:
    def test_geometry_rejects_nonpositive_zone(self):
        with pytest.raises(ValueError):
            MergeGeometry(ramp_buffer_zone_len=0.0).validate()

    def test_geometry_rejects_downstream_trigger(self):
        with pytest.raises(ValueError):
            MergeGeometry(ramp_control_zone_len=-10.0).validate()

    @pytest.mark.parametrize("trigger, ok", [(-750.0, True), (-750.5, False), (-1000.0, False)])
    def test_buffer_zone_must_fit_upstream_of_the_trigger(self, trigger, ok):
        # the 150 m buffer zone upstream of the trigger line, where the
        # ramp control zone starts, has to start on the 900 m ramp
        geometry = MergeGeometry(ramp_control_zone_len=-trigger)
        if ok:
            geometry.validate()
        else:
            with pytest.raises(ValueError, match="ramp_length too short"):
                geometry.validate()

    def test_geometry_trigger_defaults_to_buffer_exit(self):
        g = MergeGeometry(ramp_control_zone_len=250.0)
        assert g.trigger_point == -250.0
        assert g.ramp_buffer_start == -250.0 - g.ramp_buffer_zone_len

    def test_limits_must_straddle_zero(self):
        with pytest.raises(ValueError):
            ControlLimits(acc_min=0.5).validate()

    def test_speed_units_are_si(self):
        # 73.8 mph and 33.5 mph in m/s; 8.2 and -9.8 ft/s^2 in m/s^2
        assert 73.8 * 0.44704 == pytest.approx(32.99, abs=0.01)
        assert 33.5 * 0.44704 == pytest.approx(14.98, abs=0.01)
        assert 8.2 * 0.3048 == pytest.approx(2.50, abs=0.01)
        assert -9.8 * 0.3048 == pytest.approx(-2.99, abs=0.01)
