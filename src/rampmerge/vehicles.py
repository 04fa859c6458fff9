"""Domain types and the shared one-dimensional merge coordinate system.

Every vehicle, whether it drives on the mainline or on the on-ramp, is
located on a single longitudinal axis whose origin sits at the merge
point.  Upstream positions are negative, downstream positions positive.
Projecting both lanes onto one axis makes distance-to-merge directly
comparable across lanes, which is what the string controller and the
sequencing logic need.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .params import Checked, param


class Lane(enum.Enum):
    MAINLINE = "mainline"
    RAMP = "ramp"

    @property
    def code(self) -> int:
        return 0 if self is Lane.MAINLINE else 1


_LANE_CODES = tuple((lane, lane.code) for lane in Lane)  # once, not per step


def lane_orders(lanes: np.ndarray, positions: np.ndarray) -> dict[Lane, np.ndarray]:
    """Indices of each lane's vehicles, downstream first (ties keep index
    order), from per-vehicle lane codes and positions."""
    orders = {}
    for lane, code in _LANE_CODES:
        idx = np.nonzero(lanes == code)[0]
        orders[lane] = idx[np.argsort(-positions[idx], kind="stable")]
    return orders


class ControlStatus(enum.Enum):
    UNCONTROLLED = 0
    RAMP_LEADER_REGULATED = 1
    OPTIMAL_CONTROLLED = 2
    MERGED = 3

    @property
    def code(self) -> int:
        return self.value


@dataclass
class ControlLimits(Checked):
    """Actuation and spacing limits shared by the controller stack.

    ``acc_min``/``acc_max`` bound commanded accelerations (m/s^2).
    ``gap_min_headway`` converts a vehicle's recorded entry speed into its
    minimum admissible net gap; ``gap_floor`` is the standstill floor (m).
    ``v_max`` caps physical speed (m/s): tracking transients may command
    sustained acceleration, but vehicles never exceed this.
    """

    acc_min: float = param("accel", -2.99, "< 0")
    acc_max: float = param("accel", 2.50, "> 0")
    gap_min_headway: float = param("time", 2.0, "> 0")
    gap_floor: float = param("length", 5.0, "> 0")
    # a touch over the cruising target, so tracking transients cost
    # little extra drag
    v_max: float = param("speed", 34.65, "> 0")


@dataclass
class MergeGeometry(Checked):
    """Static layout of the merge area on the shared axis.

    The ramp control zone ends at the merge point (position 0); the ramp
    buffer zone lies immediately upstream of it.  The extent fields
    describe how much roadway the simulation models around the merge
    point.
    """

    ramp_control_zone_len: float = param("length", 300.0, "> 0")
    ramp_buffer_zone_len: float = param("length", 150.0, "> 0")
    mainline_control_zone_len: float = param("length", 1000.0, "> 0")
    merge_zone_len: float = param("length", 200.0, "> 0")
    upstream_extent: float = param("length", 2000.0, "> 0")
    downstream_extent: float = param("length", 500.0, "> 0")
    ramp_length: float = param("length", 900.0, "> 0")

    def issues(self) -> list[tuple[str, str]]:
        out = super().issues()
        # the buffer zone upstream of the trigger line must fit on the modeled ramp
        if self.ramp_buffer_start < -self.ramp_length:
            out.append(("ramp_length", "too short for the buffer zone before the trigger"))
        # the density estimate counts vehicles over the whole mainline zone
        if self.mainline_control_zone_len > self.upstream_extent:
            out.append(("mainline_control_zone_len", "extends past the modeled upstream extent"))
        if self.merge_zone_len > self.downstream_extent:
            out.append(("merge_zone_len", "extends past the modeled downstream extent"))
        return out

    @property
    def trigger_point(self) -> float:
        """Downstream boundary of the ramp buffer zone: the line whose
        crossing by a ramp leader starts a new decision cycle."""
        return -self.ramp_control_zone_len

    @property
    def ramp_buffer_start(self) -> float:
        """Upstream boundary of the ramp buffer zone on the merge axis."""
        return self.trigger_point - self.ramp_buffer_zone_len

    @property
    def merge_zone_end(self) -> float:
        return self.merge_zone_len


def gap_floors(
    speeds: np.ndarray, entry_speeds: np.ndarray, limits: ControlLimits
) -> np.ndarray:
    """Each vehicle's minimum admissible net gap as a follower.

    Scales with the speed recorded at buffer entry, or with the current
    speed where none is recorded yet (NaN), and never drops below the
    standstill floor.
    """
    v = np.where(np.isnan(entry_speeds), speeds, entry_speeds)
    return np.maximum(limits.gap_min_headway * v, limits.gap_floor)
