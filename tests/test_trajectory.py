"""Motion scripts: geometry, clamping, builders."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sensors.trajectory import (
    Motion,
    MotionScript,
    MotionSegment,
    WALKING_SPEED,
    drive_by_script,
    driving_script,
    mixed_mobility_script,
    pacing_script,
    stationary_script,
    stop_and_go_script,
    walking_script,
)


class TestMotionSegment:
    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            MotionSegment(Motion.WALK, 0.0, 1.0)

    def test_rejects_negative_speed(self):
        with pytest.raises(ValueError):
            MotionSegment(Motion.WALK, 1.0, -1.0)

    def test_stationary_forces_zero_speed(self):
        seg = MotionSegment(Motion.STATIONARY, 1.0, speed_mps=5.0)
        assert seg.speed_mps == 0.0

    def test_moving_property(self):
        assert not Motion.STATIONARY.is_moving
        assert Motion.WALK.is_moving
        assert Motion.DRIVE.is_moving


class TestMotionScript:
    def test_requires_segments(self):
        with pytest.raises(ValueError):
            MotionScript([])

    def test_duration_sums_segments(self):
        script = MotionScript([
            MotionSegment(Motion.STATIONARY, 3.0),
            MotionSegment(Motion.WALK, 7.0, 1.0),
        ])
        assert script.duration_s == pytest.approx(10.0)

    def test_stationary_position_fixed(self):
        script = stationary_script(10.0)
        s0 = script.state_at(0.0)
        s1 = script.state_at(9.9)
        assert s0.position == s1.position

    def test_walk_north_advances_y(self):
        script = walking_script(10.0, speed_mps=2.0, heading_deg=0.0)
        state = script.state_at(5.0)
        assert state.y_m == pytest.approx(10.0)
        assert state.x_m == pytest.approx(0.0, abs=1e-9)

    def test_walk_east_advances_x(self):
        script = walking_script(10.0, speed_mps=2.0, heading_deg=90.0)
        state = script.state_at(5.0)
        assert state.x_m == pytest.approx(10.0)
        assert state.y_m == pytest.approx(0.0, abs=1e-9)

    def test_state_clamps_before_zero(self):
        script = walking_script(10.0)
        assert script.state_at(-5.0).time_s == 0.0

    def test_state_clamps_after_end(self):
        script = walking_script(10.0)
        assert script.state_at(50.0).time_s == pytest.approx(10.0)

    def test_segment_lookup_at_boundary(self):
        script = MotionScript([
            MotionSegment(Motion.STATIONARY, 5.0),
            MotionSegment(Motion.WALK, 5.0, 1.0),
        ])
        assert script.segment_index_at(5.0) == 1
        assert script.segment_index_at(4.999) == 0

    def test_moving_mask_half_and_half(self):
        script = mixed_mobility_script(20.0)
        mask = script.moving_mask(0.005)
        assert len(mask) == 4000
        assert sum(mask) == pytest.approx(2000, abs=2)

    def test_sample_count(self):
        script = walking_script(2.0)
        assert len(script.sample(100.0)) == 200

    def test_turning_changes_heading(self):
        script = MotionScript([
            MotionSegment(Motion.DRIVE, 10.0, 5.0, heading_deg=0.0,
                          turn_rate_dps=9.0)
        ])
        assert script.state_at(10.0).heading_deg == pytest.approx(90.0, abs=1.0)

    @given(st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=50, deadline=None)
    def test_position_continuity(self, t):
        """Positions never jump across segment boundaries."""
        script = mixed_mobility_script(20.0)
        a = script.state_at(t)
        b = script.state_at(min(t + 0.01, 20.0))
        dist = math.hypot(a.x_m - b.x_m, a.y_m - b.y_m)
        assert dist <= WALKING_SPEED * 0.011 + 1e-9


class TestBuilders:
    def test_pacing_stays_near_start(self):
        script = pacing_script(100.0, leg_s=5.0, speed_mps=1.4)
        max_dist = max(
            abs(script.state_at(t).y_m) for t in range(0, 100)
        )
        assert max_dist <= 5.0 * 1.4 + 1e-6

    def test_pacing_legs_reverse_the_given_heading(self):
        script = pacing_script(12.0, speed_mps=1.0, heading_deg=270.0,
                               start_xy=(4.0, -2.0))
        assert [seg.heading_deg for seg in script.segments] == \
            [270.0, 90.0, 270.0]
        assert script.state_at(0.0).position == (4.0, -2.0)
        assert script.state_at(5.0).x_m == pytest.approx(-1.0)

    def test_pacing_always_moving(self):
        script = pacing_script(30.0)
        assert all(script.moving_at(t + 0.5) for t in range(30))

    def test_mixed_mobile_first_order(self):
        script = mixed_mobility_script(20.0, mobile_first=True)
        assert script.moving_at(1.0)
        assert not script.moving_at(19.0)

    def test_stop_and_go_cycles(self):
        script = stop_and_go_script(n_cycles=2, still_s=10.0, move_s=10.0)
        assert script.duration_s == pytest.approx(40.0)
        assert not script.moving_at(5.0)
        assert script.moving_at(15.0)

    def test_stop_and_go_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            stop_and_go_script(n_cycles=0)

    def test_drive_by_alternates_heading(self):
        script = drive_by_script(passes=2, pass_duration_s=5.0, speed_mps=10.0)
        assert script.state_at(2.0).heading_deg == pytest.approx(0.0)
        assert script.state_at(7.0).heading_deg == pytest.approx(180.0)

    def test_drive_by_is_outdoor(self):
        script = drive_by_script()
        assert script.state_at(1.0).outdoor

    def test_driving_script_kind(self):
        script = driving_script(5.0, 20.0)
        assert script.state_at(1.0).kind is Motion.DRIVE
