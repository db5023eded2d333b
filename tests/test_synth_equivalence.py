"""Array-program synthesis against the scalar spec, bit for bit.

Trace and hint synthesis run as array programs: ``MotionScript.positions``
and ``segment_indices`` replace per-sample ``state_at`` calls, and the
shadowing and sway normals are drawn in one block each.  Everything the
store, the golden files and the perfbench digests hold depends on those
outputs not moving by a single bit, so this module pins them to

* ``MotionScript.state_at`` / ``segment_index_at`` / ``moving_at`` (a
  hypothesis property over random segment lists), and
* the per-sample loops in :mod:`synth_oracle` (byte equality of traces,
  packet-loss series and accelerometer forces).

Batched ``Generator.normal`` draws matching sequential ones, and
``math.sin``/``math.cos`` factors matching, are properties of the NumPy
build and the CPU; a runner where either fails fails here loudly.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import synth_oracle
from repro.channel import ENVIRONMENTS, environment_by_name
from repro.channel.tracegen import TraceGenerator
from repro.core.movement import movement_hint_series
from repro.network import make_scenario
from repro.network.traces import station_script, station_seed
from repro.sensors.accelerometer import Accelerometer, _ramp_envelope
from repro.sensors.trajectory import Motion, MotionScript, MotionSegment


def _bytes(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


# ----------------------------------------------------------------------
# MotionScript array methods == state_at
# ----------------------------------------------------------------------
_turn_rates = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-13, -1e-13, 1e-12]),
    st.floats(-120.0, 120.0, allow_nan=False),
)

_segments = st.builds(
    MotionSegment,
    kind=st.sampled_from(list(Motion)),
    duration_s=st.floats(0.01, 12.0, allow_nan=False),
    speed_mps=st.one_of(st.just(0.0), st.floats(0.0, 40.0, allow_nan=False)),
    heading_deg=st.floats(-720.0, 720.0, allow_nan=False),
    turn_rate_dps=_turn_rates,
)

_coords = st.floats(-1e4, 1e4, allow_nan=False)


@st.composite
def _script_and_times(draw):
    segments = draw(st.lists(_segments, min_size=1, max_size=6))
    start_xy = draw(st.one_of(st.just((0.0, 0.0)), st.just((-0.0, -0.0)),
                              st.tuples(_coords, _coords)))
    script = MotionScript(segments, start_xy=start_xy)
    end = script.duration_s
    starts = [0.0]
    for seg in segments[:-1]:
        starts.append(starts[-1] + seg.duration_s)
    # Segment boundaries and their float neighbours, the ends and
    # beyond, plus random interior times.
    times = [-1.0, -0.0, 0.0, end, end + 1.0, math.nextafter(end, 0.0)]
    for t in starts:
        times += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
    times += draw(st.lists(st.floats(-2.0, end + 2.0, allow_nan=False),
                           max_size=20))
    return script, times


class TestMotionScriptArrays:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_script_and_times())
    def test_matches_state_at(self, case):
        script, times = case
        xs, ys = script.positions(np.array(times))
        states = [script.state_at(t) for t in times]
        assert _bytes(xs) == _bytes([s.x_m for s in states])
        assert _bytes(ys) == _bytes([s.y_m for s in states])
        assert script.segment_indices(np.array(times)).tolist() == \
            [script.segment_index_at(t) for t in times]
        assert script.moving_flags(np.array(times)).tolist() == \
            [script.moving_at(t) for t in times]

    def test_moving_mask_matches_moving_at(self):
        script = MotionScript([
            MotionSegment(Motion.STATIONARY, 0.7),
            MotionSegment(Motion.WALK, 1.3, 1.4, turn_rate_dps=30.0),
            MotionSegment(Motion.DRIVE, 0.4, 9.0),
        ])
        slot = 0.005
        n = int(round(script.duration_s / slot))
        assert script.moving_mask(slot) == \
            [script.moving_at((i + 0.5) * slot) for i in range(n)]


# ----------------------------------------------------------------------
# Traces and forces == the per-sample oracle
# ----------------------------------------------------------------------
#: One catalog station per mobility kind: (scenario, station index).
_CATALOG_STATIONS = {
    "static": ("dense_cell", 0),
    "walk": ("corridor_walk", 0),
    "pace": ("dense_cell", 4),
    "drive_by": ("vehicular_drive_by", 0),
    "vehicle": ("vehicular_drive_by", 2),
}

#: Every motion the array path branches on: rest, a turning arc, a
#: zero-speed walk, a straight drive, a second moving run after a stop
#: (the sway restarts), and a start away from the origin.
_EDGE_SCRIPT = MotionScript([
    MotionSegment(Motion.STATIONARY, 0.6),
    MotionSegment(Motion.WALK, 1.1, 1.4, heading_deg=30.0, turn_rate_dps=45.0),
    MotionSegment(Motion.WALK, 0.5, 0.0),
    MotionSegment(Motion.DRIVE, 0.8, 12.0, heading_deg=200.0),
    MotionSegment(Motion.STATIONARY, 0.3),
    MotionSegment(Motion.WALK, 0.4, 1.4, heading_deg=90.0),
], start_xy=(3.5, -7.25))


def _assert_same_trace(trace, expected):
    assert trace.fates.tobytes() == expected.fates.tobytes()
    assert trace.snr_db.tobytes() == expected.snr_db.tobytes()
    assert trace.moving.tobytes() == expected.moving.tobytes()


class TestSynthesisMatchesOracle:
    @pytest.mark.parametrize("mobility", sorted(_CATALOG_STATIONS))
    def test_catalog_station(self, mobility):
        name, index = _CATALOG_STATIONS[mobility]
        scenario = make_scenario(name, seed=0)
        assert scenario.stations[index].mobility == mobility
        env = environment_by_name(scenario.environment)
        script = station_script(scenario, index)
        seed = station_seed(scenario, index)
        _assert_same_trace(TraceGenerator(env, script, seed).generate(),
                           synth_oracle.generate(env, script, seed))
        assert Accelerometer(script, seed).force_array().tobytes() == \
            synth_oracle.forces(script, seed).tobytes()

    @pytest.mark.parametrize("env", list(ENVIRONMENTS.values()),
                             ids=lambda e: e.name)
    def test_edge_script_in_every_environment(self, env):
        _assert_same_trace(TraceGenerator(env, _EDGE_SCRIPT, 11).generate(),
                           synth_oracle.generate(env, _EDGE_SCRIPT, 11))
        calibrated = TraceGenerator(env, _EDGE_SCRIPT, 12,
                                    zero_initial_shadow=True)
        assert _bytes(calibrated.snr_series()) == _bytes(
            synth_oracle.snr_series(env, _EDGE_SCRIPT, 12,
                                    zero_initial_shadow=True))

    def test_packet_loss_series(self):
        env = environment_by_name("office")
        generator = TraceGenerator(env, _EDGE_SCRIPT, 5)
        for packets_per_s in (400.0, 5000.0):
            assert generator.packet_loss_series(3, packets_per_s).tobytes() == \
                synth_oracle.packet_loss_series(env, _EDGE_SCRIPT, 5, 3,
                                                packets_per_s).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.booleans(), max_size=200), st.integers(0, 40))
    def test_ramp_envelope(self, moving, ramp_samples):
        moving = np.array(moving, dtype=bool)
        assert _ramp_envelope(moving, ramp_samples).tobytes() == \
            synth_oracle.ramp_envelope(moving, ramp_samples).tobytes()

    @pytest.mark.parametrize("seed", [0, 9])
    def test_accelerometer_edge_script(self, seed):
        assert Accelerometer(_EDGE_SCRIPT, seed).force_array().tobytes() == \
            synth_oracle.forces(_EDGE_SCRIPT, seed).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 400),
           st.floats(0.0, 3.0), st.floats(-1.0, 4.0), st.integers(0, 60),
           st.integers(1, 12))
    def test_movement_hint_series(self, seed, n, scale, threshold,
                                  hold_window, avg_window):
        # Bursts of movement over still noise, so jerks cross the
        # threshold both ways; n also runs below the 2*avg_window warm-up.
        rng = np.random.default_rng(seed)
        forces = rng.normal(0.0, 0.05, size=(n, 3))
        forces[rng.random(n) < 0.1] *= scale * 40.0
        assert movement_hint_series(forces, threshold, hold_window,
                                    avg_window).tobytes() == \
            synth_oracle.movement_hint_series(forces, threshold, hold_window,
                                              avg_window).tobytes()
